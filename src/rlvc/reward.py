"""Frozen linear reward model, EMA baseline, and the policy-gradient loss.

The reward model is a `nets.SoftmaxClassifier` over the seen classes, whose
class ids are their rows 0..S-1. The reward of a synthesized feature is the
log-probability it assigns to its intended class (`class_log_probs`). The
trainer centres a batch's rewards by an exponential-moving-average baseline,
always: a reward is a log-probability, never positive, so weighting by raw
rewards would push every row's reward down. The advantages are a plain
vector of constants, so the policy update weighs log-likelihood gradients
by them. The passes here are plain numpy, bit-equal to engine.backward on
the same graph (see gan.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Config
from .errors import ConfigurationError, NumericFailure, UsageError
from .nets import SoftmaxClassifier, fit_linear_softmax, label_rows
from .nets import log_softmax_cached, log_softmax_pullback
from .seeding import stream_rng


def pretrain_reward(
    features: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    config: Config,
    rng: np.random.Generator | None = None,
) -> SoftmaxClassifier:
    """Train the linear reward classifier by softmax cross-entropy, then
    freeze it. Labels must be 0..n_classes-1 with every class present; they
    are the classifier's class ids. Minibatches are shuffled by `rng`, by
    default the stream (config.seed, "reward")."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.ndim != 2 or features.shape[0] != labels.shape[0]:
        raise ConfigurationError("pretrain_reward: features/labels mismatch")
    present = np.unique(labels)
    if not np.array_equal(present, np.arange(n_classes)):
        raise ConfigurationError(
            f"pretrain_reward: labels must cover 0..{n_classes - 1}, saw {len(present)} classes"
        )
    if rng is None:
        rng = stream_rng(config.seed, "reward")
    weight, bias = fit_linear_softmax(
        features, labels, n_classes, config.reward_epochs, config.reward_lr,
        config.reward_batch, config.adam_beta1, config.adam_beta2, rng,
    )
    return SoftmaxClassifier(weight, bias)


def class_log_probs(model: SoftmaxClassifier, x: np.ndarray, y) -> tuple[np.ndarray, tuple]:
    """log p(y_i | x_i) per row, and the cache `rl_loss` reads.

    Each row's value is read at its label's column. The engine graph sums the
    row of log-probs times a one-hot row instead: with finite log-probs every
    other term is a signed zero and the one at the label is never -0.0, so
    that sum has the same bits."""
    y = np.asarray(y).reshape(-1)
    if y.dtype.kind not in "iu":
        raise UsageError(f"class labels must be integers, got {y.dtype}")
    cols = label_rows(model.class_ids, y, "class index {} outside the reward model's class set",
                      UsageError)
    lp, lp_cache = log_softmax_cached(model.logits(x))
    rows = np.arange(len(y))
    return lp[rows, cols], (model.weight, rows, cols, lp_cache)


@dataclass
class EmaBaseline:
    """Scalar exponential moving average of batch-mean rewards.

    The first update adopts the batch mean outright; afterwards
    b <- alpha * b + (1 - alpha) * mean.
    """

    alpha: float
    value: float = 0.0
    initialized: bool = False

    def __post_init__(self):
        if not (0.0 <= self.alpha < 1.0):
            raise ConfigurationError(f"ema alpha must be in [0, 1), got {self.alpha}")

    def update(self, rewards: np.ndarray) -> float:
        rewards = np.asarray(rewards, dtype=np.float64).reshape(-1)
        if rewards.size == 0:
            raise UsageError("ema update with an empty batch")
        if not np.all(np.isfinite(rewards)):
            raise NumericFailure("non-finite rewards in ema update")
        m = float(np.mean(rewards))
        if self.initialized:
            self.value = self.alpha * self.value + (1.0 - self.alpha) * m
        else:
            self.value = m
            self.initialized = True
        return self.value


def rl_loss(
    advantages: np.ndarray, log_probs: np.ndarray, cache: tuple
) -> tuple[np.float64, np.ndarray]:
    """Policy-gradient surrogate -(1/B) sum_i A_i * log p(y_i | x_i), for
    the advantage vector A and the log-probs and cache from
    `class_log_probs`: the loss, and its gradient w.r.t. the rows x that
    were scored. Advantages enter as constants."""
    a = advantages
    if log_probs.ndim != 1 or log_probs.shape != a.shape:
        raise UsageError("rl_loss: batch sizes disagree")
    inv_b = 1.0 / a.shape[0]
    loss = -(np.sum(a * log_probs) * inv_b)
    weight, rows, y, lp_cache = cache
    # The engine graph sends u = w * onehot into log_softmax, w = -(1/B) * a.
    # Here u is w at each row's label and +0.0 elsewhere. The row sum of -u
    # is -w in both, and off the label (-w / s) * e is nonzero or a zero of
    # the sign opposite to w's, so adding it to w * 0.0 or to +0.0 gives the
    # same bits.
    u = np.zeros((len(y), weight.shape[0]))
    u[rows, y] = np.full(a.shape[0], -1.0 * inv_b) * a
    return loss, log_softmax_pullback(lp_cache, u) @ weight
