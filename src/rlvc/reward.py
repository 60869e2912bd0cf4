"""Frozen linear reward model, its file, and the policy step's loss.

The reward model is a `nets.SoftmaxClassifier` over the seen classes, whose
class ids are their rows 0..S-1. The reward of a synthesized feature is the
log-probability it assigns to its intended class (`class_log_probs`). The
policy step descends `rl_loss`, minus the batch-mean reward: the reward is a
differentiable function of the reparameterized sample, so its pathwise
gradient raises every row's reward and needs no baseline (a constant
subtracted from each reward has zero gradient). The passes here are plain
numpy, bit-equal to engine.backward on the same graph (tests/test_hand_passes.py)."""

from __future__ import annotations

import numpy as np

from .config import Config
from .errors import ConfigurationError, UsageError
from .nets import (SoftmaxClassifier, distinct, fit_linear_softmax, label_rows,
                   load_checkpoint, save_checkpoint)
from .seeding import stream_rng

REWARD_TAG = b"RWDM"


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
    present = distinct(labels)
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
    """log p(y_i | x_i) per row, and the cache `rl_loss` reads: the shifted
    exponentials e of the logits and their row sums s, all in the model's
    dtype. y holds one label per row of x; any other count is refused.

    Each row's log-softmax is formed at its label's column only, as the
    engine's log_softmax forms every entry: shifted logit less log s. The
    engine graph sums the row of log-probs times a one-hot row instead: with
    finite log-probs every other term is a signed zero and the one at the
    label is never -0.0, so that sum has the same bits."""
    y = np.asarray(y).reshape(-1)
    if y.dtype.kind not in "iu":
        raise UsageError(f"class labels must be integers, got {y.dtype}")
    cols = label_rows(model.class_ids, y, "class index {} outside the reward model's class set",
                      UsageError)
    logits = model.logits(x)
    if len(y) != logits.shape[0]:
        raise UsageError(f"class_log_probs: {len(y)} labels for {logits.shape[0]} rows")
    shifted = logits - np.max(logits, axis=1, keepdims=True)
    e = np.exp(shifted)
    s = np.add.reduce(e, axis=1, keepdims=True)
    rows = np.arange(len(y))
    return shifted[rows, cols] - np.log(s[:, 0]), (model.weight, rows, cols, e, s)


def rl_loss(log_probs: np.ndarray, cache: tuple) -> tuple[np.floating, np.ndarray]:
    """The policy step's loss -(1/B) sum_i log p(y_i | x_i), for the
    log-probs and cache from `class_log_probs`, and its gradient w.r.t. the
    rows x that were scored: descending it ascends the batch-mean reward
    along the rows' reparameterized path.

    The gradient is formed in closed form, as `fit_linear_softmax` forms
    its own: ((1/B) / s) * e, less 1/B at each row's label, then @ weight.
    The engine graph sends u = -1/B at the label and a zero elsewhere into
    log_softmax, whose reverse pass u + (sum(-u) / s) * e has a row sum of
    one nonzero term, exact, and adds a zero off the label: the same bits."""
    if log_probs.ndim != 1 or log_probs.size == 0:
        raise UsageError("rl_loss: log_probs must be a non-empty vector")
    inv_b = 1.0 / log_probs.shape[0]
    loss = -(np.add.reduce(log_probs, axis=None) * inv_b)
    weight, rows, y, e, s = cache
    g = (inv_b / s) * e
    g[rows, y] -= inv_b
    return loss, g @ weight


def save_reward(path, model: SoftmaxClassifier, standardize: bool, dataset: str) -> None:
    """Write the reward file: a checkpoint of kind REWARD_TAG with layer dims
    [feat_dim, n_classes], the settings lines `standardize = true` (or
    `false`), the feature space the model was fit in, and `dataset = ` the
    fingerprint of the rows it was fit on, then the vector [weight row-major
    | bias]. It holds no class ids; `load_reward` gives the model ids
    0..n_classes-1."""
    save_checkpoint(path, REWARD_TAG, [model.feat_dim, model.n_classes],
                    np.concatenate([model.weight.ravel(), model.bias]),
                    f"standardize = {str(standardize).lower()}\ndataset = {dataset}\n")


def load_reward(path, standardize: bool, dataset: str) -> SoftmaxClassifier:
    """The model of a file written by `save_reward`, for a run in the space
    `standardize` on the dataset of fingerprint `dataset`. Refused: a
    checkpoint of another kind or of more than one layer, settings other than
    `standardize = true` or `false` and an optional `dataset` line, and a
    model fit in the other space (it would score standardized rows as raw
    ones, or the reverse) or on another dataset or none recorded."""
    dims, flat, settings = load_checkpoint(path, REWARD_TAG)
    if len(dims) != 2:
        raise ConfigurationError(f"reward checkpoint {path} is not one linear layer")
    fit, space = settings.get("standardize"), str(standardize).lower()
    if not (fit in ("true", "false") and settings.keys() <= {"standardize", "dataset"}):
        raise ConfigurationError(f"reward checkpoint {path} records {settings}, not "
                                 "standardize = true or false and a dataset fingerprint")
    if fit != space:
        raise ConfigurationError(f"{path} was fit with standardize = {fit}; "
                                 f"this run has standardize = {space}")
    fit_on = settings.get("dataset", "(none recorded)")
    if fit_on != dataset:
        raise ConfigurationError(f"{path} was fit on dataset {fit_on}; "
                                 f"this run's dataset is {dataset}")
    d, n_classes = dims
    return SoftmaxClassifier(flat[: n_classes * d].reshape(n_classes, d), flat[n_classes * d :])
