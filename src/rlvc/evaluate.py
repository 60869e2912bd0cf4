"""Unseen-class synthesis and CZSL/GZSL evaluation heads.

CZSL trains a linear softmax head on synthesized unseen features only and
reports macro top-1 over real unseen test rows. GZSL trains on real seen
training features plus synthesized unseen features, reports macro accuracy
separately over unseen (U) and seen (S) test rows, and the harmonic mean
H = 2SU / (S + U).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffusion
from .config import Config
from .errors import UsageError
from .gan import Generator
from .nets import SoftmaxClassifier, fit_linear_softmax, label_rows


@dataclass
class EvalReport:
    czsl_acc: float
    gzsl_u: float
    gzsl_s: float
    gzsl_h: float

    def format_line(self) -> str:
        return (
            f"acc={self.czsl_acc:.6f} u={self.gzsl_u:.6f} "
            f"s={self.gzsl_s:.6f} h={self.gzsl_h:.6f}"
        )


def harmonic_mean(s: float, u: float) -> float:
    """H = 2SU / (S + U); zero when both accuracies vanish."""
    if s < 0 or u < 0:
        raise UsageError("accuracies must be nonnegative")
    if s + u == 0.0:
        return 0.0
    return 2.0 * s * u / (s + u)


def train_head(
    features: np.ndarray,
    labels: np.ndarray,
    class_ids,
    config: Config,
    rng: np.random.Generator,
) -> SoftmaxClassifier:
    """Softmax cross-entropy with Adam over shuffled minibatches."""
    features = np.asarray(features, dtype=np.float64)
    ids = np.asarray(sorted(int(c) for c in class_ids), dtype=np.int64)
    rows = label_rows(ids, np.asarray(labels).reshape(-1), "training label {} outside head classes")
    weight, bias = fit_linear_softmax(
        features, rows, len(ids), config.clf_epochs, config.clf_lr,
        config.clf_batch, config.adam_beta1, config.adam_beta2, rng,
    )
    return SoftmaxClassifier(weight, bias, ids)


def macro_accuracy(head: SoftmaxClassifier, features: np.ndarray, labels: np.ndarray) -> float:
    """Per-class top-1 accuracy averaged uniformly over the classes present."""
    labels = np.asarray(labels).reshape(-1)
    if labels.size == 0:
        raise UsageError("macro_accuracy over an empty set")
    present = np.unique(labels)
    label_rows(head.class_ids, present, "test label {} outside head classes")
    preds = head.predict(features)
    return float(np.mean([np.mean(preds[labels == c] == c) for c in present]))


def synthesize_unseen(
    gen: Generator,
    prototypes: np.ndarray,
    unseen_classes,
    n_per_class: int,
    sched: diffusion.DiffusionSchedule,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Full iterative denoising from pure noise, per unseen class.

    Starts at x_T ~ N(0, I); for t = T-1 .. 0 predicts the clean features
    from the current state (fresh generator noise each step) and draws the
    next state from the posterior. Returns the final clean prediction.
    """
    if n_per_class < 1:
        raise UsageError("n_per_class must be >= 1")
    unseen_classes = [int(c) for c in unseen_classes]
    feats, labels = [], []
    for c in unseen_classes:
        z = np.tile(prototypes[c], (n_per_class, 1))
        x = rng.standard_normal((n_per_class, gen.feat_dim))
        x0_pred = None
        for t in range(sched.timesteps - 1, -1, -1):
            eps = rng.standard_normal((n_per_class, gen.feat_dim))
            x0_pred = gen.synthesize(eps, z, x, t + 1)[0]
            x = diffusion.posterior_sample(x0_pred, x, t, sched, rng)
        feats.append(x0_pred)
        labels.extend([c] * n_per_class)
    return np.concatenate(feats, axis=0), np.asarray(labels, dtype=np.int64)


def full_report(gen: Generator, dataset, config: Config, rng: np.random.Generator) -> EvalReport:
    """Synthesize config.synth_per_class unseen features per class along
    config's diffusion schedule, then run both protocols."""
    synth_x, synth_y = synthesize_unseen(
        gen, dataset.prototypes, dataset.unseen_classes, config.synth_per_class,
        config.schedule(), rng,
    )
    # CZSL: a head over the unseen classes, trained on synthesized rows only.
    czsl = train_head(synth_x, synth_y, np.unique(synth_y), config, rng)
    tu_x, tu_y = dataset.test_unseen
    acc = macro_accuracy(czsl, tu_x, tu_y)

    # GZSL: a head over all classes, on real seen rows plus the synthesized.
    tr_x, tr_y = dataset.train
    x = np.concatenate([tr_x, synth_x], axis=0)
    y = np.concatenate([np.asarray(tr_y), synth_y])
    gzsl = train_head(x, y, np.unique(y), config, rng)
    u = macro_accuracy(gzsl, tu_x, tu_y)
    ts_x, ts_y = dataset.test_seen
    s = macro_accuracy(gzsl, ts_x, ts_y)
    return EvalReport(czsl_acc=acc, gzsl_u=u, gzsl_s=s, gzsl_h=harmonic_mean(s, u))
