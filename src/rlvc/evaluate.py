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

from . import diffusion, nets
from .config import Config
from .errors import ConfigurationError, UsageError
from .gan import Generator
from .nets import SoftmaxClassifier, distinct, fit_linear_softmax, label_rows


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


def _one_label_per_row(features: np.ndarray, labels: np.ndarray, what: str) -> None:
    rows = features.shape[0] if features.ndim == 2 else 1
    if labels.size != rows:
        raise UsageError(f"{what}: {labels.size} labels for {rows} feature rows")


def train_head(
    features: np.ndarray,
    labels: np.ndarray,
    class_ids,
    config: Config,
    rng: np.random.Generator,
) -> SoftmaxClassifier:
    """Softmax cross-entropy with Adam over shuffled minibatches, in
    float64. One label per feature row; any other count is refused."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels).reshape(-1)
    _one_label_per_row(features, labels, "train_head")
    ids = np.asarray(sorted(int(c) for c in class_ids), dtype=np.int64)
    rows = label_rows(ids, labels, "training label {} outside head classes")
    weight, bias = fit_linear_softmax(
        features, rows, len(ids), config.clf_epochs, config.clf_lr,
        config.clf_batch, config.adam_beta1, config.adam_beta2, rng,
    )
    return SoftmaxClassifier(weight, bias, ids)


def macro_accuracy(head: SoftmaxClassifier, features: np.ndarray, labels: np.ndarray) -> float:
    """Per-class top-1 accuracy averaged uniformly over the classes present,
    one label per feature row; any other count is refused."""
    labels = np.asarray(labels).reshape(-1)
    if labels.size == 0:
        raise UsageError("macro_accuracy over an empty set")
    features = np.asarray(features)
    _one_label_per_row(features, labels, "macro_accuracy")
    present = distinct(labels)
    label_rows(head.class_ids, present, "test label {} outside head classes")
    preds = head.predict(features)
    return float(np.mean([np.mean(preds[labels == c] == c) for c in present]))


def _refuse_oversize(rows: int, feat_dim: int, n_per_class: int) -> None:
    """ConfigurationError if a float64 (rows, feat_dim) matrix, which holds
    n_per_class synthesized rows per unseen class, would not fit in physical
    memory."""
    need = 8 * rows * feat_dim
    have = nets.physical_memory()
    if have is not None and need > have:
        raise ConfigurationError(
            f"synth_per_class = {n_per_class:,} needs a {need:,}-byte matrix of features, "
            f"more than the {have:,} bytes of physical memory; lower synth_per_class"
        )


def synthesize_unseen(
    gen: Generator,
    prototypes: np.ndarray,
    unseen_classes,
    n_per_class: int,
    sched: diffusion.DiffusionSchedule,
    rng: np.random.Generator,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Full iterative denoising from pure noise, per unseen class.

    Starts at x_T ~ N(0, I); for t = T-1 .. 0 draws fresh generator noise,
    predicts the clean features from the current state with one
    `gen.synthesize` call and, but at t = 0, draws the next state with one
    `diffusion.posterior_sample` call: the last step's prediction is the
    result, so the chain of T steps makes T - 1 posterior draws. Each step's
    arrays are new and freed by the next, so the memory a call holds does
    not grow with T. Returns the final clean prediction, widened to float64
    for the heads: the chain runs in the generator's dtype, which the
    schedule must share, and draws its normals in it.

    With `out`, a float64 (len(unseen_classes) * n_per_class, feat_dim)
    array, the features are written into it and it is returned, so a caller
    that wants them inside a larger matrix holds one copy. Without it, a
    result that would not fit in physical memory is refused before any
    allocation.
    """
    if n_per_class < 1:
        raise UsageError("n_per_class must be >= 1")
    dtype = gen.dtype
    if sched.dtype != dtype:
        raise UsageError(f"synthesize_unseen: a {sched.dtype} schedule for a {dtype} generator")
    unseen_classes = [int(c) for c in unseen_classes]
    shape = (len(unseen_classes) * n_per_class, gen.feat_dim)
    if out is None:
        _refuse_oversize(*shape, n_per_class)
        feats = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64:
        raise UsageError(f"synthesize_unseen: out is {out.dtype} {out.shape}, not float64 {shape}")
    else:
        feats = out
    for k, c in enumerate(unseen_classes):
        z = np.tile(np.asarray(prototypes[c], dtype), (n_per_class, 1))
        x = rng.standard_normal((n_per_class, gen.feat_dim), dtype)
        for t in range(sched.timesteps - 1, -1, -1):
            eps = rng.standard_normal(x.shape, dtype)
            x0_pred = gen.synthesize(eps, z, x, t + 1)[0]
            if t > 0:
                x = diffusion.posterior_sample(x0_pred, x, t, sched, rng)
        feats[k * n_per_class : (k + 1) * n_per_class] = x0_pred
    return feats, np.repeat(np.asarray(unseen_classes, dtype=np.int64), n_per_class)


def full_report(gen: Generator, dataset, config: Config, rng: np.random.Generator) -> EvalReport:
    """Synthesize config.synth_per_class unseen features per class along
    config's diffusion schedule, then run both protocols.

    The synthesized rows exist once: the GZSL matrix is allocated first and
    `synthesize_unseen` writes them into its tail, where the CZSL head reads
    them. The real train rows are copied into its head after synthesis, so
    they are not held while the chain runs. The heads' class ids are the
    dataset's: the unseen classes, and for GZSL every class, since
    `ZslDataset.validate` requires train rows of every seen class. A GZSL
    matrix that would not fit in physical memory is refused before any
    allocation."""
    is_train = dataset.splits == "train"
    n_train = int(np.count_nonzero(is_train))
    unseen = dataset.unseen_classes
    shape = (n_train + len(unseen) * config.synth_per_class, dataset.feat_dim)
    _refuse_oversize(*shape, config.synth_per_class)
    x = np.empty(shape)
    synth_x, synth_y = synthesize_unseen(
        gen, dataset.prototypes, unseen, config.synth_per_class, config.schedule(), rng,
        out=x[n_train:],
    )
    # CZSL: a head over the unseen classes, trained on synthesized rows only.
    czsl = train_head(synth_x, synth_y, unseen, config, rng)
    tu_x, tu_y = dataset.test_unseen
    acc = macro_accuracy(czsl, tu_x, tu_y)

    # GZSL: a head over all classes, on real seen rows plus the synthesized.
    np.compress(is_train, dataset.features, axis=0, out=x[:n_train])
    y = np.concatenate([dataset.labels[is_train], synth_y])
    gzsl = train_head(x, y, np.arange(dataset.n_classes), config, rng)
    u = macro_accuracy(gzsl, tu_x, tu_y)
    ts_x, ts_y = dataset.test_seen
    s = macro_accuracy(gzsl, ts_x, ts_y)
    return EvalReport(czsl_acc=acc, gzsl_u=u, gzsl_s=s, gzsl_h=harmonic_mean(s, u))
