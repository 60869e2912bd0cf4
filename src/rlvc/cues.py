"""Class-wise visual prototypes and the distillation loss built on them.

Prototypes are per-class means of real training features, mined once before
training starts into one matrix with a row per seen class. The distillation
loss takes a batch's rows of that matrix as a plain array and pulls each
synthesized feature toward its class prototype in cosine distance.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, UsageError
from .nets import NORM_FLOOR


def mine_prototypes(features: np.ndarray, labels: np.ndarray, seen_classes) -> np.ndarray:
    """Per-class means over real training features: the (S, d) matrix whose
    row i is the mean of seen class sorted(seen_classes)[i].

    Every seen class must contribute at least one sample, and no mean may be
    the zero vector (cosine distance to it is undefined).
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels).reshape(-1)
    if features.ndim != 2 or features.shape[0] != labels.shape[0]:
        raise ConfigurationError("mine_prototypes: features/labels mismatch")
    prototypes = []
    for c in sorted(int(c) for c in seen_classes):
        mask = labels == c
        if not mask.any():
            raise ConfigurationError(f"seen class {c} has no training samples")
        v = features[mask].mean(axis=0)
        if not np.any(v != 0.0):
            raise ConfigurationError(f"class {c} visual prototype is the zero vector")
        prototypes.append(v)
    return np.reshape(prototypes, (-1, features.shape[1]))


def cue_loss(x: np.ndarray, v: np.ndarray, weight: float):
    """The distillation loss of synthesized rows x against v, the prototype
    of each row's class (a row of `mine_prototypes` per row of x): the mean
    cosine distance, in [0, 2] and scale-invariant; a zero-norm row
    contributes the neutral 1 and no gradient, with a warning on the
    "rlvc.cues" logger (`logging` is imported only then). Returns the value
    and the contributions that engine.backward on `weight * cue_loss` adds
    into x's gradient, in the order it adds them, so summing them onto a
    running gradient in list order is bit-equal to the engine
    (tests/test_hand_passes.py). Everything is of x's dtype, which v must
    share, the norm's floor too."""
    if v.shape != x.shape or v.dtype != x.dtype:
        raise UsageError(f"cue loss: batch {x.dtype} {x.shape} vs prototypes {v.dtype} {v.shape}")
    floor = NORM_FLOOR[x.dtype]
    x_sq = np.add.reduce(x * x, axis=1)
    nonzero = x_sq > 0.0
    if not np.all(nonzero):
        import logging  # only here: a run that never warns never loads it

        logging.getLogger(__name__).warning(
            "pd_loss: %d synthesized row(s) have zero norm", int((~nonzero).sum())
        )
    x_norm = np.sqrt(np.maximum(x_sq, floor))
    v_norm = np.linalg.norm(v, axis=1)
    num = nonzero * np.add.reduce(x * v, axis=1)
    den = x_norm * v_norm
    inv_b = 1.0 / x.shape[0]
    value = np.add.reduce(1.0 - num / den, axis=None) * inv_b

    u_cos = -np.full(x.shape[0], weight * inv_b, x.dtype)
    u_num = (u_cos / den) * nonzero
    u_den = -((u_cos * num) / (den * den))
    u_sq = (((u_den * v_norm) * 0.5) / x_norm) * (x_sq >= floor)
    through_sq = u_sq[:, None] * x
    return value, [u_num[:, None] * v, through_sq, through_sq]
