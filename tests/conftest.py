"""Shared fixtures: a hand-built miniature dataset and small-net helpers."""

from __future__ import annotations

import numpy as np
import pytest

from rlvc.data import ZslDataset
from rlvc.errors import ConfigurationError

import oracle


def tiny_dataset() -> ZslDataset:
    """Two seen classes, one unseen, d=3, d_z=2, six feature rows.

    Class means are far apart so heads trained on it reach perfect accuracy.
    """
    features = np.array(
        [
            [10.0, 0.0, 0.0],
            [10.5, 0.2, -0.1],  # class 0 train
            [0.0, 10.0, 0.0],
            [0.1, 10.4, 0.3],  # class 1 train
            [10.2, -0.3, 0.1],  # class 0 test_seen
            [-0.2, 0.1, 10.0],  # class 2 test_unseen
        ]
    )
    labels = np.array([0, 0, 1, 1, 0, 2])
    splits = np.array(
        ["train", "train", "train", "train", "test_seen", "test_unseen"],
        dtype=object,
    )
    prototypes = np.array([[1.0, 0.0], [0.0, 1.0], [0.7, 0.7]])
    roles = np.array(["seen", "seen", "unseen"], dtype=object)
    return ZslDataset(features, labels, splits, prototypes, roles)


@pytest.fixture
def tiny_ds() -> ZslDataset:
    return tiny_dataset()


def make_separable(n_per_class: int, d: int, n_classes: int, seed: int = 0):
    """Gaussian blobs at 8 * one-hot means; linearly separable by margin."""
    rng = np.random.default_rng(seed)
    feats, labels = [], []
    for c in range(n_classes):
        mean = np.zeros(d)
        mean[c % d] = 8.0 * (1 + c // d)
        feats.append(mean + rng.standard_normal((n_per_class, d)))
        labels.extend([c] * n_per_class)
    return np.concatenate(feats, axis=0), np.asarray(labels)


def max_fd_error(fn, params, step: float = 1e-5, floor: float = 1e-6) -> float:
    """Max relative error between analytic and central-difference gradients.

    fn() returns (value, gradients), the gradients in the order of `params`,
    the arrays it reads; it must be a pure function of their values (any
    randomness frozen outside). Every coordinate of every array is perturbed
    in place. A loss built as a graph returns
    `(loss.item(), engine.backward(loss, tensors))`.
    """
    _, analytic = fn()
    worst = 0.0
    for p, g in zip(params, analytic):
        flat = p.reshape(-1)
        gflat = np.reshape(g, -1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = float(fn()[0])
            flat[i] = orig - step
            lo = float(fn()[0])
            flat[i] = orig
            fd = (hi - lo) / (2.0 * step)
            a = float(gflat[i])
            worst = max(worst, abs(fd - a) / max(abs(fd), abs(a), floor))
    return worst


def set_params(net, arrays) -> None:
    """Copy per-layer arrays, in `oracle.params` order (per layer the weight,
    then the bias), into `net.flat`."""
    given = [np.shape(a) for a in arrays]
    expected = [p.shape for p in oracle.params(net)]
    if given != expected:
        raise ConfigurationError(f"parameter shapes {given} do not match the network's {expected}")
    for p, a in zip(oracle.params(net), arrays):
        p.data[...] = a
