"""Prototype mining and the distillation loss."""

from __future__ import annotations

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlvc import cues
from rlvc.cues import mine_prototypes
from rlvc.errors import ConfigurationError, UsageError

from conftest import max_fd_error


def _loss(x, labels, protos, weight=1.0):
    """The cue loss's value and its gradient w.r.t. the rows x, against the
    rows of the prototype matrix `protos` at the labels."""
    v = np.asarray(protos, dtype=np.float64)[labels]
    value, contributions = cues.cue_loss(np.asarray(x, dtype=np.float64), v, weight)
    return value, [sum(contributions)]


def test_mine_single_sample_per_class():
    feats = np.array([[1.0, 2.0], [3.0, -1.0]])
    protos = mine_prototypes(feats, np.array([0, 1]), [0, 1])
    np.testing.assert_array_equal(protos, [[1.0, 2.0], [3.0, -1.0]])


def test_mine_midpoint():
    feats = np.array([[0.0, 0.0], [2.0, 4.0]])
    protos = mine_prototypes(feats, np.array([5, 5]), [5])
    np.testing.assert_array_equal(protos, [[1.0, 2.0]])


def test_mine_matches_bruteforce_accumulation():
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(100, 7))
    labels = rng.integers(0, 5, size=100)
    labels[:5] = np.arange(5)  # every class present
    protos = mine_prototypes(feats, labels, range(5))
    for c in range(5):
        acc = np.zeros(7)
        n = 0
        for x, y in zip(feats, labels):
            if y == c:
                acc += x
                n += 1
        np.testing.assert_allclose(protos[c], acc / n, atol=1e-12)


def test_mine_rejects_missing_class_and_zero_mean():
    feats = np.array([[1.0, 0.0]])
    with pytest.raises(ConfigurationError):
        mine_prototypes(feats, np.array([0]), [0, 1])
    zero = np.array([[1.0, -1.0], [-1.0, 1.0]])
    with pytest.raises(ConfigurationError):
        mine_prototypes(zero, np.array([0, 0]), [0])
    with pytest.raises(ConfigurationError):
        mine_prototypes(feats, np.array([0, 0]), [0])


def test_prototype_rows_follow_the_sorted_seen_ids():
    rng = np.random.default_rng(8)
    feats, labels = rng.normal(size=(40, 5)), np.repeat([7, 2, 9, 4], 10)
    protos = mine_prototypes(feats, labels, [9, 2, 7, 4])
    assert protos.shape == (4, 5)
    for row, c in enumerate([2, 4, 7, 9]):
        assert protos[row].tobytes() == feats[labels == c].mean(axis=0).tobytes()


def test_pd_loss_exact_endpoints():
    v = np.array([1.0, 2.0, -1.0])
    protos = v[None]
    aligned, _ = _loss([3.0 * v], [0], protos)
    anti, _ = _loss([-0.5 * v], [0], protos)
    ortho, _ = _loss([[2.0, -1.0, 0.0]], [0], protos)
    assert abs(aligned - 0.0) < 1e-12
    assert abs(anti - 2.0) < 1e-12
    assert abs(ortho - 1.0) < 1e-12


def test_pd_loss_scale_invariance():
    protos = np.array([[2.0, 1.0]])
    x = np.array([[0.3, -0.9]])
    base, _ = _loss(x, [0], protos)
    for c in (0.01, 7.0, 1234.5):
        assert abs(_loss(c * x, [0], protos)[0] - base) < 1e-12


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000))
def test_pd_loss_bounded(seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=3)
    if not np.any(v):
        v = np.array([1.0, 0.0, 0.0])
    protos = v[None]
    val, _ = _loss(rng.normal(size=(4, 3)), [0, 0, 0, 0], protos)
    assert 0.0 <= val <= 2.0


def test_pd_loss_zero_row_is_neutral_and_warned(caplog):
    protos = np.array([[1.0, 0.0]])
    with caplog.at_level(logging.WARNING, logger="rlvc.cues"):
        loss, (g,) = _loss([[0.0, 0.0], [1.0, 0.0]], [0, 0], protos)
    assert "zero norm" in caplog.text
    assert abs(loss - 0.5) < 1e-12  # mean of (1, 0)
    np.testing.assert_array_equal(g[0], [0.0, 0.0])  # masked row: no gradient


def test_pd_loss_shape_mismatch():
    protos = np.array([[1.0, 0.0]])
    with pytest.raises(UsageError):
        _loss(np.zeros((1, 3)), [0], protos)


def test_pd_loss_fd_gradient():
    protos = np.array([[1.0, -2.0, 0.5], [0.0, 1.0, 1.0]])
    x = np.random.default_rng(3).normal(size=(4, 3))
    assert max_fd_error(lambda: _loss(x, [0, 1, 0, 1], protos), [x]) < 1e-6


def test_generator_total_loss_gradient_linearity():
    # the generator's distillation gradient is lambda times the unit-weight one
    protos = np.array([[1.0, -1.0, 2.0]])
    x = np.random.default_rng(6).normal(size=(2, 3))
    lam = 7.0
    value, (g_lam,) = _loss(x, [0, 0], protos, lam)
    unit_value, (g_unit,) = _loss(x, [0, 0], protos)
    assert value == unit_value
    np.testing.assert_allclose(g_lam, lam * g_unit, atol=1e-12)
