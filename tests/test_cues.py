"""Prototype mining and the three distillation losses."""

from __future__ import annotations

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlvc import cues
from rlvc.config import Config
from rlvc.cues import VisualPrototypeTable, mine_prototypes
from rlvc.errors import ConfigurationError, UsageError

from conftest import max_fd_error


def _table(vectors: dict[int, list[float]]) -> VisualPrototypeTable:
    return VisualPrototypeTable({c: np.asarray(v, dtype=np.float64) for c, v in vectors.items()})


def _loss(variant, x, labels, table, weight=1.0):
    """The cue loss's value and its gradient w.r.t. the rows x."""
    value, contributions = cues.cue_loss(np.asarray(x, dtype=np.float64), labels, table, variant, weight)
    return value, [sum(contributions)]


def test_mine_single_sample_per_class():
    feats = np.array([[1.0, 2.0], [3.0, -1.0]])
    table = mine_prototypes(feats, np.array([0, 1]), [0, 1])
    np.testing.assert_array_equal(table.prototypes[0], [1.0, 2.0])
    np.testing.assert_array_equal(table.prototypes[1], [3.0, -1.0])


def test_mine_midpoint():
    feats = np.array([[0.0, 0.0], [2.0, 4.0]])
    table = mine_prototypes(feats, np.array([5, 5]), [5])
    np.testing.assert_array_equal(table.prototypes[5], [1.0, 2.0])


def test_mine_matches_bruteforce_accumulation():
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(100, 7))
    labels = rng.integers(0, 5, size=100)
    labels[:5] = np.arange(5)  # every class present
    table = mine_prototypes(feats, labels, range(5))
    for c in range(5):
        acc = np.zeros(7)
        n = 0
        for x, y in zip(feats, labels):
            if y == c:
                acc += x
                n += 1
        np.testing.assert_allclose(table.prototypes[c], acc / n, atol=1e-12)


def test_mine_rejects_missing_class_and_zero_mean():
    feats = np.array([[1.0, 0.0]])
    with pytest.raises(ConfigurationError):
        mine_prototypes(feats, np.array([0]), [0, 1])
    zero = np.array([[1.0, -1.0], [-1.0, 1.0]])
    with pytest.raises(ConfigurationError):
        mine_prototypes(zero, np.array([0, 0]), [0])
    with pytest.raises(ConfigurationError):
        mine_prototypes(feats, np.array([0, 0]), [0])


def test_lookup_stacks_and_rejects_unknown():
    table = _table({0: [1.0, 0.0], 3: [0.0, 2.0]})
    rows = table.lookup([3, 0, 3])
    np.testing.assert_array_equal(rows, [[0.0, 2.0], [1.0, 0.0], [0.0, 2.0]])
    with pytest.raises(UsageError):
        table.lookup([1])
    # a float or bool label is refused, not truncated to a class id
    for labels in ([0.5], [1.0], [True]):
        with pytest.raises(UsageError, match="class labels must be integers"):
            table.lookup(labels)


def test_lookup_rows_are_byte_equal_to_stacked_prototypes():
    rng = np.random.default_rng(8)
    table = mine_prototypes(rng.normal(size=(40, 5)), np.repeat([7, 2, 9, 4], 10), [2, 4, 7, 9])
    labels = rng.choice([2, 4, 7, 9], size=50)
    rows = table.lookup(labels)
    stacked = np.stack([table.prototypes[int(y)] for y in labels], axis=0)
    assert rows.shape == stacked.shape and rows.tobytes() == stacked.tobytes()
    # the error names the first unknown label: inside, below and above the ids
    for labels, first in (([2, 5, 11, 4], 5), ([4, 0, 5], 0), ([9, 11, 5], 11)):
        with pytest.raises(UsageError, match=f"class {first}$"):
            table.lookup(labels)


def test_pd_loss_exact_endpoints():
    v = np.array([1.0, 2.0, -1.0])
    table = _table({0: v.tolist()})
    aligned, _ = _loss("pd", [3.0 * v], [0], table)
    anti, _ = _loss("pd", [-0.5 * v], [0], table)
    ortho, _ = _loss("pd", [[2.0, -1.0, 0.0]], [0], table)
    assert abs(aligned - 0.0) < 1e-12
    assert abs(anti - 2.0) < 1e-12
    assert abs(ortho - 1.0) < 1e-12


def test_pd_loss_scale_invariance():
    table = _table({0: [2.0, 1.0]})
    x = np.array([[0.3, -0.9]])
    base, _ = _loss("pd", x, [0], table)
    for c in (0.01, 7.0, 1234.5):
        assert abs(_loss("pd", c * x, [0], table)[0] - base) < 1e-12


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000))
def test_pd_loss_bounded(seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=3)
    if not np.any(v):
        v = np.array([1.0, 0.0, 0.0])
    table = _table({0: v.tolist()})
    val, _ = _loss("pd", rng.normal(size=(4, 3)), [0, 0, 0, 0], table)
    assert 0.0 <= val <= 2.0


def test_pd_loss_zero_row_is_neutral_and_warned(caplog):
    table = _table({0: [1.0, 0.0]})
    with caplog.at_level(logging.WARNING, logger="rlvc.cues"):
        loss, (g,) = _loss("pd", [[0.0, 0.0], [1.0, 0.0]], [0, 0], table)
    assert "zero norm" in caplog.text
    assert abs(loss - 0.5) < 1e-12  # mean of (1, 0)
    np.testing.assert_array_equal(g[0], [0.0, 0.0])  # masked row: no gradient


def test_pd_loss_shape_mismatch():
    table = _table({0: [1.0, 0.0]})
    with pytest.raises(UsageError):
        _loss("pd", np.zeros((1, 3)), [0], table)


def test_pd_loss_fd_gradient():
    table = _table({0: [1.0, -2.0, 0.5], 1: [0.0, 1.0, 1.0]})
    x = np.random.default_rng(3).normal(size=(4, 3))
    assert max_fd_error(lambda: _loss("pd", x, [0, 1, 0, 1], table), [x]) < 1e-6


def test_kl_loss_zero_at_equality_and_nonnegative():
    table = _table({0: [0.5, -1.0, 2.0]})
    same, _ = _loss("kl", [[0.5, -1.0, 2.0]], [0], table)
    assert abs(same) < 1e-12
    rng = np.random.default_rng(4)
    for _ in range(25):
        x = rng.normal(size=(2, 3))
        assert _loss("kl", x, [0, 0], table)[0] >= -1e-15


def test_kl_loss_hand_case():
    table = _table({0: [1.0, 0.0]})
    val, _ = _loss("kl", [[0.0, 1.0]], [0], table)
    p = np.exp([1.0, 0.0]) / np.exp([1.0, 0.0]).sum()
    want = (p[0] - p[1]) * np.log(p[0] / p[1])
    assert abs(val - want) < 1e-12
    assert abs(val - 0.46212) < 1e-4


def test_kl_loss_fd_gradient():
    table = _table({0: [1.0, -2.0, 0.5]})
    x = np.random.default_rng(5).normal(size=(3, 3))
    assert max_fd_error(lambda: _loss("kl", x, [0, 0, 0], table), [x]) < 1e-6


def test_l1_loss_cases():
    table = _table({0: [1.0, -3.0]})
    assert _loss("l1", [[1.0, -3.0]], [0], table)[0] == 0.0
    assert _loss("l1", [[0.0, 0.0]], [0], table)[0] == 2.0
    # symmetry: swapping roles of x and v gives the same value
    table_sw = _table({0: [0.2, 0.9]})
    a, _ = _loss("l1", [[1.0, -3.0]], [0], table_sw)
    table_rev = _table({0: [1.0, -3.0]})
    b, _ = _loss("l1", [[0.2, 0.9]], [0], table_rev)
    assert a == b


def test_dispatcher_and_config_validation():
    table = _table({0: [1.0, 0.0]})
    x = np.array([[1.0, 0.0]])
    for variant in cues.CUE_VARIANTS:
        assert np.isfinite(_loss(variant, x, [0], table)[0])
    with pytest.raises(ConfigurationError):
        _loss("huber", x, [0], table)
    with pytest.raises(ConfigurationError):
        Config(cue_loss="huber")
    with pytest.raises(ConfigurationError):
        Config(lambda_pd=-1.0)


def test_generator_total_loss_gradient_linearity():
    # the generator's distillation gradient is lambda times the unit-weight one
    table = _table({0: [1.0, -1.0, 2.0]})
    x = np.random.default_rng(6).normal(size=(2, 3))
    lam = 7.0
    for variant in cues.CUE_VARIANTS:
        value, (g_lam,) = _loss(variant, x, [0, 0], table, lam)
        unit_value, (g_unit,) = _loss(variant, x, [0, 0], table)
        assert value == unit_value
        np.testing.assert_allclose(g_lam, lam * g_unit, atol=1e-12)
