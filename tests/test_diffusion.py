"""Schedule invariants, forward noising, and the posterior sampler."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlvc import diffusion
from rlvc.config import Config, resolve_config
from rlvc.errors import ConfigurationError, UsageError


def test_schedule_single_step():
    s = diffusion.build_schedule(1, 0.1, 0.1)
    np.testing.assert_allclose(s.alpha_bars, [1.0, 0.9])


def test_schedule_two_steps():
    s = diffusion.build_schedule(2, 0.1, 0.2)
    np.testing.assert_allclose(s.betas, [0.0, 0.1, 0.2])
    np.testing.assert_allclose(s.alpha_bars, [1.0, 0.9, 0.72])


@pytest.mark.parametrize(
    "args",
    [(0, 0.1, 0.2), (4, 0.0, 0.2), (4, 0.2, 0.1), (4, 0.1, 1.0), (4, -0.1, 0.5)],
)
def test_schedule_rejects_bad_ranges(args):
    with pytest.raises(ConfigurationError):
        diffusion.build_schedule(*args)


@settings(max_examples=60, deadline=None)
@given(
    timesteps=st.integers(1, 32),
    beta_min=st.floats(1e-4, 0.5),
    spread=st.floats(0.0, 0.49),
)
def test_schedule_invariants_property(timesteps, beta_min, spread):
    beta_max = min(beta_min + spread, 0.999)
    s = diffusion.build_schedule(timesteps, beta_min, beta_max)
    ab = s.alpha_bars
    assert ab[0] == 1.0
    assert np.all(np.diff(ab) < 0)  # strictly decreasing
    assert np.all((ab > 0) & (ab <= 1))
    for t in range(1, timesteps + 1):
        assert abs(s.alphas[t] * ab[t - 1] - ab[t]) < 1e-15


def test_forward_noise_t0_is_identity():
    s = diffusion.build_schedule(4, 0.1, 0.4)
    x0 = np.random.default_rng(0).normal(size=(3, 5))
    out = diffusion.forward_noise(x0, 0, s, np.random.default_rng(1))
    np.testing.assert_array_equal(out, x0)


def test_forward_noise_deterministic_per_seed():
    s = diffusion.build_schedule(4, 0.1, 0.4)
    x0 = np.ones((2, 3))
    a = diffusion.forward_noise(x0, 2, s, np.random.default_rng(9))
    b = diffusion.forward_noise(x0, 2, s, np.random.default_rng(9))
    np.testing.assert_array_equal(a, b)


def test_forward_noise_empirical_variance():
    s = diffusion.build_schedule(4, 0.1, 0.4)
    n = 100_000
    for t in range(1, 5):
        out = diffusion.forward_noise(
            np.zeros((n, 1)), t, s, np.random.default_rng(100 + t)
        )
        want = 1.0 - s.alpha_bars[t]
        assert abs(out.var() - want) / want < 0.02


def test_forward_noise_rejects_bad_t():
    s = diffusion.build_schedule(4, 0.1, 0.4)
    rng = np.random.default_rng(0)
    with pytest.raises(UsageError):
        diffusion.forward_noise(np.zeros((1, 2)), 5, s, rng)
    with pytest.raises(UsageError):
        diffusion.forward_noise(np.zeros((1, 2)), -1, s, rng)
    with pytest.raises(UsageError, match="forward_noise: timesteps must be integers"):
        diffusion.forward_noise(np.zeros((1, 2)), np.array([0.5]), s, rng)
    with pytest.raises(UsageError, match="forward_noise: timesteps must be integers"):
        diffusion.forward_noise(np.zeros((1, 2)), np.array([True]), s, rng)
    with pytest.raises(UsageError, match=r"forward_noise: timestep out of range \[0, 4\]"):
        diffusion.forward_noise(np.zeros((1, 2)), np.array([], dtype=np.int64), s, rng)
    with pytest.raises(UsageError, match=r"forward_transition: timestep out of range \[0, 3\]"):
        diffusion.forward_transition(np.zeros((1, 2)), 4, s, rng)
    with pytest.raises(UsageError, match="forward_transition: timesteps must be integers"):
        diffusion.forward_transition(np.zeros((1, 2)), np.array([False]), s, rng)
    with pytest.raises(UsageError, match="per_row: timesteps must be integers, got bool"):
        diffusion.per_row(np.array([True]), 1, 4, "per_row")
    with pytest.raises(UsageError, match="0 timesteps for 1 rows"):
        diffusion.posterior_sample(np.zeros((1, 2)), np.zeros((1, 2)), np.array([], dtype=np.int64), s, rng)
    with pytest.raises(UsageError, match="timesteps must be integers, got bool"):
        diffusion.posterior_sample(np.zeros((1, 2)), np.zeros((1, 2)), np.array([True]), s, rng)
    with pytest.raises(UsageError, match=r"posterior_sample: timestep out of range \[0, 3\]"):
        diffusion.posterior_sample(np.zeros((1, 2)), np.zeros((1, 2)), 4, s, rng)


def test_forward_transition_matches_marginal_distribution():
    # composing q(x_t | x0) with q(x_{t+1} | x_t) must equal q(x_{t+1} | x0):
    # mean sqrt(abar_{t+1}) x0, variance 1 - abar_{t+1}
    s = diffusion.build_schedule(4, 0.1, 0.4)
    n = 60_000
    x0 = np.full((n, 1), 2.0)
    rng = np.random.default_rng(42)
    for t in range(0, 4):
        x_t = diffusion.forward_noise(x0, t, s, rng)
        x_next = diffusion.forward_transition(x_t, t, s, rng)
        ab = s.alpha_bars[t + 1]
        assert abs(x_next.mean() - np.sqrt(ab) * 2.0) < 0.02
        assert abs(x_next.var() - (1.0 - ab)) / (1.0 - ab) < 0.03


def test_posterior_mean_identity_t8():
    s = diffusion.build_schedule(8, 0.05, 0.8)
    t = np.arange(8)
    lhs = s.c1[t, 0] + s.c2[t, 0] * np.sqrt(s.alpha_bars[t + 1])
    np.testing.assert_allclose(lhs, np.sqrt(s.alpha_bars[t]), atol=1e-10)


def test_posterior_t0_deterministic():
    s = diffusion.build_schedule(4, 0.1, 0.4)
    x0_hat = np.array([[1.0, -2.0]])
    x_next = np.array([[0.5, 0.5]])
    a = diffusion.posterior_sample(x0_hat, x_next, 0, s, np.random.default_rng(1))
    b = diffusion.posterior_sample(x0_hat, x_next, 0, s, np.random.default_rng(2))
    np.testing.assert_array_equal(a, b)
    assert s.sigma2[0, 0] == 0.0
    np.testing.assert_allclose(a, s.c1[0] * x0_hat + s.c2[0] * x_next, atol=1e-15)


def test_posterior_sample_empirical_variance():
    s = diffusion.build_schedule(4, 0.1, 0.4)
    n = 100_000
    zeros = np.zeros((n, 1))
    for t in (1, 2, 3):
        out = diffusion.posterior_sample(zeros, zeros, t, s, np.random.default_rng(t))
        want = float(s.sigma2[t, 0])
        assert abs(out.var() - want) / want < 0.02


def test_posterior_rejects_t_equal_T_and_shape_mismatch():
    s = diffusion.build_schedule(4, 0.1, 0.4)
    rng = np.random.default_rng(0)
    with pytest.raises(UsageError):
        diffusion.posterior_sample(np.zeros((1, 2)), np.zeros((1, 2)), 4, s, rng)
    with pytest.raises(UsageError):
        diffusion.posterior_sample(np.zeros((1, 2)), np.zeros((1, 3)), 0, s, rng)


def test_per_row_timesteps():
    s = diffusion.build_schedule(4, 0.1, 0.4)
    x0 = np.ones((3, 2))
    t = np.array([0, 1, 3])
    out = diffusion.forward_noise(x0, t, s, np.random.default_rng(0))
    np.testing.assert_array_equal(out[0], x0[0])  # the t=0 row stays clean
    assert out.shape == (3, 2)


def test_timestep_count_must_be_one_or_the_row_count():
    s = diffusion.build_schedule(4, 0.1, 0.4)
    rng = np.random.default_rng(0)
    np.testing.assert_array_equal(diffusion.per_row(2, 3, 4, "per_row"), [2, 2, 2])
    with pytest.raises(UsageError, match="2 timesteps for 3 rows"):
        diffusion.forward_noise(np.zeros((3, 2)), np.array([1, 2]), s, rng)
    with pytest.raises(UsageError, match="2 timesteps for 3 rows"):
        diffusion.posterior_sample(np.zeros((3, 2)), np.zeros((3, 2)), np.array([1, 2]), s, rng)
    # a vector that breaks both the range and the count is refused with both named
    both = r"^forward_noise: timestep out of range \[0, 4\]; 2 timesteps for 3 rows$"
    with pytest.raises(UsageError, match=both):
        diffusion.forward_noise(np.zeros((3, 2)), np.array([1, 9]), s, rng)


def test_each_sampler_checks_its_timesteps_once(monkeypatch):
    s = diffusion.build_schedule(4, 0.1, 0.4)
    rng = np.random.default_rng(0)
    x, t = np.zeros((3, 2)), np.array([0, 1, 3])
    checks = []
    check = diffusion.per_row

    def counting_check(*args, **kwargs):
        checks.append(args[-1])
        return check(*args, **kwargs)

    monkeypatch.setattr(diffusion, "per_row", counting_check)
    diffusion.forward_noise(x, t, s, rng)
    diffusion.forward_transition(x, t, s, rng)
    diffusion.posterior_sample(x, x, t, s, rng)
    assert checks == ["forward_noise", "forward_transition", "posterior_sample"]


def _per_call_columns(s: diffusion.DiffusionSchedule, t: int) -> dict:
    """The coefficients at timestep t as the samplers once computed them on
    every call, from a one-row index."""
    at = np.array([t])
    abar = s.alpha_bars[at][:, None]
    out = {"sqrt_abar": np.sqrt(abar), "sqrt_one_minus_abar": np.sqrt(1.0 - abar)}
    if t < s.timesteps:
        out["sqrt_alpha_next"] = np.sqrt(s.alphas[at + 1][:, None])
        out["sqrt_beta_next"] = np.sqrt(s.betas[at + 1][:, None])
        abar_t, abar_next = s.alpha_bars[at], s.alpha_bars[at + 1]
        beta_next, alpha_next = s.betas[at + 1], s.alphas[at + 1]
        denom = 1.0 - abar_next
        out["c1"] = (np.sqrt(abar_t) * beta_next / denom)[:, None]
        out["c2"] = (np.sqrt(alpha_next) * (1.0 - abar_t) / denom)[:, None]
        out["sigma2"] = (beta_next * (1.0 - abar_t) / denom)[:, None]
        out["sigma"] = np.sqrt(out["sigma2"])
    return out


@pytest.mark.parametrize(
    "cfg", [Config(), resolve_config("synthetic")], ids=["defaults", "synthetic"]
)
def test_tables_hold_the_per_call_formulas_bytes(cfg):
    s = cfg.schedule()
    rows = {"sqrt_abar": s.timesteps + 1, "sqrt_one_minus_abar": s.timesteps + 1}
    for name in ("sqrt_alpha_next", "sqrt_beta_next", "c1", "c2", "sigma2", "sigma"):
        rows[name] = s.timesteps
    for name, n in rows.items():
        assert getattr(s, name).shape == (n, 1), name
    for t in range(s.timesteps + 1):
        for name, want in _per_call_columns(s, t).items():
            got = getattr(s, name)[[t]]
            assert got.tobytes() == want.tobytes(), (name, t)
