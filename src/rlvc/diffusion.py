"""Linear-beta diffusion schedule over feature vectors.

Indexing convention: states are x_0 (clean) through x_T; betas[t] is the
noise rate of the step that produces x_t, so betas[1..T] are meaningful and
alpha_bar[0] == 1 exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, UsageError
from .nets import as_rows


class DiffusionSchedule:
    """The betas, alphas and alpha_bars of a schedule, and per-timestep
    coefficient tables computed from them once, at construction.

    Each table is a (rows, 1) column, so indexing it with a vector of
    timesteps gives the (B, 1) coefficients of a batch. Each entry is the
    expression the samplers would evaluate per call, so indexing a table
    gives the same bits:

    - for t = 0..T: `sqrt_abar[t]` = sqrt(abar_t) and `sqrt_one_minus_abar[t]`
      = sqrt(1 - abar_t), the marginal q(x_t | x_0);
    - for t = 0..T-1: `sqrt_alpha_next[t]` = sqrt(alpha_{t+1}) and
      `sqrt_beta_next[t]` = sqrt(beta_{t+1}), the step q(x_{t+1} | x_t);
    - for t = 0..T-1: `c1`, `c2`, `sigma2` and `sigma` = sqrt(sigma2), the
      posterior q(x_t | x_{t+1}, x_0) = N(c1 x_0 + c2 x_{t+1}, sigma2); at
      t = 0, c2 and sigma2 are exactly zero.
    """

    def __init__(self, timesteps: int, betas: np.ndarray):
        self.timesteps = int(timesteps)
        self.betas = betas  # shape (T+1,), betas[0] unused (0.0)
        self.alphas = 1.0 - betas
        self.alphas[0] = 1.0
        self.alpha_bars = np.cumprod(self.alphas)
        abar, abar_t, beta_next = self.alpha_bars, self.alpha_bars[:-1], betas[1:]
        denom = 1.0 - abar[1:]
        self.sqrt_abar = np.sqrt(abar)[:, None]
        self.sqrt_one_minus_abar = np.sqrt(1.0 - abar)[:, None]
        self.sqrt_alpha_next = np.sqrt(self.alphas[1:])[:, None]
        self.sqrt_beta_next = np.sqrt(beta_next)[:, None]
        self.c1 = (np.sqrt(abar_t) * beta_next / denom)[:, None]
        self.c2 = (self.sqrt_alpha_next[:, 0] * (1.0 - abar_t) / denom)[:, None]
        self.sigma2 = (beta_next * (1.0 - abar_t) / denom)[:, None]
        self.sigma = np.sqrt(self.sigma2)


def build_schedule(timesteps: int, beta_min: float, beta_max: float) -> DiffusionSchedule:
    if timesteps < 1:
        raise ConfigurationError(f"timesteps must be >= 1, got {timesteps}")
    if not (0.0 < beta_min <= beta_max < 1.0):
        raise ConfigurationError(
            f"betas must satisfy 0 < beta_min <= beta_max < 1, got [{beta_min}, {beta_max}]"
        )
    betas = np.zeros(timesteps + 1)
    betas[1:] = np.linspace(beta_min, beta_max, timesteps)
    return DiffusionSchedule(timesteps, betas)


def per_row(t, rows: int, hi: int, what: str) -> np.ndarray:
    """The one timestep check: integer timesteps in [0, hi] as a flat vector
    of one per row, a single timestep being repeated `rows` times. A vector
    that breaks both the range and the count is refused with both named."""
    t = np.asarray(t).reshape(-1)
    if t.dtype.kind not in "iu":
        raise UsageError(f"{what}: timesteps must be integers, got {t.dtype}")
    problems = []
    if t.size == 0 or t.min() < 0 or t.max() > hi:
        problems.append(f"timestep out of range [0, {hi}]")
    if t.size not in (1, rows):
        problems.append(f"{t.size} timesteps for {rows} rows")
    if problems:
        raise UsageError(f"{what}: " + "; ".join(problems))
    return np.full(rows, int(t[0])) if t.size == 1 else t


def forward_noise(
    x0: np.ndarray, t, sched: DiffusionSchedule, rng: np.random.Generator
) -> np.ndarray:
    """Draw x_t ~ q(x_t | x_0) = sqrt(abar_t) x0 + sqrt(1 - abar_t) eps."""
    x0 = as_rows(x0)
    t = per_row(t, x0.shape[0], sched.timesteps, "forward_noise")
    eps = rng.standard_normal(x0.shape)
    return sched.sqrt_abar[t] * x0 + sched.sqrt_one_minus_abar[t] * eps


def forward_transition(
    x_t: np.ndarray, t, sched: DiffusionSchedule, rng: np.random.Generator
) -> np.ndarray:
    """One forward chain step: x_{t+1} ~ q(x_{t+1} | x_t)."""
    x_t = as_rows(x_t)
    t = per_row(t, x_t.shape[0], sched.timesteps - 1, "forward_transition")
    eps = rng.standard_normal(x_t.shape)
    return sched.sqrt_alpha_next[t] * x_t + sched.sqrt_beta_next[t] * eps


def posterior_sample(
    x0_hat: np.ndarray,
    x_next: np.ndarray,
    t,
    sched: DiffusionSchedule,
    rng: np.random.Generator,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Draw x_t ~ q(x_t | x_{t+1}, x0_hat); deterministic where t = 0.

    x_t = (c1 * x0_hat + c2 * x_next) + sigma * eps, with eps drawn in
    `scratch` and x_t formed in `out`, each a new array unless the caller
    gives one of the states' shape: `out` may be x_next itself (not x0_hat),
    and `scratch` must be C-contiguous for the draw. The same draw and the
    same bits either way."""
    x0_hat = as_rows(x0_hat)
    x_next = as_rows(x_next)
    if x0_hat.shape != x_next.shape:
        raise UsageError("posterior_sample: state shapes differ")
    t = per_row(t, x0_hat.shape[0], sched.timesteps - 1, "posterior_sample")
    out = np.empty(x0_hat.shape) if out is None else out
    scratch = np.empty(x0_hat.shape) if scratch is None else scratch
    np.multiply(sched.c2[t], x_next, out)
    np.multiply(sched.c1[t], x0_hat, scratch)
    np.add(scratch, out, out)
    rng.standard_normal(out=scratch)
    np.multiply(sched.sigma[t], scratch, scratch)
    return np.add(out, scratch, out)
