"""Diffusion-conditioned feature generator and its two WGAN-GP critics.

The generator consumes (noise, semantic prototype, noisy state, timestep
embedding) and predicts the clean feature vector. One critic scores clean
features against prototypes; the other scores denoising transitions
(state_t, state_{t+1}) so the chain itself is adversarially supervised.
"""

from __future__ import annotations

import numpy as np

from . import diffusion, engine
from .config import Config
from .engine import Tensor
from .errors import UsageError
from .nets import DenseNet, timestep_embedding

_NORM_FLOOR = 1e-200  # keeps the norm's subgradient finite at exactly zero


class Generator:
    def __init__(self, feat_dim: int, sem_dim: int, config: Config, rng: np.random.Generator):
        self.feat_dim = int(feat_dim)
        self.temb_dim = config.temb_dim
        hidden = config.hidden_mult * feat_dim
        in_dim = feat_dim + sem_dim + feat_dim + self.temb_dim
        self.net = DenseNet([in_dim, hidden, hidden, feat_dim], rng, config.leaky_slope)

    @property
    def params(self) -> list[Tensor]:
        return self.net.params

    def synthesize(self, eps, z, x_noisy, t) -> Tensor:
        """Predict clean features from noise, prototype, noisy state, and the
        timestep index of that state. Row-wise: batched calls equal stacked
        single-row calls."""
        eps = np.atleast_2d(np.asarray(eps, dtype=np.float64))
        z = np.atleast_2d(np.asarray(z, dtype=np.float64))
        xn = engine.as_batch(x_noisy)
        if xn.ndim != 2:
            xn = engine.reshape(xn, (1, xn.size))
        rows = eps.shape[0]
        if not (z.shape[0] == rows and xn.shape[0] == rows):
            raise UsageError("synthesize: batch sizes differ")
        temb = timestep_embedding(diffusion.per_row(t, rows), self.temb_dim)
        inp = engine.concat([Tensor(eps), Tensor(z), xn, Tensor(temb)], axis=1)
        return self.net.forward(inp)


class CriticX0:
    """Scores (clean feature, prototype) pairs; scalar output per row."""

    def __init__(self, feat_dim: int, sem_dim: int, config: Config, rng: np.random.Generator):
        hidden = config.hidden_mult * feat_dim
        self.net = DenseNet([feat_dim + sem_dim, hidden, hidden, 1], rng, config.leaky_slope)

    @property
    def params(self) -> list[Tensor]:
        return self.net.params

    def score(self, x, z) -> Tensor:
        x = engine.as_batch(x)
        z = engine.as_batch(z)
        return self.net.forward(engine.concat([x, z], axis=1))


class CriticXt:
    """Scores denoising transitions (state_t, state_{t+1}, prototype, t)."""

    def __init__(self, feat_dim: int, sem_dim: int, config: Config, rng: np.random.Generator):
        hidden = config.hidden_mult * feat_dim
        self.temb_dim = config.temb_dim
        in_dim = feat_dim + feat_dim + sem_dim + self.temb_dim
        self.net = DenseNet([in_dim, hidden, hidden, 1], rng, config.leaky_slope)

    @property
    def params(self) -> list[Tensor]:
        return self.net.params

    def condition(self, x_next, z, t) -> np.ndarray:
        """The fixed input columns that follow x_t: x_next, z, then the
        timestep embedding."""
        x_next = engine.as_batch(x_next).data
        z = engine.as_batch(z).data
        temb = timestep_embedding(diffusion.per_row(t, x_next.shape[0]), self.temb_dim)
        return np.concatenate([x_next, z, temb], axis=1)

    def score(self, x_t, cond: np.ndarray) -> Tensor:
        """Scores of x_t under the conditioning block built by `condition`."""
        return self.net.forward(engine.concat([engine.as_batch(x_t), Tensor(cond)], axis=1))


def gradient_norms(net: DenseNet, x_hat: np.ndarray, cond: np.ndarray) -> Tensor:
    """Per-row L2 norm of d sum(net) / d x_hat, as a graph node of the net's
    weights. The net's input is x_hat followed by the conditioning columns
    `cond`, which are held fixed."""
    inp = np.concatenate([x_hat, cond], axis=1)
    g = engine.slice_axis(net.input_grad(inp), 0, x_hat.shape[1])
    return engine.sqrt(engine.maximum_const(engine.tsum(g * g, axis=1), _NORM_FLOOR))


def _gradient_penalty(net: DenseNet, real, fake, cond, rng) -> Tensor:
    # Interpolation (and the norm) run over the discriminated argument only;
    # the conditioning stays fixed.
    u = rng.uniform(size=(real.shape[0], 1))
    norms = gradient_norms(net, u * real + (1.0 - u) * fake, cond)
    return engine.tmean((norms - 1.0) ** 2.0)


def _as_const_batch(x, what: str) -> np.ndarray:
    data = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
    data = np.atleast_2d(data)
    if data.shape[0] < 1:
        raise UsageError(f"{what}: empty batch")
    return data


def critic_x0_terms(critic: CriticX0, real_x0, fake_x0, z, lambda_gp: float, rng) -> Tensor:
    real = _as_const_batch(real_x0, "critic_x0_loss real")
    fake = _as_const_batch(fake_x0, "critic_x0_loss fake")
    z = _as_const_batch(z, "critic_x0_loss z")
    if not (real.shape == fake.shape and real.shape[0] == z.shape[0]):
        raise UsageError("critic_x0_loss: batch shapes disagree")
    wass = -engine.tmean(critic.score(real, z)) + engine.tmean(critic.score(fake, z))
    return wass + lambda_gp * _gradient_penalty(critic.net, real, fake, z, rng)


def critic_x0_loss(critic, real_x0, fake_x0, z, lambda_gp: float, rng):
    """Clean-feature critic loss; fakes are constants (no generator grad).

    Returns the scalar loss node and gradients w.r.t. the critic parameters.
    """
    loss = critic_x0_terms(critic, real_x0, fake_x0, z, lambda_gp, rng)
    return loss, engine.backward(loss, critic.params)


def critic_xt_terms(critic: CriticXt, real_xt, fake_xt, x_next, z, t, lambda_gp: float, rng) -> Tensor:
    real = _as_const_batch(real_xt, "critic_xt_loss real")
    fake = _as_const_batch(fake_xt, "critic_xt_loss fake")
    x_next = _as_const_batch(x_next, "critic_xt_loss x_next")
    z = _as_const_batch(z, "critic_xt_loss z")
    if not (real.shape == fake.shape == x_next.shape and real.shape[0] == z.shape[0]):
        raise UsageError("critic_xt_loss: batch shapes disagree")
    cond = critic.condition(x_next, z, t)
    wass = -engine.tmean(critic.score(real, cond)) + engine.tmean(critic.score(fake, cond))
    return wass + lambda_gp * _gradient_penalty(critic.net, real, fake, cond, rng)


def critic_xt_loss(critic, real_xt, fake_xt, x_next, z, t, lambda_gp: float, rng):
    """Transition critic loss; same contract as critic_x0_loss."""
    loss = critic_xt_terms(critic, real_xt, fake_xt, x_next, z, t, lambda_gp, rng)
    return loss, engine.backward(loss, critic.params)


def generator_adv_terms(
    gen: Generator,
    critic_x0: CriticX0,
    critic_xt: CriticXt,
    z: np.ndarray,
    x_next: np.ndarray,
    t: np.ndarray,
    sched: diffusion.DiffusionSchedule,
    eps_gen: np.ndarray,
    eps_post: np.ndarray,
) -> tuple[Tensor, Tensor]:
    """Adversarial generator objective as a graph node, plus the synthesized
    clean features (for composing distillation terms on the same batch).

    The transition sample is reparameterized (posterior mean + sigma * eps
    with eps fixed), so gradient reaches the generator through both critics.
    """
    z = _as_const_batch(z, "generator_adv_terms z")
    x_next = _as_const_batch(x_next, "generator_adv_terms x_next")
    t = np.asarray(t).reshape(-1)
    x0_tilde = gen.synthesize(eps_gen, z, x_next, t + 1)
    c1, c2, sigma2 = diffusion.posterior_coeffs(sched, t)
    xt_tilde = Tensor(c1) * x0_tilde + Tensor(c2 * x_next + np.sqrt(sigma2) * eps_post)
    loss = -engine.tmean(critic_x0.score(x0_tilde, z)) - engine.tmean(
        critic_xt.score(xt_tilde, critic_xt.condition(x_next, z, t))
    )
    return loss, x0_tilde
