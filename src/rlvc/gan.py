"""Diffusion-conditioned feature generator and its two WGAN-GP critics.

The generator consumes (noise, semantic prototype, noisy state, timestep
embedding) and predicts the clean feature vector. One critic scores clean
features against prototypes; the other scores denoising transitions
(state_t, state_{t+1}) so the chain itself is adversarially supervised.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import diffusion
from .config import Config, format_config, parse_value
from .errors import ConfigurationError, UsageError
from .nets import (GENERATOR_TAG, NORM_FLOOR, DenseNet, as_rows, leaky_relu_mask,
                   load_checkpoint, save_checkpoint, timestep_table)

# The settings a generator file records: with the dataset's widths they
# rebuild the network, its diffusion chain and its feature space.
GENERATOR_KEYS = ("hidden_mult", "temb_dim", "leaky_slope", "diffusion_steps", "beta_min",
                  "beta_max", "standardize")


class Generator:
    """Predicts clean features from a noisy state and its timestep in 0..T
    (callers pass t + 1 for t = 0..T-1), embedded through a table of 0..T."""

    def __init__(self, feat_dim: int, sem_dim: int, config: Config, rng: np.random.Generator | None):
        self.feat_dim, self.sem_dim = int(feat_dim), int(sem_dim)
        self.temb = timestep_table(config.diffusion_steps + 1, config.temb_dim)
        self.net = DenseNet(self.layer_dims(feat_dim, sem_dim, config), rng, config.leaky_slope)

    @staticmethod
    def layer_dims(feat_dim: int, sem_dim: int, config: Config) -> list[int]:
        hidden = config.hidden_mult * feat_dim
        return [feat_dim + sem_dim + feat_dim + config.temb_dim, hidden, hidden, feat_dim]

    def _inputs(self, eps, z, x_noisy, t, out: np.ndarray | None = None) -> np.ndarray:
        eps, z, xn = as_rows(eps), as_rows(z), as_rows(x_noisy)
        rows = eps.shape[0]
        if not (z.shape[0] == rows and xn.shape[0] == rows):
            raise UsageError("synthesize: batch sizes differ")
        t = diffusion.per_row(t, rows, len(self.temb) - 1, "synthesize")
        return np.concatenate([eps, z, xn, self.temb[t]], axis=1, out=out)

    def columns(self, inputs: np.ndarray) -> tuple[np.ndarray, ...]:
        """Views of the four column blocks of an input matrix, in the order
        `synthesize` writes them: noise, prototype, noisy state, timestep
        embedding."""
        d, e = self.feat_dim, self.feat_dim + self.sem_dim
        return inputs[:, :d], inputs[:, d:e], inputs[:, e : e + d], inputs[:, e + d :]

    def synthesize(self, eps, z, x_noisy, t, out: list[np.ndarray] | None = None
                   ) -> tuple[np.ndarray, list]:
        """Predict clean features from noise, prototype, noisy state, and the
        timestep index of that state. Row-wise: a batched call equals stacked
        single-row calls up to rounding, and is bitwise equal only to calls
        on batches of the same shape, since a BLAS product's row depends on
        the batch's row count.

        Returns the features and the cache for `self.net.pullback`. Every
        array is new, or, with `out`, one C-contiguous (rows, w) float64
        buffer of the caller's per width w of `self.net.layer_dims`: the
        input matrix, whose `columns` the four blocks are concatenated into,
        then each layer's output (see `DenseNet.forward`). A block passed as
        its own column view of that matrix is not copied (numpy skips a copy
        of an array onto itself), so a caller can keep the prototype and
        the state there.
        """
        if out is None:
            return self.net.forward(self._inputs(eps, z, x_noisy, t))
        return self.net.forward(self._inputs(eps, z, x_noisy, t, out[0]), out[1:])


def save_generator(path, gen: Generator, config: Config, epoch: int) -> None:
    """Write the generator file: a checkpoint of kind GENERATOR_TAG whose
    settings are `epoch`, the 0-indexed epoch the weights finished, and the
    config's GENERATOR_KEYS."""
    save_checkpoint(path, GENERATOR_TAG, gen.net.layer_dims, gen.net.flat,
                    f"epoch = {epoch}\n" + format_config(config, GENERATOR_KEYS))


def load_generator(path, feat_dim: int, sem_dim: int, config: Config
                   ) -> tuple[Generator, Config, int]:
    """Read a file written by `save_generator`: the generator, built without
    an rng draw, `config` with the file's GENERATOR_KEYS in, and the file's
    epoch. A file that records other settings, or whose layer dims the
    dataset's widths do not give, is refused."""
    dims, flat, settings = load_checkpoint(path, GENERATOR_TAG)
    epoch = settings.pop("epoch", "")
    if not epoch.isdecimal() or settings.keys() != set(GENERATOR_KEYS):
        raise ConfigurationError(f"generator checkpoint {path} records epoch {epoch!r} and "
                                 f"{sorted(settings)}, not an epoch index and {GENERATOR_KEYS}")
    config = dataclasses.replace(config, **{k: parse_value(k, v) for k, v in settings.items()})
    if dims != Generator.layer_dims(feat_dim, sem_dim, config):
        raise ConfigurationError(f"checkpoint layer dims {dims} do not match the generator's "
                                 f"{Generator.layer_dims(feat_dim, sem_dim, config)}")
    gen = Generator(feat_dim, sem_dim, config, None)  # no draw: flat is overwritten
    gen.net.flat[...] = flat
    return gen, config, int(epoch)


class CriticX0:
    """Scores (clean feature, prototype) pairs; scalar output per row."""

    def __init__(self, feat_dim: int, sem_dim: int, config: Config, rng: np.random.Generator):
        self.net = DenseNet(self.layer_dims(feat_dim, sem_dim, config), rng, config.leaky_slope)

    @staticmethod
    def layer_dims(feat_dim: int, sem_dim: int, config: Config) -> list[int]:
        hidden = config.hidden_mult * feat_dim
        return [feat_dim + sem_dim, hidden, hidden, 1]


class CriticXt:
    """Scores denoising transitions (state_t, state_{t+1}, prototype, t),
    t = 0..T-1 embedded through a table of those rows."""

    def __init__(self, feat_dim: int, sem_dim: int, config: Config, rng: np.random.Generator):
        self.temb = timestep_table(config.diffusion_steps, config.temb_dim)
        self.net = DenseNet(self.layer_dims(feat_dim, sem_dim, config), rng, config.leaky_slope)

    @staticmethod
    def layer_dims(feat_dim: int, sem_dim: int, config: Config) -> list[int]:
        hidden = config.hidden_mult * feat_dim
        return [feat_dim + feat_dim + sem_dim + config.temb_dim, hidden, hidden, 1]

    def condition(self, x_next, z, t) -> np.ndarray:
        """The fixed input columns that follow x_t: x_next, z, then the
        timestep embedding."""
        x_next, z = as_rows(x_next), as_rows(z)
        t = diffusion.per_row(t, x_next.shape[0], len(self.temb) - 1, "condition")
        return np.concatenate([x_next, z, self.temb[t]], axis=1)


def _as_batch(x, what: str) -> np.ndarray:
    data = as_rows(x)
    if data.shape[0] < 1:
        raise UsageError(f"{what}: empty batch")
    return data


# The passes below mirror, expression for expression and in the same order
# of accumulation (`seen + contribution`, in the reverse topological order
# engine.grad walks), the engine graph of each loss, so their results are
# bit-equal to engine.backward on it; the tests keep that graph as their
# oracle and compare with tobytes().


def _penalty_pass(net: DenseNet, real, fake, cond, rng, weight: float):
    """The gradient penalty mean((|d sum(net) / d x_hat| - 1)^2) at the
    interpolates x_hat of real and fake (the conditioning columns `cond` held
    fixed), and the gradients of `weight` times it w.r.t. the net's weights
    (one per layer; the biases get none). The input gradient is the closed
    form ones @ W_L @ D_{L-1} @ ... @ D_1 @ W_1 of the leaky-relu MLP, with
    the masks D held constant; each mask is built once, from its layer's
    cached activation. A critic has one output, so ones @ W_L is W_L in
    every row (a one-term sum is exact), and W_L is broadcast instead."""
    rows, d = real.shape
    u = rng.uniform(size=(rows, 1))
    x_hat = u * real + (1.0 - u) * fake
    _, inputs = net.forward(np.concatenate([x_hat, cond], axis=1))
    masks = [leaky_relu_mask(h, net.slope) for h in inputs[1:]]
    ws = [w.data for w in net.weights]
    # g = W_L, each row of ones @ W_L, then g = (g * D_l) @ W_l down to the
    # first layer.
    g = ws[-1]
    gated = []
    for w, mask in zip(reversed(ws[:-1]), reversed(masks)):
        gated.append(g * mask)
        g = gated[-1] @ w
    gx = g[:, :d]
    sq = np.sum(gx * gx, axis=1)
    norms = np.sqrt(np.maximum(sq, NORM_FLOOR))
    dev = norms - 1.0
    inv_b = 1.0 / rows
    value = np.sum(dev**2.0) * inv_b

    u_norms = (np.full(rows, weight * inv_b) * 2.0) * dev
    u_sq = ((u_norms * 0.5) / norms) * (sq >= NORM_FLOOR)
    u_gx = u_sq[:, None] * gx
    ug = np.zeros(g.shape)
    ug[:, :d] = u_gx + u_gx  # gx * gx has one vjp per operand
    grads = []
    for w, gm, mask in zip(ws[:-1], reversed(gated), masks):
        grads.append(gm.T @ ug)
        ug = (ug @ w.T) * mask
    grads.append(np.ones((rows, 1)).T @ ug)
    return value, grads


def _critic_pass(net: DenseNet, real, fake, cond, lambda_gp: float, rng):
    """The critic loss -mean(net(real)) + mean(net(fake)) + lambda_gp *
    penalty, and its gradient laid out like net.flat: per entry
    (real + fake) + penalty."""
    inv_b = 1.0 / real.shape[0]
    s_real, real_cache = net.forward(np.concatenate([real, cond], axis=1))
    s_fake, fake_cache = net.forward(np.concatenate([fake, cond], axis=1))
    gp, gp_grads = _penalty_pass(net, real, fake, cond, rng, lambda_gp)
    loss = (-(np.sum(s_real) * inv_b) + np.sum(s_fake) * inv_b) + gp * lambda_gp
    grad = net.pullback(real_cache, np.full(s_real.shape, -inv_b))
    grad += net.pullback(fake_cache, np.full(s_fake.shape, inv_b))
    for w, g in zip(net.views(grad)[0::2], gp_grads):
        w += g
    return loss, grad


def critic_x0_loss(critic, real_x0, fake_x0, z, lambda_gp: float, rng):
    """Clean-feature critic loss; fakes are constants (no generator grad).

    Returns the loss as an np.float64 and its gradient w.r.t. the critic's
    parameters, laid out like `critic.net.flat`.
    """
    real = _as_batch(real_x0, "critic_x0_loss real")
    fake = _as_batch(fake_x0, "critic_x0_loss fake")
    z = _as_batch(z, "critic_x0_loss z")
    if not (real.shape == fake.shape and real.shape[0] == z.shape[0]):
        raise UsageError("critic_x0_loss: batch shapes disagree")
    return _critic_pass(critic.net, real, fake, z, lambda_gp, rng)


def critic_xt_loss(critic, real_xt, fake_xt, x_next, z, t, lambda_gp: float, rng):
    """Transition critic loss on (x_t, x_next, z, t); same contract as
    critic_x0_loss."""
    real = _as_batch(real_xt, "critic_xt_loss real")
    fake = _as_batch(fake_xt, "critic_xt_loss fake")
    x_next = _as_batch(x_next, "critic_xt_loss x_next")
    z = _as_batch(z, "critic_xt_loss z")
    if not (real.shape == fake.shape == x_next.shape and real.shape[0] == z.shape[0]):
        raise UsageError("critic_xt_loss: batch shapes disagree")
    cond = critic.condition(x_next, z, t)
    return _critic_pass(critic.net, real, fake, cond, lambda_gp, rng)


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
) -> tuple[np.float64, np.ndarray, np.ndarray, list]:
    """Adversarial generator objective -mean(critic_x0) - mean(critic_xt).

    The transition sample is reparameterized (posterior mean + sigma * eps
    with eps fixed), so gradient reaches the generator through both critics.
    Returns the loss, the synthesized clean features (for composing
    distillation terms on the same batch), the loss's gradient w.r.t. them
    (critic_x0's term, then c1 times critic_xt's) and the generator's cache,
    so that `gen.net.pullback(cache, gradient)` gives the generator's
    gradients. `sched` must be the critic's schedule; its posterior tables
    are read at t once `critic_xt.condition` has checked it."""
    if sched.timesteps != len(critic_xt.temb):
        raise UsageError(f"generator_adv_terms: a schedule of {sched.timesteps} steps for a "
                         f"transition critic of {len(critic_xt.temb)}")
    z = _as_batch(z, "generator_adv_terms z")
    x_next = _as_batch(x_next, "generator_adv_terms x_next")
    t = np.asarray(t).reshape(-1)
    x0_tilde, cache = gen.synthesize(eps_gen, z, x_next, t + 1)
    cond = critic_xt.condition(x_next, z, t)
    c1 = sched.c1[t]
    xt_tilde = c1 * x0_tilde + (sched.c2[t] * x_next + sched.sigma[t] * eps_post)
    s0, cache0 = critic_x0.net.forward(np.concatenate([x0_tilde, z], axis=1))
    st, cachet = critic_xt.net.forward(np.concatenate([xt_tilde, cond], axis=1))
    inv_b = 1.0 / x0_tilde.shape[0]
    loss = -(np.sum(s0) * inv_b) - np.sum(st) * inv_b
    d = x0_tilde.shape[1]
    g0 = critic_x0.net.pullback(cache0, np.full(s0.shape, -inv_b), wrt_input=True)
    gt = critic_xt.net.pullback(cachet, np.full(st.shape, -inv_b), wrt_input=True)
    return loss, x0_tilde, g0[:, :d] + gt[:, :d] * c1, cache
