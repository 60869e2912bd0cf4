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
from .nets import (NORM_FLOOR, DenseNet, as_rows, leaky_relu_mask, load_checkpoint,
                   save_checkpoint, timestep_table)

# The generator file's kind tag, and the settings it records: with the
# dataset's widths they rebuild the network, its diffusion chain and its
# feature space.
GENERATOR_TAG = b"GNET"
GENERATOR_KEYS = ("hidden_mult", "temb_dim", "leaky_slope", "diffusion_steps", "beta_min",
                  "beta_max", "standardize", "dtype")


class Generator:
    """Predicts clean features from a noisy state and its timestep in 0..T
    (callers pass t + 1 for t = 0..T-1), embedded through a table of 0..T.
    Its network, its table and everything it computes are of config.dtype."""

    def __init__(self, feat_dim: int, sem_dim: int, config: Config, rng: np.random.Generator | None):
        self.feat_dim, self.sem_dim = int(feat_dim), int(sem_dim)
        self.dtype = np.dtype(config.dtype)
        self.temb = timestep_table(config.diffusion_steps + 1, config.temb_dim, self.dtype)
        self.net = DenseNet(self.layer_dims(feat_dim, sem_dim, config), rng, config.leaky_slope,
                            self.dtype)

    @staticmethod
    def layer_dims(feat_dim: int, sem_dim: int, config: Config) -> list[int]:
        hidden = config.hidden_mult * feat_dim
        return [feat_dim + sem_dim + feat_dim + config.temb_dim, hidden, hidden, feat_dim]

    def _inputs(self, eps, z, x_noisy, t) -> np.ndarray:
        eps, z, xn = (as_rows(a, self.dtype) for a in (eps, z, x_noisy))
        rows = eps.shape[0]
        if not (z.shape[0] == rows and xn.shape[0] == rows):
            raise UsageError("synthesize: batch sizes differ")
        t = diffusion.per_row(t, rows, len(self.temb) - 1, "synthesize")
        return np.concatenate([eps, z, xn, self.temb[t]], axis=1)

    def synthesize(self, eps, z, x_noisy, t) -> tuple[np.ndarray, list]:
        """Predict clean features from noise, prototype, noisy state, and the
        timestep index of that state. Row-wise: a batched call equals stacked
        single-row calls up to rounding, and is bitwise equal only to calls
        on batches of the same shape, since a BLAS product's row depends on
        the batch's row count.

        Returns the features and the cache for `self.net.pullback`, new
        arrays of the network's dtype, to which the inputs are converted.
        """
        return self.net.forward(self._inputs(eps, z, x_noisy, t))


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
        self.net = DenseNet(self.layer_dims(feat_dim, sem_dim, config), rng, config.leaky_slope,
                            config.dtype)

    @staticmethod
    def layer_dims(feat_dim: int, sem_dim: int, config: Config) -> list[int]:
        hidden = config.hidden_mult * feat_dim
        return [feat_dim + sem_dim, hidden, hidden, 1]


class CriticXt:
    """Scores denoising transitions (state_t, state_{t+1}, prototype, t),
    t = 0..T-1 embedded through a table of those rows."""

    def __init__(self, feat_dim: int, sem_dim: int, config: Config, rng: np.random.Generator):
        self.temb = timestep_table(config.diffusion_steps, config.temb_dim, config.dtype)
        self.net = DenseNet(self.layer_dims(feat_dim, sem_dim, config), rng, config.leaky_slope,
                            config.dtype)

    @staticmethod
    def layer_dims(feat_dim: int, sem_dim: int, config: Config) -> list[int]:
        hidden = config.hidden_mult * feat_dim
        return [feat_dim + feat_dim + sem_dim + config.temb_dim, hidden, hidden, 1]

    def condition(self, x_next, z, t) -> np.ndarray:
        """The fixed input columns that follow x_t: x_next, z, then the
        timestep embedding."""
        x_next, z = as_rows(x_next, self.temb.dtype), as_rows(z, self.temb.dtype)
        t = diffusion.per_row(t, x_next.shape[0], len(self.temb) - 1, "condition")
        return np.concatenate([x_next, z, self.temb[t]], axis=1)


# The critic pass below is one forward over the stacked rows [real; fake;
# x_hat] and one reverse pass, whose weight-gradient products each sum the
# real, fake and penalty rows at once. That orders its sums unlike the engine
# graph of the loss, so the tests check it not bit for bit but against a
# computed error bound: each entry lies within gamma_n times the sum of the
# absolute values of its terms of a reference whose every sum is exact
# (tests/bounds.py, after Higham 2002, ch. 3), for inputs that keep each
# leaky-relu pre-activation farther from its kink than that bound.


def _penalty_pass(net: DenseNet, inputs, masks, start: int, d: int, weight: float,
                  lhs) -> np.floating:
    """The gradient penalty mean((|d sum(net) / d x_hat| - 1)^2) at the rows
    `start:` of the forward cache `inputs` (the interpolates x_hat, whose
    first d columns are differentiated and the rest held fixed), set up for
    the critic's one reverse pass: the penalty of `weight` times it has, per
    layer l, the weight gradient gated_l.T @ ug_l, so gated_l is written into
    rows `start:` of lhs[l] and ug_l over rows `start:` of inputs[l]. The
    input gradient is the closed form ones @ W_L @ D_{L-1} @ ... @ D_1 @ W_1
    of the leaky-relu MLP, with the masks D held constant: `masks`, one per
    hidden layer over every row of the cache, built before these rows are
    overwritten. A critic has one output, so ones @ W_L is W_L in every row,
    and W_L is broadcast instead; its gated rows are ones. The first layer's
    products read only W_1's first d columns, the ones x_hat meets; ug_1 is
    zero in the others. Everything is of the network's dtype, the norm's
    floor too."""
    ws, floor = net.ws, NORM_FLOOR[net.flat.dtype]
    first = ws[0][:, :d]
    # g = W_L, each row of ones @ W_L, then g = (g * D_l) @ W_l down to the
    # first layer, of which only the x_hat columns are formed.
    g = ws[-1]
    lhs[-1][start:] = 1.0
    for i in range(len(ws) - 2, 0, -1):
        g = np.multiply(g, masks[i][start:], out=lhs[i][start:]) @ ws[i]
    gx = np.multiply(g, masks[0][start:], out=lhs[0][start:]) @ first
    rows = gx.shape[0]
    sq = np.add.reduce(gx * gx, axis=1)
    norms = np.sqrt(np.maximum(sq, floor))
    dev = norms - 1.0
    inv_b = 1.0 / rows
    value = (dev @ dev) * inv_b
    # d(weight * value) / d gx = 2 weight / B * dev / norm * gx, and 0 where
    # the norm is floored
    kappa = (2.0 * weight * inv_b) * dev / norms * (sq >= floor)
    ug = inputs[0][start:]
    ug[:, d:] = 0.0
    ugx = np.multiply(kappa[:, None], gx, out=ug[:, :d])
    ug = np.multiply(ugx @ first.T, masks[0][start:], out=inputs[1][start:])
    for i, w in enumerate(ws[1:-1], 1):
        ug = np.multiply(ug @ w.T, masks[i][start:], out=inputs[i + 1][start:])
    return value


def _critic_pass(net: DenseNet, real, fake, cond, lambda_gp: float, rng):
    """The critic loss -mean(net(real)) + mean(net(fake)) + lambda_gp *
    penalty, and its gradient laid out like net.flat.

    The penalty's uniform draw comes first; then one forward runs over the
    stacked rows [real; fake; x_hat], x_hat = u * real + (1 - u) * fake, all
    under the conditioning columns `cond`. Layer l's weight gradient is one
    product lhs_l.T @ rhs_l of 3B rows: lhs_l holds the output gradient of
    the real and fake rows (-1/B, +1/B at the output, pulled back through
    the masks) over the penalty's gated rows, and rhs_l holds those rows'
    layer inputs over the penalty's ug rows, written over the x_hat rows of
    the forward cache. The biases get the real and fake rows' sums alone.
    Each hidden layer's mask is built once, over all 3B rows, before the
    penalty overwrites its x_hat rows. Everything is of the network's dtype;
    u is drawn in float64 and narrowed to it."""
    rows, d = real.shape
    two = 2 * rows
    dtype = net.flat.dtype
    u = rng.uniform(size=(rows, 1)).astype(dtype, copy=False)
    x = np.empty((3 * rows, net.layer_dims[0]), dtype)
    x3 = x.reshape(3, rows, -1)
    x3[0, :, :d], x3[1, :, :d] = real, fake
    x3[2, :, :d] = u * real + (1.0 - u) * fake
    x3[:, :, d:] = cond
    scores, inputs = net.forward(x)
    masks = [leaky_relu_mask(h, net.slope) for h in inputs[1:]]
    lhs = [np.empty((3 * rows, width), dtype) for width in net.layer_dims[1:]]
    gp = _penalty_pass(net, inputs, masks, two, d, lambda_gp, lhs)
    inv_b = 1.0 / rows
    loss = (-(np.add.reduce(scores[:rows], axis=None) * inv_b)
            + np.add.reduce(scores[rows:two], axis=None) * inv_b) + gp * lambda_gp

    grad = np.empty(net.flat.size, dtype)
    views = net.views(grad)
    u_out = lhs[-1][:two]
    u_out[:rows], u_out[rows:] = -inv_b, inv_b
    for i in range(len(net.ws) - 1, -1, -1):
        np.matmul(lhs[i].T, inputs[i], out=views[2 * i])
        np.add.reduce(u_out, axis=0, out=views[2 * i + 1])
        if i > 0:
            w, below = net.ws[i], lhs[i - 1][:two]
            if u_out.shape[1] == 1:  # one term per entry: the broadcast product
                np.multiply(u_out, w, out=below)
            else:
                np.matmul(u_out, w, out=below)
            u_out = np.multiply(below, masks[i - 1][:two], out=below)
    return loss, grad


def _batches(what: str, net: DenseNet, x, x_other, cond):
    """Two batches of rows that `net` scores under the conditioning columns
    cond, all as matrices of the network's dtype; refused unless the batches
    share a shape and cond has their row count, at least one, and the width
    that completes theirs to the network's input."""
    dtype = net.flat.dtype
    x, x_other, cond = (as_rows(a, dtype) for a in (x, x_other, cond))
    rows, d = x.shape
    if not (x_other.shape == x.shape and cond.shape == (rows, net.layer_dims[0] - d)):
        raise UsageError(f"{what}: batch shapes disagree")
    if rows < 1:
        raise UsageError(f"{what}: empty batch")
    return x, x_other, cond


def critic_x0_loss(critic, real_x0, fake_x0, z, lambda_gp: float, rng):
    """Clean-feature critic loss; fakes are constants (no generator grad).

    Returns the loss as a numpy scalar and its gradient w.r.t. the critic's
    parameters, laid out like `critic.net.flat`, both of the network's
    dtype, to which the batches are converted.
    """
    batches = _batches("critic_x0_loss", critic.net, real_x0, fake_x0, z)
    return _critic_pass(critic.net, *batches, lambda_gp, rng)


def critic_xt_loss(critic, real_xt, fake_xt, cond, lambda_gp: float, rng):
    """Transition critic loss on (x_t, cond), cond being the rows'
    `critic.condition(x_next, z, t)`: critic_x0_loss's contract with cond
    in place of z. The trainer builds cond once per critic step and hands
    the same columns to `generator_adv_terms`."""
    batches = _batches("critic_xt_loss", critic.net, real_xt, fake_xt, cond)
    return _critic_pass(critic.net, *batches, lambda_gp, rng)


def generator_adv_terms(
    critic_x0: CriticX0,
    critic_xt: CriticXt,
    x0_tilde: np.ndarray,
    xt_tilde: np.ndarray,
    z: np.ndarray,
    cond: np.ndarray,
    c1: np.ndarray,
) -> tuple[np.floating, np.ndarray]:
    """Adversarial generator objective -mean(critic_x0) - mean(critic_xt) on
    rows the generator has already synthesized; nothing is drawn.

    x0_tilde is the generator's prediction from x_next at timestep t + 1,
    and xt_tilde its transition sample `diffusion.posterior_sample(x0_tilde,
    x_next, t, sched, rng)`. That sample is reparameterized (posterior mean
    + sigma * eps with eps fixed), so xt_tilde moves with x0_tilde by c1,
    the (B, 1) column `sched.c1[t]`, and gradient reaches the generator
    through both critics. cond is the rows' `critic_xt.condition(x_next, z,
    t)`, built, with its check of t, by the critic step. Returns the loss
    and its gradient w.r.t. x0_tilde (critic_x0's term, then c1 times
    critic_xt's); `gen.net.pullback(cache, gradient)`, with the cache of
    the forward that made x0_tilde, gives the generator's gradients.
    Everything is of the critics' dtype, which c1 must share."""
    x0_tilde, xt_tilde, cond = _batches("generator_adv_terms", critic_xt.net, x0_tilde,
                                        xt_tilde, cond)
    z = _batches("generator_adv_terms", critic_x0.net, x0_tilde, xt_tilde, z)[2]
    rows, d = x0_tilde.shape
    c1 = np.asarray(c1)
    if c1.shape != (rows, 1) or c1.dtype != x0_tilde.dtype:
        raise UsageError(f"generator_adv_terms: c1 of {c1.dtype} {c1.shape}, not a "
                         f"{x0_tilde.dtype} ({rows}, 1) column")
    s0, cache0 = critic_x0.net.forward(np.concatenate([x0_tilde, z], axis=1))
    st, cachet = critic_xt.net.forward(np.concatenate([xt_tilde, cond], axis=1))
    inv_b = 1.0 / rows
    loss = -(np.add.reduce(s0, axis=None) * inv_b) - np.add.reduce(st, axis=None) * inv_b
    g0 = critic_x0.net.pullback(cache0, np.full(s0.shape, -inv_b, s0.dtype), wrt_input=True)
    gt = critic_xt.net.pullback(cachet, np.full(st.shape, -inv_b, st.dtype), wrt_input=True)
    return loss, g0[:, :d] + gt[:, :d] * c1
