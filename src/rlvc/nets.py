"""Dense networks, Adam, the linear softmax classifier and its training,
the sinusoidal timestep table, and binary checkpoints.

A network that takes a timestep builds its own `timestep_table` once, for
the timesteps it can see, and indexes it after `diffusion.per_row` checks.

A network's parameters are one flat float64 vector, and a checkpoint is a
network's layer dims, the settings it was made with and that vector:
`save_checkpoint` writes a header, the settings' `key = value` lines and the
vector's bytes, `load_checkpoint` gives all three back. Adam steps each vector
in place, block by block through a scratch pair shared by every optimizer;
its update is elementwise, so a block's entries get the bits a whole-vector
update would give them. At the evaluation heads' sizes (hundreds of entries)
a step costs about as much in numpy calls as in arithmetic, so it passes its
fixed scalars as 0-d float64 arrays built once, which numpy need not convert
on each call, and `out` positionally, and it checks each block's range with
one dot product b . b: a finite squared 2-norm bounds every entry, and only
a block whose square is not finite is scanned for its max and min (see
`AdamState`). `fit_linear_softmax` likewise works in
preallocated buffers: each minibatch gathers its rows into one and writes
its logits into another, and one flat index per epoch finds every row's
label cell. The reverse passes here (`DenseNet.pullback`,
`log_softmax_pullback` and the minibatch gradient of `fit_linear_softmax`)
are written by hand in plain numpy and return gradients laid out like that
vector. Each sums its products and reductions as the reverse pass of the
same expression in `engine` does, so it is bit-equal to engine.backward on
that graph. A network's engine `Tensor`s are views into its vector, kept for
the tests' engine oracle.

A hidden layer's leaky relu is `leaky_relu`, max(pre, slope * pre): no
data-dependent branch, where the mask form where(pre > 0, 1, slope) that
engine.leaky_relu takes mispredicts on about every other entry of fresh
activations. For a slope in [0, 1] the two give the same bits (see
`leaky_relu`). So `DenseNet.forward` caches only each layer's input, and a
reverse pass that needs a hidden layer's mask builds it from that layer's
cached activation with `leaky_relu_mask`; a forward-only caller, such as
evaluation's synthesis, builds none, and may hand `forward` buffers of its
own for the activations, which a chain of calls then reuses.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from typing import Sequence

import numpy as np

from .engine import Tensor
from .errors import ConfigurationError, NumericFailure, UsageError

CHECKPOINT_MAGIC = b"RLVC"
CHECKPOINT_VERSION = 2
GENERATOR_TAG = b"GNET"
REWARD_TAG = b"RWDM"

# The ufunc reductions that np.sum, ndarray.max and ndarray.min call, without
# those wrappers' per-call cost: the same results. np.vdot gives np.dot's bits
# on a flat float64 block but does not raise numpy's overflow warning.
_sum, _max, _min, _vdot = np.add.reduce, np.maximum.reduce, np.minimum.reduce, np.vdot


NORM_FLOOR = 1e-200  # under a norm's square root: keeps its subgradient finite at zero


def as_rows(x) -> np.ndarray:
    """x as a float64 matrix of rows, x itself if it is one already: a
    vector is one row, and more than two dimensions are refused."""
    if type(x) is np.ndarray and x.ndim == 2 and x.dtype == np.float64:
        return x
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.ndim > 2:
        raise UsageError(f"a batch is a vector or a matrix of rows, got shape {x.shape}")
    return x


def timestep_table(steps: int, dim: int) -> np.ndarray:
    """Sinusoidal embeddings of the timesteps 0..steps-1, shape (steps, dim):
    row t is sin(t f_i), cos(t f_i) at f_i = 10000^(-i / (dim // 2)) for
    i < dim // 2, zero-padded to dim columns; it depends only on t and dim."""
    t = np.arange(steps, dtype=np.float64)
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half, 1))
    args = t[:, None] * freqs[None, :]
    return np.concatenate([np.sin(args), np.cos(args), np.zeros((steps, dim - 2 * half))], axis=1)


def exact_slope(slope: float) -> bool:
    """Whether `leaky_relu` and `leaky_relu_mask` are exact at this slope:
    it lies in [0, 1] and is not -0.0, for which a SIMD maximum may return
    either zero of (+0.0, -0.0)."""
    return 0.0 <= slope <= 1.0 and math.copysign(1.0, slope) > 0.0


def leaky_relu(pre: np.ndarray, slope: float) -> np.ndarray:
    """max(pre, slope * pre), written over `pre`: two ufunc passes without a
    data-dependent branch.

    For an `exact_slope` this has the bits of the mask form
    pre * where(pre > 0, 1, slope) that engine.leaky_relu takes. Rounding is
    monotone, so slope * pre <= pre where pre > 0 and slope * pre >= pre
    where pre < 0; a zero gives a zero of its own sign, and a quiet NaN
    comes back with its payload (the `+= b` that makes `pre` never leaves a
    signalling one). The one exception is +inf at slope 0, which becomes NaN
    (0 * inf) where the mask form keeps +inf; a row holding it is non-finite
    from the next layer on either way."""
    return np.maximum(pre, pre * slope, out=pre)


def leaky_relu_mask(h: np.ndarray, slope: float) -> np.ndarray:
    """The derivative of `leaky_relu` at the pre-activation that gave h: 1
    where h > 0, else slope, formed as max(float(h > 0), slope) without a
    data-dependent branch. With an `exact_slope`, h > 0 exactly where
    pre > 0 (but for +inf at slope 0), and max(1, slope) = 1,
    max(0, slope) = slope, so this is where(pre > 0, 1, slope) bit for bit."""
    m = (h > 0.0).astype(np.float64)
    return np.maximum(m, slope, out=m)


def param_count(layer_dims: Sequence[int]) -> int:
    """Entries of the `flat` vector of a DenseNet over `layer_dims`."""
    return sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(layer_dims, layer_dims[1:]))


class DenseNet:
    """Multilayer affine network with leaky-relu hidden units, linear output.

    Weight of layer l has shape (layer_dims[l+1], layer_dims[l]); He init
    std sqrt(2/fan_in), zero biases. With rng None every parameter starts at
    zero and nothing is drawn, for a network whose vector is loaded next.

    The parameters live in one float64 vector, `flat`: per layer the weight
    row-major, then the bias, in `params` order, which is a checkpoint's
    payload.
    `weights` and `biases` are Tensors whose data are views into `flat`, for
    the engine graphs of the tests; nothing rebinds their data, so a write to
    `flat` and a write to a view are one.
    """

    def __init__(self, layer_dims: Sequence[int], rng: np.random.Generator | None, slope: float):
        if len(layer_dims) < 2 or any(d < 1 for d in layer_dims):
            raise ConfigurationError(f"bad layer dims {layer_dims}")
        if not exact_slope(slope):
            raise ConfigurationError(f"leaky slope must be in [0, 1] and not -0.0, got {slope!r}")
        self.layer_dims = [int(d) for d in layer_dims]
        self.slope = float(slope)
        pairs = list(zip(self.layer_dims[:-1], self.layer_dims[1:]))
        self._shapes = [s for fan_in, fan_out in pairs for s in ((fan_out, fan_in), (fan_out,))]
        ends = np.cumsum([int(np.prod(s)) for s in self._shapes])
        self._spans = list(zip([0, *ends[:-1]], ends))
        self.flat = np.zeros(ends[-1])
        views = self.views(self.flat)
        if rng is not None:
            for (fan_in, _), w in zip(pairs, views[0::2]):
                w[...] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=w.shape)
        self.weights = [Tensor(w, requires_grad=True) for w in views[0::2]]
        self.biases = [Tensor(b, requires_grad=True) for b in views[1::2]]

    @property
    def params(self) -> list[Tensor]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def views(self, vector: np.ndarray) -> list[np.ndarray]:
        """Per-parameter views, in `params` order, of a vector laid out like
        `flat`."""
        return [vector[a:b].reshape(s) for (a, b), s in zip(self._spans, self._shapes)]

    def forward(self, x: np.ndarray, out: Sequence[np.ndarray] | None = None
                ) -> tuple[np.ndarray, list[np.ndarray]]:
        """The output for a (batch, features) array, and the cache `pullback`
        reads: the input of every layer, so x and then each hidden layer's
        activation. Each hidden layer is h @ W.T + b through `leaky_relu`;
        no mask is built here, only by the reverse passes that read one.

        Each layer writes its result into a new array, or, with `out`, into
        the caller's buffer for it: one C-contiguous (batch, layer_dims[l])
        float64 array per layer l >= 1, which the output and the cache then
        are (and the next call with them overwrites). A product written into
        a buffer is the same BLAS call, so the same bits."""
        if x.ndim != 2:
            raise UsageError("forward expects a (batch, features) matrix")
        if x.shape[1] != self.layer_dims[0]:
            raise ConfigurationError(
                f"input width {x.shape[1]} != expected {self.layer_dims[0]}"
            )
        inputs = [x]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = np.matmul(inputs[-1], w.data.T, None if out is None else out[i])
            h += b.data
            if i == last:
                return h, inputs
            inputs.append(leaky_relu(h, self.slope))

    def pullback(self, cache, u: np.ndarray, wrt_input: bool = False) -> np.ndarray:
        """Reverse of `forward` for the output gradient u: the gradient w.r.t.
        the parameters, laid out like `flat`, or, with `wrt_input`, only the
        gradient w.r.t. the input rows. A weight gradient is u.T @ x, written
        row-major into its slice; engine.linear's reverse pass forms it as
        (x.T @ u).T, the same sums of the same products. Every other product
        and sum is laid out as in the reverse pass of engine.linear and
        engine.leaky_relu, so the result is bit-equal to engine.backward
        through the same layers; each hidden layer's mask comes from its
        cached activation by `leaky_relu_mask`. Where u has one column (a
        critic's output), u @ w has one term per entry and is formed as the
        broadcast u * w, the same single rounding."""
        inputs = cache
        grad = None if wrt_input else np.empty(self.flat.size)
        views = None if wrt_input else self.views(grad)
        for i in range(len(self.weights) - 1, -1, -1):
            w = self.weights[i].data
            if views is not None:
                np.matmul(u.T, inputs[i], out=views[2 * i])
                _sum(u, axis=0, out=views[2 * i + 1])
            if i > 0:
                u = u * w if u.shape[1] == 1 else u @ w
                u *= leaky_relu_mask(inputs[i], self.slope)
            elif wrt_input:
                return u @ w
        return grad


def log_softmax_cached(a: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Row-wise engine.log_softmax on a plain array, building no graph: the
    values, and the shifted exponentials with their row sums for
    `log_softmax_pullback`."""
    shifted = a - np.max(a, axis=1, keepdims=True)
    e = np.exp(shifted)
    s = np.sum(e, axis=1, keepdims=True)
    return shifted - np.log(s), (e, s)


def log_softmax_pullback(cache: tuple, u: np.ndarray) -> np.ndarray:
    """The input gradient of `log_softmax_cached` for the output gradient u,
    as engine.log_softmax's reverse pass sums it."""
    e, s = cache
    return u + (np.sum(-u, axis=1, keepdims=True) / s) * e


# Parameters and steps under this size cannot sum to a non-finite value.
_SAFE = 2.0**1022

# Adam sweeps each vector this many entries at a time, so that a block's
# operands stay in cache across the dozen ufunc calls of its update. A tail
# under ADAM_BLOCK // 8 entries joins the block before it rather than paying
# those calls for a few entries.
ADAM_BLOCK = 2**15

# The step and denominator of one block, shared by every AdamState and grown
# in place to the largest block stepped so far on first need.
_SCRATCH = [np.empty(0), np.empty(0)]


# A finite square norm b . b bounds every entry of a block: |b_i| <= ||b||_2,
# so each |b_i| is under 2**512. The computed b . b is at least the largest
# rounded square (a sum of nonnegative terms, however it is ordered or fused,
# never rounds under one of them), so its rounded root is at least
# max|b| * (1 - 2**-52) where that square is normal, and may be 0 where
# every square underflows (each |b_i| under 2**-511). _ROOT_SLACK and
# _ROOT_FLOOR cover the two.
_ROOT_SLACK, _ROOT_FLOOR = 1.0 + 2.0**-50, 2.0**-511


def _abs_bound(b: np.ndarray) -> float:
    """At least max|b| over the gradient block b, from its 2-norm: one dot
    product. Only a block whose square norm is not finite (an entry of about
    2**512 or more, an inf or a NaN) is scanned for its max and min, which
    raises NumericFailure if the block is not finite."""
    sq = float(_vdot(b, b))
    if sq < math.inf:
        return math.sqrt(sq) * _ROOT_SLACK + _ROOT_FLOOR
    hi, lo = float(_max(b, initial=0.0)), float(_min(b, initial=0.0))
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise NumericFailure("non-finite gradient; update rejected")
    return max(hi, -lo)


def _in_range(b: np.ndarray) -> bool:
    """Whether every entry of the parameter block b is under _SAFE in size:
    a finite square norm says so at once, and only a block without one is
    scanned for its max and min (a NaN fails both)."""
    return float(_vdot(b, b)) < math.inf or (
        -_SAFE < _min(b, initial=0.0) and _max(b, initial=0.0) < _SAFE)


def _as_gradient(g, p: np.ndarray) -> np.ndarray:
    """g as a float64 array of p's shape, by np.asarray; UsageError if its
    shape is not p's."""
    if np.shape(g) != p.shape:
        raise UsageError("gradients do not match the parameter vectors")
    return np.asarray(g, dtype=np.float64)


def _cuts(n: int) -> list[int]:
    """The block bounds of an n-entry vector: every ADAM_BLOCK entries, with a
    tail shorter than ADAM_BLOCK // 8 folded into the block before it."""
    cuts = [*range(0, n, ADAM_BLOCK), n]
    if len(cuts) > 2 and n - cuts[-2] < ADAM_BLOCK // 8:
        del cuts[-2]
    return cuts


def largest_block(n: int) -> int:
    """The most entries of an n-entry vector that Adam steps at once."""
    cuts = _cuts(n)
    return max((b - a for a, b in zip(cuts, cuts[1:])), default=0)


def _blocks(vectors: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Each vector cut at its `_cuts` into consecutive views."""
    views = []
    for x in vectors:
        cuts = _cuts(x.size)
        views += [x[a:b] for a, b in zip(cuts, cuts[1:])]
    return views


class AdamState:
    """Adam with bias correction over a fixed list of parameter vectors.

    Each parameter is a 1-D float64 vector, such as `DenseNet.flat`, that a
    step updates in place, and a step takes one gradient vector per
    parameter. The moments live in one flat vector each, and `m` and `v` are
    lists of per-parameter views of them. A step reads each gradient where
    it lies (a float64 ndarray as it is, anything else through
    np.asarray(g, float64)) and runs the update block by block through a
    shared scratch pair: for each block of a parameter (about ADAM_BLOCK entries; see
    `_cuts`), in-place ufuncs advance that block of m and v, form the step
    in one scratch buffer and its denominator in the other, and subtract the
    step from the parameter, element by element the same expression as
    p -= lr * (m / c1) / (sqrt(v / c2) + eps). Every operation is
    elementwise, so the bits do not depend on the block size. The scratch
    pair is one per process, not per optimizer: a step leaves nothing in it
    between calls and the package runs on one thread, so every AdamState can
    share it, and Adam holds two parameter-sized vectors (m and v), not four.

    A step is all or nothing: if it would leave a parameter non-finite, it
    raises NumericFailure and no parameter, moment or `t` moves. The step
    tracks a bound on max|m| by the same update as m, from a bound on max|g|;
    the denominator is at least eps, so no step entry exceeds
    4 * lr * bound / (c1 * eps) (the 4 covers rounding). While that and every
    parameter stay under 2**1022, the step runs in place. Both are checked
    block by block before any write, each block by one dot product b . b,
    its squared 2-norm: where that is finite it bounds every entry
    (max|b| <= ||b||_2, so every entry is under 2**512), which clears a
    parameter block and gives a gradient block's bound (see `_abs_bound`).
    Only a block whose square is not finite is scanned for its max and min:
    the scan raises NumericFailure on a non-finite gradient and sends a
    parameter near 2**1022 through the copies. Otherwise the same sweep runs
    on copies of the moments and the parameters, and only a finite result
    is committed. The bound decays with m, so the copies last only while m
    is near overflow.

    Once beta1**t falls below 2**-54, c1 = 1 - beta1**t rounds to exactly
    1.0 (t >= 54 at beta1 = 0.5), and m / c1 is m; the step then skips that
    division and forms m * lr, the same bits.
    """

    def __init__(
        self, params: Sequence[np.ndarray], lr: float, beta1: float, beta2: float, eps: float = 1e-8
    ):
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0 and eps > 0.0):
            raise ConfigurationError(
                f"Adam needs 0 <= beta < 1 and eps > 0, got {beta1}, {beta2}, {eps}"
            )
        self.params = list(params)
        if not all(isinstance(p, np.ndarray) and p.ndim == 1 and p.dtype == np.float64
                   for p in self.params):
            raise UsageError("Adam steps 1-D float64 parameter vectors")
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        # The update's fixed operands as 0-d float64 arrays: numpy converts a
        # Python float operand anew on every ufunc call, and these are the
        # same values, so the same bits.
        self._b1, self._b2, self._a1, self._a2, self._lr, self._eps = (
            np.array(c) for c in (self.beta1, self.beta2, 1.0 - self.beta1,
                                  1.0 - self.beta2, self.lr, self.eps)
        )
        self.t = 0
        self._m_bound = 0.0  # at least max|m|
        ends = np.cumsum([p.size for p in self.params], dtype=np.int64)
        self._spans = list(zip([0, *ends[:-1]], ends))
        size = sum(p.size for p in self.params)
        self._m, self._v = np.zeros(size), np.zeros(size)
        self._block = max((largest_block(p.size) for p in self.params), default=0)
        self.m, self.v = self._views(self._m), self._views(self._v)
        self._in_place = _blocks(self.m), _blocks(self.v), _blocks(self.params)
        self._whole = len(self._in_place[2]) == len(self.params)  # one block each
        self._one = self._whole and len(self.params) == 1

    def _views(self, flat: np.ndarray) -> list[np.ndarray]:
        return [flat[a:b] for a, b in self._spans]

    def _advance(self, t: int, c1: float, g_blocks, m_blocks, v_blocks, p_blocks) -> None:
        """Step t, whose first bias correction is c1, from the gradient's
        blocks: advance the moments' blocks in place and subtract the step
        from the parameters' blocks, which all line up."""
        b1, b2, a1, a2, lr, eps = self._b1, self._b2, self._a1, self._a2, self._lr, self._eps
        c2 = 1.0 - self.beta2**t
        if _SCRATCH[0].size < self._block:
            _SCRATCH[:] = np.empty(self._block), np.empty(self._block)
        s_all, d_all = _SCRATCH
        for gb, mb, vb, pb in zip(g_blocks, m_blocks, v_blocks, p_blocks):
            s, d = s_all[: gb.size], d_all[: gb.size]
            np.multiply(a1, gb, s)
            np.multiply(mb, b1, mb)
            np.add(mb, s, mb)
            np.square(gb, s)
            np.multiply(s, a2, s)
            np.multiply(vb, b2, vb)
            np.add(vb, s, vb)
            if c1 == 1.0:
                np.multiply(mb, lr, s)
            else:
                np.divide(mb, c1, s)
                np.multiply(s, lr, s)
            np.divide(vb, c2, d)
            np.sqrt(d, d)
            np.add(d, eps, d)
            np.divide(s, d, s)
            np.subtract(pb, s, pb)

    def step(self, grads: Sequence[np.ndarray]) -> None:
        """One update from one gradient vector per parameter vector."""
        if len(grads) != len(self.params):
            raise UsageError("gradients do not match the parameter vectors")
        arrays = [g if type(g) is np.ndarray and g.dtype == np.float64 and g.shape == p.shape
                  else _as_gradient(g, p) for g, p in zip(grads, self.params)]
        m_blocks, v_blocks, p_blocks = self._in_place
        if self._one:  # the heads', the generator's and the RL optimizers
            g_blocks, g_max, in_range = arrays, _abs_bound(arrays[0]), _in_range(p_blocks[0])
        else:
            g_blocks = arrays if self._whole else _blocks(arrays)
            g_max = max(map(_abs_bound, g_blocks), default=0.0)
            in_range = all(map(_in_range, p_blocks))
        t = self.t + 1
        c1 = 1.0 - self.beta1**t
        m_bound = self.beta1 * self._m_bound + (1.0 - self.beta1) * g_max
        if in_range and 4.0 * abs(self.lr) * m_bound / c1 / self.eps < _SAFE:
            self._advance(t, c1, g_blocks, m_blocks, v_blocks, p_blocks)
        else:
            m, v = self._m.copy(), self._v.copy()
            new = [p.copy() for p in self.params]
            m_blocks, v_blocks = _blocks(self._views(m)), _blocks(self._views(v))
            self._advance(t, c1, g_blocks, m_blocks, v_blocks, _blocks(new))
            if not all(np.isfinite(a).all() for a in new):
                raise NumericFailure("non-finite parameter after update; update rejected")
            self._m[...], self._v[...] = m, v
            for p, a in zip(self.params, new):
                p[...] = a
        self.t, self._m_bound = t, m_bound


def fit_linear_softmax(
    features: np.ndarray,
    rows: np.ndarray,
    n_classes: int,
    epochs: int,
    lr: float,
    batch_size: int,
    beta1: float,
    beta2: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Linear softmax classifier from zero weights: cross-entropy with Adam
    over shuffled minibatches. `rows` holds class indices 0..n_classes-1.
    Returns the (n_classes, d) weight and the (n_classes,) bias, views of one
    vector [w | b] that Adam steps.

    Each minibatch gradient is a hand-written reverse pass laid out as those
    of engine.linear and engine.log_softmax (the weight gradient gz.T @ x is
    written row-major, as in `DenseNet.pullback`), so the result is bit-equal
    to Adam on engine.backward of the graph
    -tmean(tsum(log_softmax(linear(x, w, b)) * onehot, 1)). Into log_softmax
    that graph sends u = -onehot / B, and u + (sum(-u) / s) * e is then
    (1/B / s) * e less 1/B at each row's label: a row sum of one nonzero
    term is exact, and -0.0 + y == y. So no one-hot matrix is built and the
    log-probs are never formed, which makes the step faster than one through
    `log_softmax_cached` and `log_softmax_pullback`.

    A step costs about as much in numpy calls as in arithmetic, so it makes
    few calls and allocates no array per minibatch; each minibatch's views of
    the preallocated buffers are built once, before the first epoch. Each
    minibatch gathers its rows of the float64 `features` into one buffer (the
    features are never copied whole: a permuted copy per epoch would hold as
    much memory again), and its logits go into another, where they become
    the output gradient in place. The row maxima are reduced over the outer
    axis of a transposed copy of the logits, the fast direction for a few
    classes: a max is exact in any order, and the sign of a zero max, which
    it may change, is erased by exp. The row sums keep the engine's
    inner-axis order. Each label cell is found by one flat index into the
    logits buffer, computed once per epoch for all its rows."""
    n, d = features.shape
    split = n_classes * d
    wb, grad = np.zeros(split + n_classes), np.empty(split + n_classes)
    w, b = wb[:split].reshape(n_classes, d), wb[split:]
    gw, gb = grad[:split].reshape(w.shape), grad[split:]
    opt = AdamState([wb], lr=lr, beta1=beta1, beta2=beta2)
    full = min(batch_size, n)
    x_all, z_all = np.empty((full, d)), np.empty((full, n_classes))
    zt_all, top_all, sums_all = np.empty((n_classes, full)), np.empty(full), np.empty((full, 1))
    z_flat, w_t, grads = z_all.reshape(-1), w.T, [grad]

    def views(r: int) -> tuple:
        """A minibatch of r rows works in the first r rows of the buffers
        (the first r columns of zt_all): its features, its logits, which
        become its output gradient in place, their transpose, a transposed
        copy, the row maxima as a vector and a column, the row sums; and
        1 / r as a 0-d array."""
        gz, top = z_all[:r], top_all[:r]
        return (x_all[:r], gz, gz.T, zt_all[:, :r], top, top[:, None], sums_all[:r],
                np.array(1.0 / r))

    whole = views(full) if n else None  # no rows, no minibatch and no 1 / 0
    batches = [(start, start + batch_size, *(whole if n - start >= full else views(n - start)))
               for start in range(0, n, batch_size)]
    slots = (np.arange(n) % batch_size) * n_classes
    for _ in range(epochs):
        order = rng.permutation(n)
        # labels[i]: where in z_flat the label of the epoch's i-th row lies
        labels = slots + rows[order]
        for start, stop, x, gz, gz_t, zt, top, top_col, sums, inv_b in batches:
            np.take(features, order[start:stop], 0, x, "clip")  # in range: no clipping
            np.matmul(x, w_t, gz)
            np.add(gz, b, gz)
            np.copyto(zt, gz_t)
            _max(zt, 0, None, top)
            np.subtract(gz, top_col, gz)
            np.exp(gz, gz)
            _sum(gz, 1, None, sums, True)
            np.divide(inv_b, sums, sums)
            np.multiply(gz, sums, gz)
            z_flat[labels[start:stop]] -= inv_b
            np.matmul(gz_t, x, gw)
            _sum(gz, 0, None, gb)
            opt.step(grads)
    return w, b


class SoftmaxClassifier:
    """A frozen linear softmax classifier: row i of `weight` and `bias`
    scores class `class_ids[i]` (sorted and distinct, by default
    0..n_classes-1) by x @ weight.T + bias. The three arrays are read-only
    copies; `label_rows` maps labels to rows. The reward model and both
    evaluation heads are of this type."""

    def __init__(self, weight, bias, class_ids=None):
        weight = np.array(weight, dtype=np.float64)
        bias = np.array(bias, dtype=np.float64)
        ids = np.arange(bias.size) if class_ids is None else np.array(class_ids, dtype=np.int64)
        if weight.ndim != 2 or bias.shape != (weight.shape[0],) or ids.shape != bias.shape:
            raise ConfigurationError(f"classifier shape mismatch: weight {weight.shape}, "
                                     f"bias {bias.shape}, class ids {ids.shape}")
        steps = np.diff(ids)
        if np.any(steps == 0):
            raise ConfigurationError("duplicate class ids in head")
        if np.any(steps < 0):
            raise ConfigurationError("class ids must be sorted")
        for a in (weight, bias, ids):
            a.setflags(write=False)
        self.weight, self.bias, self.class_ids = weight, bias, ids
        self.n_classes, self.feat_dim = weight.shape

    def logits(self, x) -> np.ndarray:
        return as_rows(x) @ self.weight.T + self.bias

    def predict(self, x) -> np.ndarray:
        """The class id of the largest logit of each row."""
        return self.class_ids[np.argmax(self.logits(x), axis=1)]


def label_rows(ids: np.ndarray, labels, message: str, error=ConfigurationError) -> np.ndarray:
    """Each label's row among the sorted, distinct `ids`. The first label
    that is not among them raises `error(message.format(label))`."""
    labels = np.asarray(labels)
    rows = np.searchsorted(ids, labels)
    top = len(ids) - 1
    unknown = ids[np.minimum(rows, top)] != labels if top >= 0 else np.full(rows.shape, True)
    if unknown.any():
        raise error(message.format(labels[unknown][0]))
    return rows


def save_checkpoint(path, tag: bytes, layer_dims: Sequence[int], flat: np.ndarray,
                    settings: str = "") -> None:
    """Write a network's layer dims, its settings and its parameter vector,
    laid out like `DenseNet.flat` over those dims.

    Little-endian binary: magic, u32 version, 4-byte kind tag, u32 layer
    dim count, u32 dims (the first fan_in, then each fan_out), u32 byte
    count of the settings, the settings as UTF-8 `key = value` lines, then
    the vector as raw f64 (per layer: weight row-major, then bias). Nothing
    is written unless the dims and the vector's size agree. The bytes go to
    `<path>.<pid>.tmp`, which is then renamed over `path`, so a write that
    fails part way leaves the file that was there before."""
    if len(tag) != 4:
        raise UsageError("kind tag must be 4 bytes")
    dims = [int(d) for d in layer_dims]
    flat = np.asarray(flat, dtype="<f8")
    if len(dims) < 2 or min(dims) < 1 or flat.shape != (param_count(dims),):
        raise UsageError(f"checkpoint vector of shape {flat.shape} does not fit layer dims {dims}")
    text = settings.encode("utf-8")
    header = struct.pack(f"<4sI4sI{len(dims)}II", CHECKPOINT_MAGIC, CHECKPOINT_VERSION, tag,
                         len(dims), *dims, len(text))
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(header + text)
            fh.write(flat.tobytes())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_checkpoint(path, expected_tag: bytes | None = None) -> tuple[list[int], np.ndarray, dict]:
    """Read a file written by `save_checkpoint`: its layer dims, its
    read-only float64 parameter vector and its settings, each line's value
    text by key. A given `expected_tag` must match the file's kind tag."""
    with open(path, "rb") as fh:
        blob = fh.read()
    off = 0

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(blob):
            raise ConfigurationError(f"truncated checkpoint {path}")
        out = blob[off : off + n]
        off += n
        return out

    if take(4) != CHECKPOINT_MAGIC:
        raise ConfigurationError(f"bad checkpoint magic in {path}")
    (version,) = struct.unpack("<I", take(4))
    if version != CHECKPOINT_VERSION:
        raise ConfigurationError(f"unsupported checkpoint version {version}")
    tag = take(4)
    if expected_tag is not None and tag != expected_tag:
        raise ConfigurationError(
            f"checkpoint kind {tag!r} != expected {expected_tag!r}"
        )
    (ndims,) = struct.unpack("<I", take(4))
    if ndims < 2 or ndims > 64:
        raise ConfigurationError("implausible layer count")
    dims = list(struct.unpack(f"<{ndims}I", take(4 * ndims)))
    (size,) = struct.unpack("<I", take(4))
    try:
        lines = take(size).decode("utf-8").splitlines()
    except UnicodeDecodeError:
        raise ConfigurationError(f"checkpoint {path}: settings are not UTF-8") from None
    settings = dict(kv for kv in (line.split(" = ", 1) for line in lines) if len(kv) == 2 and kv[0])
    if len(settings) != len(lines):
        raise ConfigurationError(f"{path}: settings are not one 'key = value' line per key")
    count = param_count(dims)
    if len(blob) - off < 8 * count:
        raise ConfigurationError(f"truncated checkpoint {path}")
    if len(blob) - off > 8 * count:
        raise ConfigurationError(f"trailing bytes in checkpoint {path}")
    return dims, np.frombuffer(blob, dtype="<f8", count=count, offset=off), settings


def save_reward(path, model: SoftmaxClassifier, settings: str = "") -> None:
    """Write the reward file: a checkpoint of kind REWARD_TAG with layer dims
    [feat_dim, n_classes], `settings`, and the vector [weight row-major |
    bias]. It holds no class ids; `load_reward` gives the model ids
    0..n_classes-1."""
    save_checkpoint(path, REWARD_TAG, [model.feat_dim, model.n_classes],
                    np.concatenate([model.weight.ravel(), model.bias]), settings)


def load_reward(path) -> tuple[SoftmaxClassifier, dict[str, str]]:
    """Read a file written by `save_reward`: the model and the file's
    settings. A checkpoint of another kind, with more than one layer, or with
    settings other than `standardize = true` or `false` alone, is refused."""
    dims, flat, settings = load_checkpoint(path, REWARD_TAG)
    if len(dims) != 2:
        raise ConfigurationError(f"reward checkpoint {path} is not one linear layer")
    if settings not in ({"standardize": "true"}, {"standardize": "false"}):
        raise ConfigurationError(f"reward checkpoint {path} records {settings}, "
                                 "not standardize = true or false")
    d, n_classes = dims
    model = SoftmaxClassifier(flat[: n_classes * d].reshape(n_classes, d), flat[n_classes * d :])
    return model, settings
