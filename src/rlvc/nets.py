"""Dense networks, Adam, the linear softmax classifier and its training,
the sinusoidal timestep table, and binary checkpoints.

A network that takes a timestep builds its own `timestep_table` once, for
the timesteps it can see, and indexes it after `diffusion.per_row` checks.

A network's parameters are one flat vector of its dtype (float64, or float32
where a run's `dtype` says so; see `DenseNet`), and a checkpoint is a
network's layer dims, the settings it was made with and that vector, always
written as float64: `save_checkpoint` writes a header, the settings' `key =
value` lines and the vector's bytes, `load_checkpoint` gives all three back.
A float32 vector widens to float64 exactly and narrows back exactly. Adam
steps each vector in place, block by block through a scratch pair per dtype
shared by every optimizer; its update is elementwise, so a block's entries
get the bits a whole-vector update would give them. It takes the efficient
form of the step (see `AdamState`), which rounds unlike the textbook form,
so the tests hold it to the textbook form within a computed error bound, not
bit for bit. At the evaluation heads' sizes (hundreds of entries) a step
costs about as much in numpy calls as in arithmetic, so it passes its fixed
scalars as 0-d arrays of the parameters' dtype, which numpy need not convert
on each call, and `out` positionally,
and it checks each block's range with one dot product b . b: a finite
squared 2-norm bounds every entry, and only a block whose square is not
finite is scanned for its max and min (see `AdamState`). `fit_linear_softmax` likewise works in
preallocated buffers: each minibatch gathers its rows into one and writes
its logits into another, and one flat index per epoch finds every row's
label cell. The reverse passes here (`DenseNet.pullback` and the minibatch
gradient of `fit_linear_softmax`) are written by hand in plain numpy and
return gradients laid out like that vector. Each sums its products and
reductions as the reverse pass of the same expression in `engine` does, so
it is bit-equal to engine.backward on that graph (the critics' pass, which
stacks its rows, is held to a bound instead: see gan.py). A float64
network's engine `Tensor`s are views into its vector, kept for the tests'
engine oracle; a float32 network has none.

A hidden layer's leaky relu is `leaky_relu`, max(pre, slope * pre): no
data-dependent branch, where the mask form where(pre > 0, 1, slope) that
engine.leaky_relu takes mispredicts on about every other entry of fresh
activations. For a slope in [0, 1] the two give the same bits (see
`leaky_relu`). So `DenseNet.forward` caches only each layer's input, and a
reverse pass that needs a hidden layer's mask builds it from that layer's
cached activation with `leaky_relu_mask`; a forward-only caller, such as
evaluation's reverse chain, builds none. `forward` allocates each layer's
result afresh, so a cache stays valid after the next call.
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

# The ufunc reductions that np.sum, ndarray.max and ndarray.min call, without
# those wrappers' per-call cost: the same results. np.vdot gives np.dot's bits
# on a flat block of either dtype but does not raise numpy's overflow warning.
_sum, _max, _min, _vdot = np.add.reduce, np.maximum.reduce, np.minimum.reduce, np.vdot


# The dtypes a network computes in; a run's Config `dtype` names one.
FLOAT64, FLOAT32 = np.dtype(np.float64), np.dtype(np.float32)

# Under a norm's square root, per dtype: keeps its subgradient finite at zero.
# Each is a normal number of its dtype whose root's reciprocal is finite.
NORM_FLOOR = {FLOAT64: 1e-200, FLOAT32: 1e-30}


def as_rows(x, dtype=FLOAT64) -> np.ndarray:
    """x as a matrix of rows of `dtype`, x itself if it is one already: a
    vector is one row, and more than two dimensions are refused."""
    if type(x) is np.ndarray and x.ndim == 2 and x.dtype == dtype:
        return x
    x = np.atleast_2d(np.asarray(x, dtype=dtype))
    if x.ndim > 2:
        raise UsageError(f"a batch is a vector or a matrix of rows, got shape {x.shape}")
    return x


def timestep_table(steps: int, dim: int, dtype=FLOAT64) -> np.ndarray:
    """Sinusoidal embeddings of the timesteps 0..steps-1, shape (steps, dim):
    row t is sin(t f_i), cos(t f_i) at f_i = 10000^(-i / (dim // 2)) for
    i < dim // 2, zero-padded to dim columns; it depends only on t and dim.
    Formed in float64, then narrowed to `dtype`."""
    t = np.arange(steps, dtype=np.float64)
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half, 1))
    args = t[:, None] * freqs[None, :]
    table = np.concatenate([np.sin(args), np.cos(args), np.zeros((steps, dim - 2 * half))], axis=1)
    return table.astype(dtype, copy=False)


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
    m = (h > 0.0).astype(h.dtype)
    return np.maximum(m, slope, out=m)


def param_count(layer_dims: Sequence[int]) -> int:
    """Entries of the `flat` vector of a DenseNet over `layer_dims`."""
    return sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(layer_dims, layer_dims[1:]))


def physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


class DenseNet:
    """Multilayer affine network with leaky-relu hidden units, linear output.

    Weight of layer l has shape (layer_dims[l+1], layer_dims[l]); He init
    std sqrt(2/fan_in), drawn in float64 and narrowed to the network's
    dtype, zero biases. With rng None every parameter starts at zero and
    nothing is drawn, for a network whose vector is loaded next.

    The parameters live in one vector of `dtype` (float64 or float32),
    `flat`: per layer the weight row-major, then the bias, which is a
    checkpoint's payload. `ws` and `bs` are the per-layer
    weight and bias views into `flat` that every pass reads.
    `weights` and `biases` are Tensors whose data are views into `flat`, for
    the engine graphs of the tests; nothing rebinds their data, so a write to
    `flat` and a write to a view are one. The engine computes in float64, so
    only a float64 network has them: a float32 network's would be float64
    copies that no write to `flat` reaches, and its `weights` and `biases`
    are None.
    """

    def __init__(self, layer_dims: Sequence[int], rng: np.random.Generator | None, slope: float,
                 dtype=FLOAT64):
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
        self.flat = np.zeros(ends[-1], dtype)
        views = self.views(self.flat)
        self.ws, self.bs = views[0::2], views[1::2]
        if rng is not None:
            for (fan_in, _), w in zip(pairs, self.ws):
                w[...] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=w.shape)
        wide = self.flat.dtype == FLOAT64
        self.weights = [Tensor(w, requires_grad=True) for w in self.ws] if wide else None
        self.biases = [Tensor(b, requires_grad=True) for b in self.bs] if wide else None

    def views(self, vector: np.ndarray) -> list[np.ndarray]:
        """Per-parameter views, per layer the weight then the bias, of a
        vector laid out like `flat`."""
        return [vector[a:b].reshape(s) for (a, b), s in zip(self._spans, self._shapes)]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """The output for a (batch, features) array, and the cache `pullback`
        reads: the input of every layer, so x and then each hidden layer's
        activation. Each hidden layer is h @ W.T + b through `leaky_relu`;
        no mask is built here, only by the reverse passes that read one.
        x and every layer's result, each a new array, are of the network's
        dtype."""
        if x.ndim != 2:
            raise UsageError("forward expects a (batch, features) matrix")
        if x.shape[1] != self.layer_dims[0]:
            raise ConfigurationError(
                f"input width {x.shape[1]} != expected {self.layer_dims[0]}"
            )
        inputs = [x]
        last = len(self.ws) - 1
        for i, (w, b) in enumerate(zip(self.ws, self.bs)):
            h = inputs[-1] @ w.T
            h += b
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
        broadcast u * w, the same single rounding. u is of the network's
        dtype, and so is the result."""
        inputs = cache
        grad = None if wrt_input else np.empty(self.flat.size, self.flat.dtype)
        views = None if wrt_input else self.views(grad)
        for i in range(len(self.ws) - 1, -1, -1):
            w = self.ws[i]
            if views is not None:
                np.matmul(u.T, inputs[i], out=views[2 * i])
                _sum(u, axis=0, out=views[2 * i + 1])
            if i > 0:
                u = u * w if u.shape[1] == 1 else u @ w
                u *= leaky_relu_mask(inputs[i], self.slope)
            elif wrt_input:
                return u @ w
        return grad


# Per dtype: parameters and steps under this size cannot sum to a
# non-finite value.
_SAFE = {FLOAT64: 2.0**1022, FLOAT32: 2.0**126}

# Adam sweeps each vector this many entries at a time, so that a block's
# operands stay in cache across the dozen ufunc calls of its update. A tail
# under ADAM_BLOCK // 8 entries joins the block before it rather than paying
# those calls for a few entries.
ADAM_BLOCK = 2**15

# The step and denominator of one block, per dtype, shared by every AdamState
# of that dtype. Each pair is grown in place to the largest block stepped so
# far on first need; neither the dict nor a pair is ever rebound.
_SCRATCH = {FLOAT64: [np.empty(0), np.empty(0)],
            FLOAT32: [np.empty(0, FLOAT32), np.empty(0, FLOAT32)]}


# A finite square norm b . b bounds every entry of a block: |b_i| <= ||b||_2,
# so each |b_i| is under 2**512 in float64 (2**64 in float32). The computed
# b . b is at least the largest rounded square (a sum of nonnegative terms,
# however it is ordered or fused, never rounds under one of them), so its
# root, taken in float64, is at least max|b| * (1 - 2**-52) in float64 and
# max|b| * (1 - 2**-23) in float32 where that square is normal, and may be 0
# where every square underflows (each |b_i| under 2**-511 in float64, the
# root of its smallest normal; 2**-63 in float32). Per dtype, the slack and
# the floor of _ROOT cover the two.
_ROOT = {FLOAT64: (1.0 + 2.0**-50, 2.0**-511), FLOAT32: (1.0 + 2.0**-21, 2.0**-63)}


def _abs_bound(b: np.ndarray) -> float:
    """At least max|b| over the gradient block b, from its 2-norm: one dot
    product. Only a block whose square norm is not finite (in float64, an
    entry of about 2**512 or more, an inf or a NaN) is scanned for its max
    and min, which raises NumericFailure if the block is not finite."""
    sq = float(_vdot(b, b))
    if sq < math.inf:
        slack, floor = _ROOT[b.dtype]
        return math.sqrt(sq) * slack + floor
    hi, lo = float(_max(b, initial=0.0)), float(_min(b, initial=0.0))
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise NumericFailure("non-finite gradient; update rejected")
    return max(hi, -lo)


def _in_range(b: np.ndarray) -> bool:
    """Whether every entry of the parameter block b is under its dtype's
    _SAFE in size: a finite square norm says so at once, and only a block
    without one is scanned for its max and min (a NaN fails both)."""
    safe = _SAFE[b.dtype]
    return float(_vdot(b, b)) < math.inf or (
        -safe < _min(b, initial=0.0) and _max(b, initial=0.0) < safe)


def _as_gradient(g, p: np.ndarray) -> np.ndarray:
    """g as an array of p's shape and dtype, by np.asarray; UsageError if
    its shape is not p's."""
    if np.shape(g) != p.shape:
        raise UsageError("gradients do not match the parameter vectors")
    return np.asarray(g, dtype=p.dtype)


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

    Each parameter is a 1-D vector, such as `DenseNet.flat`, that a step
    updates in place, all of one `dtype`, float64 or float32, and a step
    takes one gradient vector per parameter. The moments live in one flat
    vector each, of that dtype, and `m` and `v` are lists of per-parameter
    views of them. A step reads each gradient where it lies (an ndarray of
    the dtype as it is, anything else through np.asarray(g, dtype)) and
    runs the update block by block through the dtype's shared scratch
    pair: for each block of a parameter (about ADAM_BLOCK entries; see
    `_cuts`), in-place ufuncs advance that block of m and v, form the step
    in one scratch buffer and its denominator in the other, and subtract the
    step from the parameter. The step is Kingma and Ba's (2015, section 2)
    efficient form of p -= lr * (m / c1) / (sqrt(v / c2) + eps),

        p -= alpha * m / (sqrt(v) + eps_hat),
        alpha = lr * sqrt(c2) / c1,  eps_hat = eps * sqrt(c2),

    with alpha and eps_hat formed once per step in float64 and narrowed to
    the dtype: the same step in exact arithmetic, two ufunc passes fewer
    per block, and other roundings. The tests check it against the textbook
    form within a computed error bound (tests/bounds.py), at the dtype's
    unit roundoff: each step entry within gamma_16 of its size, each
    subtraction within one rounding of its result; m and v keep their bits.
    Every operation is elementwise, so the bits do not depend on the block
    size. The scratch pair is one per dtype and process, not per optimizer:
    a step leaves nothing in it between calls and the package runs on one
    thread, so every AdamState of a dtype can share it, and Adam holds two
    parameter-sized vectors (m and v), not four.

    A step is all or nothing: if it would leave a parameter non-finite, it
    raises NumericFailure and no parameter, moment or `t` moves. The step
    tracks a bound M on max|m| by the same update as m, from a bound on
    max|g|. The denominator is at least eps_hat, so a step entry is at most
    alpha * M / eps_hat = lr * M / (c1 * eps): sqrt(c2) cancels, and the
    bound is the textbook form's. The computed entry exceeds it by a few
    roundings at most, so no entry exceeds 4 * lr * M / (c1 * eps). While
    that, alpha and every parameter stay under the dtype's `_SAFE` (2**1022
    in float64, 2**126 in float32), the step runs in place. The parameters
    and M are checked block by block before any write, each block by one
    dot product b . b, its squared 2-norm: where that is finite it bounds
    every entry (max|b| <= ||b||_2), which clears a parameter block and
    gives a gradient block's bound (see `_abs_bound`). Only a block whose
    square is not finite is scanned for its max and min: the scan raises
    NumericFailure on a non-finite gradient and sends a parameter near
    `_SAFE` through the copies. Otherwise the same sweep runs on copies of
    the moments and the parameters, and only a finite result is committed.
    The bound decays with m, so the copies last only while m is near
    overflow. eps_hat must not underflow to zero, where an entry with
    m = v = 0 would step by 0 / 0, so the constructor refuses an
    eps * sqrt(1 - beta2) that is zero in the dtype (sqrt(c2) is never
    below sqrt(1 - beta2)).
    """

    def __init__(
        self, params: Sequence[np.ndarray], lr: float, beta1: float, beta2: float, eps: float = 1e-8
    ):
        self.params = list(params)
        dtypes = {p.dtype for p in self.params if isinstance(p, np.ndarray) and p.ndim == 1}
        if len(dtypes) > 1 or not dtypes <= _SAFE.keys() or not all(
                isinstance(p, np.ndarray) and p.ndim == 1 for p in self.params):
            raise UsageError("Adam steps 1-D float64 or float32 parameter vectors of one dtype")
        self.dtype = dtypes.pop() if dtypes else FLOAT64
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0
                and self.dtype.type(eps * math.sqrt(1.0 - beta2)) > 0.0):
            raise ConfigurationError(f"Adam needs 0 <= beta < 1 and eps * sqrt(1 - beta2) > 0 "
                                     f"in {self.dtype}, got {beta1}, {beta2}, {eps}")
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self._safe = _SAFE[self.dtype]
        # The update's fixed operands as 0-d arrays of the dtype: numpy
        # converts a Python float operand anew on every ufunc call, and these
        # are the same values, so the same bits.
        self._b1, self._b2, self._a1, self._a2 = (
            np.array(c, self.dtype)
            for c in (self.beta1, self.beta2, 1.0 - self.beta1, 1.0 - self.beta2)
        )
        self.t = 0
        self._m_bound = 0.0  # at least max|m|
        ends = np.cumsum([p.size for p in self.params], dtype=np.int64)
        self._spans = list(zip([0, *ends[:-1]], ends))
        size = sum(p.size for p in self.params)
        self._m, self._v = np.zeros(size, self.dtype), np.zeros(size, self.dtype)
        self._block = max((largest_block(p.size) for p in self.params), default=0)
        self.m, self.v = self._views(self._m), self._views(self._v)
        self._in_place = _blocks(self.m), _blocks(self.v), _blocks(self.params)
        self._whole = len(self._in_place[2]) == len(self.params)  # one block each
        self._one = self._whole and len(self.params) == 1

    def _views(self, flat: np.ndarray) -> list[np.ndarray]:
        return [flat[a:b] for a, b in self._spans]

    def _advance(self, alpha, eps_hat, g_blocks, m_blocks, v_blocks, p_blocks) -> None:
        """One step from the gradient's blocks, at the step's rate
        alpha = lr * sqrt(c2) / c1 and eps_hat = eps * sqrt(c2), each a 0-d
        array of the dtype: advance the moments' blocks in place and subtract
        alpha * m / (sqrt(v) + eps_hat) from the parameters' blocks, which
        all line up."""
        b1, b2, a1, a2 = self._b1, self._b2, self._a1, self._a2
        scratch = _SCRATCH[self.dtype]
        if scratch[0].size < self._block:
            scratch[:] = np.empty(self._block, self.dtype), np.empty(self._block, self.dtype)
        s_all, d_all = scratch
        for gb, mb, vb, pb in zip(g_blocks, m_blocks, v_blocks, p_blocks):
            s, d = s_all[: gb.size], d_all[: gb.size]
            np.multiply(a1, gb, s)
            np.multiply(mb, b1, mb)
            np.add(mb, s, mb)
            np.square(gb, s)
            np.multiply(s, a2, s)
            np.multiply(vb, b2, vb)
            np.add(vb, s, vb)
            np.sqrt(vb, d)
            np.add(d, eps_hat, d)
            np.multiply(mb, alpha, s)
            np.divide(s, d, s)
            np.subtract(pb, s, pb)

    def step(self, grads: Sequence[np.ndarray]) -> None:
        """One update from one gradient vector per parameter vector."""
        if len(grads) != len(self.params):
            raise UsageError("gradients do not match the parameter vectors")
        arrays = [g if type(g) is np.ndarray and g.dtype == self.dtype and g.shape == p.shape
                  else _as_gradient(g, p) for g, p in zip(grads, self.params)]
        m_blocks, v_blocks, p_blocks = self._in_place
        if self._one:  # the heads', the generator's and the RL optimizers
            g_blocks, g_max, in_range = arrays, _abs_bound(arrays[0]), _in_range(p_blocks[0])
        else:
            g_blocks = arrays if self._whole else _blocks(arrays)
            g_max = max(map(_abs_bound, g_blocks), default=0.0)
            in_range = all(map(_in_range, p_blocks))
        t = self.t + 1
        c1, root_c2 = 1.0 - self.beta1**t, math.sqrt(1.0 - self.beta2**t)
        rate = self.lr * root_c2 / c1
        m_bound = self.beta1 * self._m_bound + (1.0 - self.beta1) * g_max
        safe = self._safe
        if abs(rate) < safe:
            alpha = np.array(rate, self.dtype)
        else:  # a rate past float32's range narrows to inf, as one past float64's is inf
            with np.errstate(over="ignore"):
                alpha = np.array(rate, self.dtype)
        eps_hat = np.array(self.eps * root_c2, self.dtype)
        if in_range and abs(rate) < safe and 4.0 * abs(self.lr) * m_bound / c1 / self.eps < safe:
            self._advance(alpha, eps_hat, g_blocks, m_blocks, v_blocks, p_blocks)
        else:
            m, v = self._m.copy(), self._v.copy()
            new = [p.copy() for p in self.params]
            m_blocks, v_blocks = _blocks(self._views(m)), _blocks(self._views(v))
            with np.errstate(over="ignore", invalid="ignore"):  # the copies are checked below
                self._advance(alpha, eps_hat, g_blocks, m_blocks, v_blocks, _blocks(new))
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
    log-probs are never formed, which makes the step faster. `reward.rl_loss`
    forms its gradient the same way.

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
    0..n_classes-1) by x @ weight.T + bias, in `dtype` (float64 unless a
    float32 run narrows its reward model). The three arrays are read-only
    copies; `label_rows` maps labels to rows. The reward model and both
    evaluation heads are of this type."""

    def __init__(self, weight, bias, class_ids=None, dtype=FLOAT64):
        weight = np.array(weight, dtype=dtype)
        bias = np.array(bias, dtype=dtype)
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
        return as_rows(x, self.weight.dtype) @ self.weight.T + self.bias

    def predict(self, x) -> np.ndarray:
        """The class id of the largest logit of each row."""
        return self.class_ids[np.argmax(self.logits(x), axis=1)]


def distinct(labels) -> np.ndarray:
    """The sorted distinct values of an integer array, flattened: what
    np.unique returns, without np.unique, whose first call imports numpy.ma
    (it asks np.ma.is_masked). Sorts, then keeps each value that differs
    from its predecessor."""
    v = np.sort(np.asarray(labels).reshape(-1))
    keep = np.empty(v.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(v[1:], v[:-1], out=keep[1:])
    return v[keep]


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
    the vector as raw f64 (per layer: weight row-major, then bias), so a
    float32 vector is widened, exactly. Nothing
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
