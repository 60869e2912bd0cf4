"""Reverse-mode automatic differentiation over numpy float64 arrays.

The op set is deliberately small: affine maps, leaky-relu, softmax pieces
(exp/log/max-shift), means and sums, norms, concatenation, and elementwise
arithmetic. Every vector-Jacobian callback builds Tensors out of these same
ops, so a gradient is itself a differentiable graph node. That is what lets
the gradient-penalty loss (a function of an input gradient) be differentiated
w.r.t. critic parameters with a second reverse pass.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, UsageError

Array = np.ndarray


class Tensor:
    """A node in the recorded computation graph.

    Wraps a float64 ndarray. Operations on Tensors record parent links and
    per-parent vjp callbacks; nodes that cannot reach a gradient-requiring
    leaf drop their links, so inference builds no graph worth speaking of.
    """

    __slots__ = ("data", "requires_grad", "_parents", "_vjps")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _vjps: tuple[Callable[["Tensor"], "Tensor"], ...] = (),
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) or any(
            p.requires_grad for p in _parents
        )
        if self.requires_grad:
            self._parents = _parents
            self._vjps = _vjps
        else:
            self._parents = ()
            self._vjps = ()

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return transpose(self)

    def item(self) -> float:
        return float(self.data)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape) -> "Tensor":
        return reshape(self, shape)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, k):
        return powc(self, k)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def as_batch(x) -> Tensor:
    """x itself if it is a Tensor, else a constant float64 batch of rows."""
    return x if isinstance(x, Tensor) else Tensor(np.atleast_2d(np.asarray(x, dtype=np.float64)))


def constant(x) -> Tensor:
    """A graph leaf that never receives gradient."""
    return Tensor(np.asarray(x, dtype=np.float64))


def stop_gradient(x: Tensor) -> Tensor:
    """Value of x, detached from the graph."""
    return Tensor(as_tensor(x).data)


def _reduce_to(g: Tensor, shape: tuple) -> Tensor:
    # Inverse of numpy broadcasting: sum g down to `shape`.
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    for _ in range(extra):
        g = tsum(g, axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = tsum(g, axis=ax, keepdims=True)
    if g.shape != shape:
        g = reshape(g, shape)
    return g


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(
        a.data + b.data,
        _parents=(a, b),
        _vjps=(lambda u: _reduce_to(u, a.shape), lambda u: _reduce_to(u, b.shape)),
    )


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(
        a.data - b.data,
        _parents=(a, b),
        _vjps=(
            lambda u: _reduce_to(u, a.shape),
            lambda u: _reduce_to(neg(u), b.shape),
        ),
    )


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(
        a.data * b.data,
        _parents=(a, b),
        _vjps=(
            lambda u: _reduce_to(mul(u, b), a.shape),
            lambda u: _reduce_to(mul(u, a), b.shape),
        ),
    )


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(
        a.data / b.data,
        _parents=(a, b),
        _vjps=(
            lambda u: _reduce_to(div(u, b), a.shape),
            lambda u: _reduce_to(neg(div(mul(u, a), mul(b, b))), b.shape),
        ),
    )


def neg(a) -> Tensor:
    a = as_tensor(a)
    return Tensor(-a.data, _parents=(a,), _vjps=(lambda u: neg(u),))


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise UsageError("matmul expects 2-D operands")
    if a.shape[1] != b.shape[0]:
        raise ConfigurationError(
            f"matmul dimension mismatch: {a.shape} @ {b.shape}"
        )
    return Tensor(
        a.data @ b.data,
        _parents=(a, b),
        _vjps=(
            lambda u: matmul(u, transpose(b)),
            lambda u: matmul(transpose(a), u),
        ),
    )


def transpose(a) -> Tensor:
    a = as_tensor(a)
    if a.ndim != 2:
        raise UsageError("transpose expects a 2-D tensor")
    return Tensor(a.data.T, _parents=(a,), _vjps=(lambda u: transpose(u),))


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    old = a.shape
    return Tensor(
        a.data.reshape(shape), _parents=(a,), _vjps=(lambda u: reshape(u, old),)
    )


def broadcast_to(a, shape) -> Tensor:
    a = as_tensor(a)
    old = a.shape
    return Tensor(
        np.broadcast_to(a.data, shape).copy(),
        _parents=(a,),
        _vjps=(lambda u: _reduce_to(u, old),),
    )


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    in_shape = a.shape
    in_ndim = a.ndim

    def vjp(u: Tensor) -> Tensor:
        if axis is None:
            return broadcast_to(reshape(u, (1,) * in_ndim), in_shape)
        g = u
        if not keepdims:
            kd = list(in_shape)
            for ax in np.atleast_1d(axis):
                kd[int(ax)] = 1
            g = reshape(g, tuple(kd))
        return broadcast_to(g, in_shape)

    return Tensor(
        np.sum(a.data, axis=axis, keepdims=keepdims), _parents=(a,), _vjps=(vjp,)
    )


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    if a.size == 0:
        raise UsageError("mean of an empty tensor")
    count = a.size if axis is None else a.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def powc(a, k) -> Tensor:
    """Elementwise power with a constant exponent."""
    a = as_tensor(a)
    k = float(k)
    return Tensor(
        a.data**k,
        _parents=(a,),
        _vjps=(lambda u: mul(mul(u, k), powc(a, k - 1.0)),),
    )


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.sqrt(a.data), _parents=(a,), _vjps=())
    out._vjps = (lambda u: div(mul(u, 0.5), out),)
    return out


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.exp(a.data), _parents=(a,), _vjps=())
    out._vjps = (lambda u: mul(u, out),)
    return out


def log(a) -> Tensor:
    a = as_tensor(a)
    return Tensor(np.log(a.data), _parents=(a,), _vjps=(lambda u: div(u, a),))


def absval(a) -> Tensor:
    a = as_tensor(a)
    sign = Tensor(np.sign(a.data))
    return Tensor(np.abs(a.data), _parents=(a,), _vjps=(lambda u: mul(u, sign),))


def leaky_relu(a, slope: float = 0.2) -> Tensor:
    a = as_tensor(a)
    # The derivative mask is locally constant, so treating it as data is
    # exact away from the kinks.
    mask = Tensor(np.where(a.data > 0.0, 1.0, slope))
    return Tensor(
        np.where(a.data > 0.0, a.data, slope * a.data),
        _parents=(a,),
        _vjps=(lambda u: mul(u, mask),),
    )


def maximum_const(a, c: float) -> Tensor:
    """Elementwise max with a constant; used as a floor guard."""
    a = as_tensor(a)
    mask = Tensor((a.data >= c).astype(np.float64))
    return Tensor(
        np.maximum(a.data, c), _parents=(a,), _vjps=(lambda u: mul(u, mask),)
    )


def concat(parts: Sequence, axis: int = 1) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise UsageError("concat of zero tensors")
    nd = parts[0].ndim
    if any(p.ndim != nd for p in parts):
        raise ConfigurationError("concat rank mismatch")
    offsets = np.cumsum([0] + [p.shape[axis] for p in parts])
    vjps = []
    for i, p in enumerate(parts):
        start, stop = int(offsets[i]), int(offsets[i + 1])
        vjps.append(lambda u, s=start, e=stop: slice_axis(u, s, e, axis))
    return Tensor(
        np.concatenate([p.data for p in parts], axis=axis),
        _parents=tuple(parts),
        _vjps=tuple(vjps),
    )


def slice_axis(a, start: int, stop: int, axis: int = 1) -> Tensor:
    a = as_tensor(a)
    total = a.shape[axis]
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop)
    return Tensor(
        a.data[tuple(idx)],
        _parents=(a,),
        _vjps=(lambda u: _pad_axis(u, start, stop, axis, total),),
    )


def _pad_axis(a: Tensor, start: int, stop: int, axis: int, total: int) -> Tensor:
    a = as_tensor(a)
    shape = list(a.shape)
    shape[axis] = total
    out = np.zeros(shape, dtype=np.float64)
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop)
    out[tuple(idx)] = a.data
    return Tensor(
        out, _parents=(a,), _vjps=(lambda u: slice_axis(u, start, stop, axis),)
    )


def log_softmax(a, axis: int = 1) -> Tensor:
    """Row-wise log softmax.

    The max shift is detached: log softmax is invariant to any constant
    per-row shift, so the gradient is exact with the shift held fixed.
    """
    a = as_tensor(a)
    m = Tensor(np.max(a.data, axis=axis, keepdims=True))
    shifted = sub(a, m)
    lse = log(tsum(exp(shifted), axis=axis, keepdims=True))
    return sub(shifted, lse)


def softmax(a, axis: int = 1) -> Tensor:
    return exp(log_softmax(a, axis=axis))


def grad(output: Tensor, inputs: Sequence[Tensor]) -> list[Tensor]:
    """Gradients of a scalar output w.r.t. each input, as graph nodes.

    A second call on anything built from the returned tensors differentiates
    through the first reverse pass.
    """
    if not isinstance(output, Tensor):
        raise UsageError("grad target must be a Tensor")
    if output.size != 1:
        raise UsageError("grad target must be scalar")

    # Iterative depth-first postorder over the requires_grad subgraph.
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(output, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    grads: dict[int, Tensor] = {id(output): Tensor(np.ones_like(output.data))}
    for node in reversed(topo):
        g = grads.get(id(node))
        if g is None:
            continue
        for p, vjp in zip(node._parents, node._vjps):
            if not p.requires_grad:
                continue
            contribution = vjp(g)
            seen = grads.get(id(p))
            grads[id(p)] = contribution if seen is None else add(seen, contribution)

    out = []
    for x in inputs:
        g = grads.get(id(x))
        out.append(g if g is not None else Tensor(np.zeros_like(x.data)))
    return out


def backward(output: Tensor, inputs: Sequence[Tensor]) -> list[Array]:
    """Like grad() but returns detached arrays."""
    return [g.data for g in grad(output, inputs)]


def finite_difference_check(
    loss_fn: Callable[[], Tensor],
    params: Iterable[Tensor],
    step: float = 1e-5,
    floor: float = 1e-6,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    loss_fn must be a pure function of the current parameter values (any
    randomness frozen outside). Perturbs every coordinate of every parameter.
    """
    params = list(params)
    analytic = backward(loss_fn(), params)
    worst = 0.0
    for p, g in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = float(loss_fn().data)
            flat[i] = orig - step
            lo = float(loss_fn().data)
            flat[i] = orig
            fd = (hi - lo) / (2.0 * step)
            a = float(gflat[i])
            err = abs(fd - a) / max(abs(fd), abs(a), floor)
            worst = max(worst, err)
    return worst
