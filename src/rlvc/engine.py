"""First-order reverse-mode automatic differentiation over numpy float64
arrays.

The op set is deliberately small: the affine map `linear` (x @ w.T + b as one
node, so a dense layer costs one node plus its activation), leaky-relu,
softmax pieces (exp/log/max-shift), means and sums, norms, concatenation, and
elementwise arithmetic. Each op records its parents and one vector-Jacobian
callback per parent; a callback maps an ndarray to an ndarray, so a reverse
pass builds no graph. The reverse pass (`grad`) calls only the vjps that lead
to a requested input. Nothing here differentiates a gradient.

No runtime code trains through it. A network's parameters are one flat
vector (`nets.DenseNet.flat`); its weights and biases are also Tensors, as
views into that vector, for the tests' graphs. The training losses and the
linear softmax fit are plain numpy passes whose results are bit-equal to
engine.backward on the graph of the same expressions; the tests build those
graphs from these ops as their oracle.
"""

from __future__ import annotations

from typing import Callable, Sequence

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
        _vjps: tuple[Callable[[Array], Array], ...] = (),
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

    def item(self) -> float:
        return float(self.data)

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


def _reduce_to(g: Array, shape: tuple) -> Array:
    # Inverse of numpy broadcasting: sum g down to `shape`.
    if g.shape == shape:
        return g
    for _ in range(g.ndim - len(shape)):
        g = np.sum(g, axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = np.sum(g, axis=ax, keepdims=True)
    if g.shape != shape:
        g = g.reshape(shape)
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
        _vjps=(lambda u: _reduce_to(u, a.shape), lambda u: _reduce_to(-u, b.shape)),
    )


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(
        a.data * b.data,
        _parents=(a, b),
        _vjps=(
            lambda u: _reduce_to(u * b.data, a.shape),
            lambda u: _reduce_to(u * a.data, b.shape),
        ),
    )


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(
        a.data / b.data,
        _parents=(a, b),
        _vjps=(
            lambda u: _reduce_to(u / b.data, a.shape),
            lambda u: _reduce_to(-((u * a.data) / (b.data * b.data)), b.shape),
        ),
    )


def neg(a) -> Tensor:
    a = as_tensor(a)
    return Tensor(-a.data, _parents=(a,), _vjps=(lambda u: -u,))


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
        _vjps=(lambda u: u @ b.data.T, lambda u: a.data.T @ u),
    )


def linear(x, w, b) -> Tensor:
    """The affine map x @ w.T + b of a (batch, in) x, an (out, in) weight
    and an (out,) bias, as one node."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim != 2 or w.ndim != 2 or b.ndim != 1:
        raise UsageError("linear expects a 2-D input, a 2-D weight and a 1-D bias")
    if x.shape[1] != w.shape[1] or b.shape[0] != w.shape[0]:
        raise ConfigurationError(
            f"linear dimension mismatch: {x.shape} @ {w.shape}.T + {b.shape}"
        )
    return Tensor(
        x.data @ w.data.T + b.data,
        _parents=(x, w, b),
        _vjps=(
            lambda u: u @ w.data,
            lambda u: (x.data.T @ u).T,
            lambda u: np.sum(u, axis=0),
        ),
    )


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    in_shape = a.shape
    total = np.sum(a.data, axis=axis, keepdims=True)
    kept = total.shape
    # The copy matters: a zero-stride view used as a matmul operand rounds
    # differently from the same values laid out contiguously.
    return Tensor(
        total if keepdims else np.squeeze(total, axis=axis),
        _parents=(a,),
        _vjps=(lambda u: np.broadcast_to(u.reshape(kept), in_shape).copy(),),
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
        a.data**k, _parents=(a,), _vjps=(lambda u: (u * k) * a.data ** (k - 1.0),)
    )


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    root = np.sqrt(a.data)
    return Tensor(root, _parents=(a,), _vjps=(lambda u: (u * 0.5) / root,))


def exp(a) -> Tensor:
    a = as_tensor(a)
    value = np.exp(a.data)
    return Tensor(value, _parents=(a,), _vjps=(lambda u: u * value,))


def log(a) -> Tensor:
    a = as_tensor(a)
    return Tensor(np.log(a.data), _parents=(a,), _vjps=(lambda u: u / a.data,))


def leaky_relu(a, slope: float) -> Tensor:
    a = as_tensor(a)
    # The derivative mask is locally constant, so treating it as data is
    # exact away from the kinks.
    mask = np.where(a.data > 0.0, 1.0, slope)
    return Tensor(a.data * mask, _parents=(a,), _vjps=(lambda u: u * mask,))


def maximum_const(a, c: float) -> Tensor:
    """Elementwise max with a constant; used as a floor guard."""
    a = as_tensor(a)
    mask = (a.data >= c).astype(np.float64)
    return Tensor(np.maximum(a.data, c), _parents=(a,), _vjps=(lambda u: u * mask,))


def _axis_index(ndim: int, start: int, stop: int, axis: int) -> tuple:
    idx = [slice(None)] * ndim
    idx[axis] = slice(start, stop)
    return tuple(idx)


def concat(parts: Sequence, axis: int = 1) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise UsageError("concat of zero tensors")
    nd = parts[0].ndim
    if any(p.ndim != nd for p in parts):
        raise ConfigurationError("concat rank mismatch")
    offsets = np.cumsum([0] + [p.shape[axis] for p in parts])
    vjps = []
    for i in range(len(parts)):
        idx = _axis_index(nd, int(offsets[i]), int(offsets[i + 1]), axis)
        vjps.append(lambda u, idx=idx: u[idx])
    return Tensor(
        np.concatenate([p.data for p in parts], axis=axis),
        _parents=tuple(parts),
        _vjps=tuple(vjps),
    )


def slice_axis(a, start: int, stop: int, axis: int = 1) -> Tensor:
    a = as_tensor(a)
    idx = _axis_index(a.ndim, start, stop, axis)

    def vjp(u: Array) -> Array:
        out = np.zeros(a.shape, dtype=np.float64)
        out[idx] = u
        return out

    return Tensor(a.data[idx], _parents=(a,), _vjps=(vjp,))


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


def grad(output: Tensor, inputs: Sequence[Tensor]) -> list[Array]:
    """Gradients of a scalar output w.r.t. each input, as arrays.

    Zeros for an input the output does not reach.
    """
    if not isinstance(output, Tensor):
        raise UsageError("grad target must be a Tensor")
    if output.size != 1:
        raise UsageError("grad target must be scalar")

    # Iterative depth-first postorder over the requires_grad subgraph. A node
    # is finished after all of its parents, so it is live (has a path to a
    # requested input) exactly when it is an input or has a live parent. Only
    # live nodes are kept, and only vjps into live parents are called: the
    # other branches cannot change a returned gradient. Tensors hash by
    # identity, so they key the sets and dicts themselves.
    wanted = set(inputs)
    live: set[Tensor] = set()
    topo: list[Tensor] = []
    visited: set[Tensor] = set()
    stack: list[tuple[Tensor, bool]] = [(output, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            if node in wanted or not live.isdisjoint(node._parents):
                live.add(node)
                topo.append(node)
            continue
        if node in visited:
            continue
        visited.add(node)
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and p not in visited:
                stack.append((p, False))

    grads: dict[Tensor, Array] = {output: np.ones_like(output.data)}
    for node in reversed(topo):
        g = grads[node]
        for p, vjp in zip(node._parents, node._vjps):
            if p in live:
                contribution = vjp(g)
                seen = grads.get(p)
                grads[p] = contribution if seen is None else seen + contribution

    return [grads[x] if x in grads else np.zeros_like(x.data) for x in inputs]


def backward(output: Tensor, inputs: Sequence[Tensor]) -> list[Array]:
    """The reverse pass that optimizer steps call: grad() by another name."""
    return grad(output, inputs)
