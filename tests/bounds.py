"""The error-bound oracle: a reference whose every sum is exact, and a
computed bound that a pass summing in any order must come within.

`oracle` checks a pass bit for bit against the engine graph of the same
expressions, which holds only while the pass sums in the graph's order. A
pass that reorders its sums (the critics' stacked pass; Adam's efficient
form) is checked here instead, with the a priori bounds of Higham 2002,
"Accuracy and Stability of Numerical Algorithms", ch. 3: a sum of n
products, formed in any order, lies within gamma_n = n u / (1 - n u) times
the sum of the absolute values of its terms of the exact sum, where u is the
candidate's unit roundoff: `U64` = 2**-53 for a float64 pass, `U32` =
2**-24 for a float32 one. Each operation here takes that `unit`; the
reference itself is formed in float64, within the bound of either.

Every quantity is a `Bounded`: `v`, the reference value, and `e`, a bound on
the distance from the exact value of both `v` and any candidate that
evaluates the same expressions, each sum in any order, each other operation
with one rounding. The reference forms each sum exactly: every product is
split without error into two floats (Dekker's TwoProduct, by Veltkamp's
splitting), and math.fsum adds them all, rounding once. The bound is carried
through the layers by the magnitude pass: each operation runs again over
the magnitudes M = |v| + 2e of its operands, which bound the reference, the
candidate and the exact value alike. For C = A @ B with n terms per entry,

    e_C = M_A @ e_B + e_A @ M_B + gamma_n * M_A @ M_B,

so with exact inputs e_C is gamma_n times the sum of the absolute values of
the terms. A candidate passes where |candidate - v| <= 2 e.

A leaky-relu mask is exact only while the candidate's pre-activation has
the exact one's sign: `kink_mask` raises KinkTooClose unless every
pre-activation lies farther than 2 e from zero (the kink margin, which
scales with the unit's bound). The
scalar steps of the gradient penalty (a square root, a division) carry
their bounds by the derivative, with the margins sqrt and div state. The
products are exact and the bounds valid while no product underflows: the
shapes here are small and their entries of order one.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from rlvc.nets import NORM_FLOOR

U64, U32 = 2.0**-53, 2.0**-24
# The dtype whose rounding each unit models, for its norm floor.
DTYPE = {U64: np.dtype(np.float64), U32: np.dtype(np.float32)}
_SPLIT = 2.0**27 + 1.0
# The bounds are themselves computed in floating point; each is scaled up by
# this much, far more than the relative rounding of its own few sums.
_UP = 1.0 + 2.0**-30


def gamma(n: int, unit: float) -> float:
    """Higham's gamma_n = n u / (1 - n u): the relative bound on n roundings
    of unit roundoff u."""
    return n * unit / (1.0 - n * unit)


class KinkTooClose(ValueError):
    """A pre-activation lies within its error bound of the leaky-relu kink."""


class Bounded:
    """A reference value `v` and a bound `e` on the distance from the exact
    value of `v` and of any candidate computing the same expressions."""

    def __init__(self, v, e=None):
        self.v = np.asarray(v, dtype=np.float64)
        self.e = np.zeros(self.v.shape) if e is None else np.asarray(e, dtype=np.float64) * _UP

    @property
    def m(self) -> np.ndarray:
        """A bound on |reference|, |candidate| and |exact value|."""
        return np.abs(self.v) + 2.0 * self.e

    @property
    def T(self) -> Bounded:
        return Bounded(self.v.T, self.e.T)

    def __getitem__(self, key) -> Bounded:
        return Bounded(self.v[key], self.e[key])

    def __neg__(self) -> Bounded:
        return Bounded(-self.v, self.e)


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p = fl(a * b) and e with p + e == a * b exactly (Dekker, Veltkamp)."""
    p = a * b
    assert np.all((p == 0.0) | (np.abs(p) > 2.0**-900)), "a product near underflow"

    def split(x):
        c = _SPLIT * x
        hi = c - (c - x)
        return hi, x - hi

    (ah, al), (bh, bl) = split(a), split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b with each entry's sum of products formed exactly, rounded once."""
    p, e = _two_product(a[:, :, None], b[None, :, :])  # (m, n, k)
    terms = np.concatenate([p, e], axis=1).transpose(0, 2, 1)
    rows, cols = a.shape[0], b.shape[1]
    sums = [math.fsum(t) for t in terms.reshape(rows * cols, -1).tolist()]
    return np.array(sums).reshape(rows, cols)


def exact(a) -> Bounded:
    """An input, known exactly."""
    return Bounded(a)


def matmul(a: Bounded, b: Bounded, unit: float) -> Bounded:
    n = a.v.shape[1]
    ma, mb = a.m, b.m
    return Bounded(exact_matmul(a.v, b.v), ma @ b.e + a.e @ mb + gamma(n, unit) * (ma @ mb))


def mul(a: Bounded, b: Bounded, unit: float) -> Bounded:
    """The elementwise (broadcast) product."""
    ma, mb = a.m, b.m
    return Bounded(a.v * b.v, ma * b.e + a.e * mb + gamma(1, unit) * (ma * mb))


def add(a: Bounded, b: Bounded, unit: float) -> Bounded:
    return Bounded(a.v + b.v, a.e + b.e + gamma(1, unit) * (a.m + b.m))


def total(a: Bounded, unit: float, axis=None) -> Bounded:
    """The sum along `axis` (all entries by default), in any order."""
    n = a.v.size if axis is None else a.v.shape[axis]
    v = np.apply_along_axis(math.fsum, axis, a.v) if axis is not None else math.fsum(a.v.ravel())
    return Bounded(v, np.sum(a.e, axis=axis) + gamma(n, unit) * np.sum(a.m, axis=axis))


def concat(parts, axis: int = 0) -> Bounded:
    return Bounded(np.concatenate([p.v for p in parts], axis),
                   np.concatenate([p.e for p in parts], axis))


def sqrt(a: Bounded, unit: float) -> Bounded:
    """Where every entry's exact and computed values stay above some L > 0:
    |sqrt(x) - sqrt(y)| = |x - y| / (sqrt(x) + sqrt(y)) <= e / (2 sqrt(L))."""
    low = a.v - 2.0 * a.e
    assert np.all(low > 0.0), "a square root too near zero for its bound"
    v = np.sqrt(a.v)
    return Bounded(v, a.e / (2.0 * np.sqrt(low)) + gamma(1, unit) * np.sqrt(a.m))


def div(a: Bounded, b: Bounded, unit: float) -> Bounded:
    """Where |b| stays above L > 0: |x / y - x' / y'| <= (e_x M_y + M_x e_y) / L**2."""
    low = np.abs(b.v) - 2.0 * b.e
    assert np.all(low > 0.0), "a divisor too near zero for its bound"
    ma, mb = a.m, b.m
    return Bounded(a.v / b.v, (a.e * mb + ma * b.e) / low**2 + gamma(1, unit) * ma / low)


def kink_mask(pre: Bounded, slope: float) -> np.ndarray:
    """where(pre > 0, 1, slope), the same for the reference, the candidate and
    the exact value: KinkTooClose unless every |pre| exceeds 2 e."""
    if not np.all(np.abs(pre.v) > 2.0 * pre.e):
        raise KinkTooClose(f"a pre-activation within {float(np.max(pre.e)):.3g} of the kink")
    return np.where(pre.v > 0.0, 1.0, slope)


def forward(net, x: Bounded, unit: float) -> tuple[Bounded, list[Bounded], list[np.ndarray]]:
    """The dense net on rows x: its output, every layer's input and every
    hidden layer's mask. Each pre-activation sums fan_in products and the
    bias: one sum of fan_in + 1 terms. The weights are read from the net's
    own arrays, of either dtype, and widened exactly."""
    inputs, masks, h = [], [], x
    last = len(net.ws) - 1
    for i, (w, b) in enumerate(zip(net.ws, net.bs)):
        inputs.append(h)
        ones = exact(np.ones((h.v.shape[0], 1)))
        pre = matmul(concat([h, ones], axis=1), exact(np.concatenate([w.T, b[None]])), unit)
        if i == last:
            return pre, inputs, masks
        masks.append(kink_mask(pre, net.slope))
        h = mul(pre, exact(masks[-1]), unit)


def within(candidate, ref: Bounded) -> float:
    """The largest |candidate - v| / (2 e): at most 1 where the candidate is
    within the bound (an entry with e = 0 must match exactly)."""
    diff = np.abs(np.asarray(candidate, dtype=np.float64) - ref.v)
    limit = 2.0 * ref.e
    if np.any((limit == 0.0) & (diff > 0.0)):
        return math.inf
    return float(np.max(np.divide(diff, limit, out=np.zeros(diff.shape), where=limit > 0.0)))


def critic_reference(net, real, fake, cond, lambda_gp: float, u: np.ndarray, unit: float = U64
                     ) -> tuple[Bounded, Bounded]:
    """The critic loss -mean(net(real)) + mean(net(fake)) + lambda_gp *
    mean((|d sum(net) / d x_hat| - 1)^2), at x_hat = u * real + (1 - u) *
    fake under the fixed columns cond, and its gradient laid out like
    net.flat, each Bounded for a candidate of unit roundoff `unit`. The
    inputs are the values the candidate reads: for a float32 pass, the
    narrowed batch, conditioning columns and u.

    Layer l's weight gradient is modelled as one sum over 3B rows (the real
    and fake rows' output gradients times their inputs, and the penalty's
    gated rows times its ug rows), which bounds a pass that sums them
    apart and adds the three as well: B + 2 <= 3B roundings per term."""
    rows, d = real.shape
    inv_b = Bounded(1.0 / rows, unit / rows)  # fl(1/B)
    lam = exact(lambda_gp)
    mul_, add_, matmul_ = (functools.partial(op, unit=unit) for op in (mul, add, matmul))
    u, real, fake, cond = exact(u), exact(real), exact(fake), exact(cond)
    x_hat = add_(mul_(u, real), mul_(add_(exact(1.0), -u), fake))
    s_real, in_real, m_real = forward(net, concat([real, cond], axis=1), unit)
    s_fake, in_fake, m_fake = forward(net, concat([fake, cond], axis=1), unit)
    _, _, m_hat = forward(net, concat([x_hat, cond], axis=1), unit)
    ws = [exact(w) for w in net.ws]

    # The penalty: g = W_L in every row, then g = (g * D_l) @ W_l down.
    g = exact(np.repeat(ws[-1].v, rows, axis=0))
    gated = [exact(np.ones((rows, 1)))]
    for w, mask in zip(reversed(ws[:-1]), reversed(m_hat)):
        gated.insert(0, mul_(g, exact(mask)))
        g = matmul_(gated[0], w)
    gx = g[:, :d]
    sq = total(mul_(gx, gx), unit, axis=1)
    assert np.all(sq.v - 2.0 * sq.e > NORM_FLOOR[DTYPE[unit]]), "a gradient norm near the floor"
    norms = sqrt(sq, unit)
    dev = add_(norms, exact(-1.0))
    penalty = mul_(total(mul_(dev, dev), unit), inv_b)
    kappa = div(mul_(mul_(lam, inv_b), dev), norms, unit)  # lambda / B * dev / norm, per row
    ug = concat([mul_(exact(2.0), mul_(kappa[:, None], gx)),
                 exact(np.zeros((rows, cond.v.shape[1])))], axis=1)
    ugs = [ug]
    for w, mask in zip(ws[:-1], m_hat):
        ugs.append(mul_(matmul_(ugs[-1], w.T), exact(mask)))

    # The Wasserstein terms' output gradients, pulled back through the masks.
    outs_real, outs_fake = [-mul_(exact(np.ones((rows, 1))), inv_b)], [mul_(exact(np.ones((rows, 1))), inv_b)]
    for w, mr, mf in zip(reversed(ws[1:]), reversed(m_real), reversed(m_fake)):
        outs_real.insert(0, mul_(matmul_(outs_real[0], w), exact(mr)))
        outs_fake.insert(0, mul_(matmul_(outs_fake[0], w), exact(mf)))

    grads = []
    for ur, uf, gt, xr, xf, ugl in zip(outs_real, outs_fake, gated, in_real, in_fake, ugs):
        grads.append(matmul_(concat([ur, uf, gt]).T, concat([xr, xf, ugl])))
        grads.append(total(concat([ur, uf]), unit, axis=0))
    flat = concat([Bounded(g.v.ravel(), g.e.ravel()) for g in grads])
    wass = add_(-mul_(total(s_real, unit), inv_b), mul_(total(s_fake, unit), inv_b))
    return add_(wass, mul_(penalty, lam)), flat


def adam_drift(bound: np.ndarray, step: np.ndarray, p: np.ndarray, unit: float = U64
               ) -> np.ndarray:
    """The bound, after one more step, on how far Adam's efficient form
    p -= alpha * m / (sqrt(v) + eps_hat) can carry the parameters from the
    textbook form p -= lr * (m / c1) / (sqrt(v / c2) + eps), given the
    bound before it, the textbook step and the textbook result p, with both
    forms fed the same m and v, each rounding at `unit`.

    In float64 the textbook step rounds 6 times (m / c1, * lr, v / c2,
    sqrt, + eps, the division) and the efficient one 8 (sqrt(c2), lr * it,
    / c1, eps * it, sqrt(v), + eps_hat, m * alpha, the division); every
    operand is a product, quotient or root, or a sum of two positive terms,
    so each step is within gamma_6 and gamma_8 of the exact step, and the
    two within gamma_14 of each other. gamma_16 also covers the exact step
    against the textbook one. In float32 the textbook step also rounds its
    four Python-float constants (lr, c1, c2, eps) to float32: 10 roundings
    of u = 2**-24. The efficient one rounds 6 times at u (alpha and eps_hat
    narrowed, sqrt(v), + eps_hat, m * alpha, the division); forming alpha
    and eps_hat in float64 adds 5 roundings of 2**-53 = 2**-29 u, far inside
    the u**2 terms by which gamma_16 exceeds 16 roundings. Each form rounds
    its subtraction once more, by at most u of its result."""
    step, p = (np.asarray(a, dtype=np.float64) for a in (step, p))  # a float32 form's, widened
    return (bound + gamma(16, unit) * np.abs(step)
            + 2.0 * gamma(1, unit) * (np.abs(p) + bound)) * _UP
