"""The error-bound oracle: a reference whose every sum is exact, and a
computed bound that a pass summing in any order must come within.

`oracle` checks a pass bit for bit against the engine graph of the same
expressions, which holds only while the pass sums in the graph's order. A
pass that reorders its sums (the critics' stacked pass; Adam's efficient
form) is checked here instead, with the a priori bounds of Higham 2002,
"Accuracy and Stability of Numerical Algorithms", ch. 3: a sum of n
products, formed in any order, lies within gamma_n = n u / (1 - n u),
u = 2**-53, times the sum of the absolute values of its terms of the exact
sum.

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
pre-activation lies farther than 2 e from zero (the kink margin). The
scalar steps of the gradient penalty (a square root, a division) carry
their bounds by the derivative, with the margins sqrt and div state. The
products are exact and the bounds valid while no product underflows: the
shapes here are small and their entries of order one.
"""

from __future__ import annotations

import math

import numpy as np

from rlvc.nets import NORM_FLOOR

U = 2.0**-53
_SPLIT = 2.0**27 + 1.0
# The bounds are themselves computed in floating point; each is scaled up by
# this much, far more than the relative rounding of its own few sums.
_UP = 1.0 + 2.0**-30


def gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u): the relative bound on n roundings."""
    return n * U / (1.0 - n * U)


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


def matmul(a: Bounded, b: Bounded) -> Bounded:
    n = a.v.shape[1]
    ma, mb = a.m, b.m
    return Bounded(exact_matmul(a.v, b.v), ma @ b.e + a.e @ mb + gamma(n) * (ma @ mb))


def mul(a: Bounded, b: Bounded) -> Bounded:
    """The elementwise (broadcast) product."""
    ma, mb = a.m, b.m
    return Bounded(a.v * b.v, ma * b.e + a.e * mb + gamma(1) * (ma * mb))


def add(a: Bounded, b: Bounded) -> Bounded:
    return Bounded(a.v + b.v, a.e + b.e + gamma(1) * (a.m + b.m))


def total(a: Bounded, axis=None) -> Bounded:
    """The sum along `axis` (all entries by default), in any order."""
    n = a.v.size if axis is None else a.v.shape[axis]
    v = np.apply_along_axis(math.fsum, axis, a.v) if axis is not None else math.fsum(a.v.ravel())
    return Bounded(v, np.sum(a.e, axis=axis) + gamma(n) * np.sum(a.m, axis=axis))


def concat(parts, axis: int = 0) -> Bounded:
    return Bounded(np.concatenate([p.v for p in parts], axis),
                   np.concatenate([p.e for p in parts], axis))


def sqrt(a: Bounded) -> Bounded:
    """Where every entry's exact and computed values stay above some L > 0:
    |sqrt(x) - sqrt(y)| = |x - y| / (sqrt(x) + sqrt(y)) <= e / (2 sqrt(L))."""
    low = a.v - 2.0 * a.e
    assert np.all(low > 0.0), "a square root too near zero for its bound"
    v = np.sqrt(a.v)
    return Bounded(v, a.e / (2.0 * np.sqrt(low)) + gamma(1) * np.sqrt(a.m))


def div(a: Bounded, b: Bounded) -> Bounded:
    """Where |b| stays above L > 0: |x / y - x' / y'| <= (e_x M_y + M_x e_y) / L**2."""
    low = np.abs(b.v) - 2.0 * b.e
    assert np.all(low > 0.0), "a divisor too near zero for its bound"
    ma, mb = a.m, b.m
    return Bounded(a.v / b.v, (a.e * mb + ma * b.e) / low**2 + gamma(1) * ma / low)


def kink_mask(pre: Bounded, slope: float) -> np.ndarray:
    """where(pre > 0, 1, slope), the same for the reference, the candidate and
    the exact value: KinkTooClose unless every |pre| exceeds 2 e."""
    if not np.all(np.abs(pre.v) > 2.0 * pre.e):
        raise KinkTooClose(f"a pre-activation within {float(np.max(pre.e)):.3g} of the kink")
    return np.where(pre.v > 0.0, 1.0, slope)


def forward(net, x: Bounded) -> tuple[Bounded, list[Bounded], list[np.ndarray]]:
    """The dense net on rows x: its output, every layer's input and every
    hidden layer's mask. Each pre-activation sums fan_in products and the
    bias: one sum of fan_in + 1 terms."""
    inputs, masks, h = [], [], x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        inputs.append(h)
        ones = exact(np.ones((h.v.shape[0], 1)))
        pre = matmul(concat([h, ones], axis=1), exact(np.concatenate([w.data.T, b.data[None]])))
        if i == last:
            return pre, inputs, masks
        masks.append(kink_mask(pre, net.slope))
        h = mul(pre, exact(masks[-1]))


def within(candidate, ref: Bounded) -> float:
    """The largest |candidate - v| / (2 e): at most 1 where the candidate is
    within the bound (an entry with e = 0 must match exactly)."""
    diff = np.abs(np.asarray(candidate, dtype=np.float64) - ref.v)
    limit = 2.0 * ref.e
    if np.any((limit == 0.0) & (diff > 0.0)):
        return math.inf
    return float(np.max(np.divide(diff, limit, out=np.zeros(diff.shape), where=limit > 0.0)))


def critic_reference(net, real, fake, cond, lambda_gp: float, u: np.ndarray
                     ) -> tuple[Bounded, Bounded]:
    """The critic loss -mean(net(real)) + mean(net(fake)) + lambda_gp *
    mean((|d sum(net) / d x_hat| - 1)^2), at x_hat = u * real + (1 - u) *
    fake under the fixed columns cond, and its gradient laid out like
    net.flat, each Bounded.

    Layer l's weight gradient is modelled as one sum over 3B rows (the real
    and fake rows' output gradients times their inputs, and the penalty's
    gated rows times its ug rows), which bounds a pass that sums them
    apart and adds the three as well: B + 2 <= 3B roundings per term."""
    rows, d = real.shape
    inv_b = Bounded(1.0 / rows, U / rows)  # fl(1/B)
    lam = exact(lambda_gp)
    u, real, fake, cond = exact(u), exact(real), exact(fake), exact(cond)
    x_hat = add(mul(u, real), mul(add(exact(1.0), -u), fake))
    s_real, in_real, m_real = forward(net, concat([real, cond], axis=1))
    s_fake, in_fake, m_fake = forward(net, concat([fake, cond], axis=1))
    _, _, m_hat = forward(net, concat([x_hat, cond], axis=1))
    ws = [exact(w.data) for w in net.weights]

    # The penalty: g = W_L in every row, then g = (g * D_l) @ W_l down.
    g = exact(np.repeat(ws[-1].v, rows, axis=0))
    gated = [exact(np.ones((rows, 1)))]
    for w, mask in zip(reversed(ws[:-1]), reversed(m_hat)):
        gated.insert(0, mul(g, exact(mask)))
        g = matmul(gated[0], w)
    gx = g[:, :d]
    sq = total(mul(gx, gx), axis=1)
    assert np.all(sq.v - 2.0 * sq.e > NORM_FLOOR), "a gradient norm near the floor"
    norms = sqrt(sq)
    dev = add(norms, exact(-1.0))
    penalty = mul(total(mul(dev, dev)), inv_b)
    kappa = div(mul(mul(lam, inv_b), dev), norms)  # lambda / B * dev / norm, per row
    ug = concat([mul(exact(2.0), mul(kappa[:, None], gx)),
                 exact(np.zeros((rows, cond.v.shape[1])))], axis=1)
    ugs = [ug]
    for w, mask in zip(ws[:-1], m_hat):
        ugs.append(mul(matmul(ugs[-1], w.T), exact(mask)))

    # The Wasserstein terms' output gradients, pulled back through the masks.
    outs_real, outs_fake = [-mul(exact(np.ones((rows, 1))), inv_b)], [mul(exact(np.ones((rows, 1))), inv_b)]
    for w, mr, mf in zip(reversed(ws[1:]), reversed(m_real), reversed(m_fake)):
        outs_real.insert(0, mul(matmul(outs_real[0], w), exact(mr)))
        outs_fake.insert(0, mul(matmul(outs_fake[0], w), exact(mf)))

    grads = []
    for ur, uf, gt, xr, xf, ugl in zip(outs_real, outs_fake, gated, in_real, in_fake, ugs):
        grads.append(matmul(concat([ur, uf, gt]).T, concat([xr, xf, ugl])))
        grads.append(total(concat([ur, uf]), axis=0))
    flat = concat([Bounded(g.v.ravel(), g.e.ravel()) for g in grads])
    wass = add(-mul(total(s_real), inv_b), mul(total(s_fake), inv_b))
    return add(wass, mul(penalty, lam)), flat


def adam_drift(bound: np.ndarray, step: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The bound, after one more step, on how far Adam's efficient form
    p -= alpha * m / (sqrt(v) + eps_hat) can carry the parameters from the
    textbook form p -= lr * (m / c1) / (sqrt(v / c2) + eps), given the
    bound before it, the textbook step and the textbook result p, with both
    forms fed the same m and v.

    The textbook step rounds 6 times (m / c1, * lr, v / c2, sqrt, + eps, the
    division) and the efficient one 8 (sqrt(c2), lr * it, / c1, eps * it,
    sqrt(v), + eps_hat, m * alpha, the division); every operand is a
    product, quotient or root, or a sum of two positive terms, so each
    step is within gamma_6 and gamma_8 of the exact step, and the two within
    gamma_14 of each other. gamma_16 also covers the exact step against the
    textbook one. Each form rounds its subtraction once more, by at most u
    of its result."""
    return (bound + gamma(16) * np.abs(step) + 2.0 * gamma(1) * (np.abs(p) + bound)) * _UP
