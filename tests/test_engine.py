"""Autodiff correctness: op-level gradient oracles, broadcasting, and a
first-order reverse pass that works on plain arrays. The gradient penalty's
input gradient is a closed form, tested with the nets and critics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlvc import engine
from rlvc.engine import Tensor
from rlvc.errors import ConfigurationError, UsageError
from rlvc.nets import DenseNet

import oracle
from conftest import max_fd_error


def _fd_error(build, a: Tensor) -> float:
    def value_and_grads():
        loss = build()
        return loss.item(), engine.backward(loss, [a])

    return max_fd_error(value_and_grads, [a.data])


def test_linear_loss_gradient_equals_input():
    x = np.array([[1.0, -2.0, 3.0]])
    w = Tensor(np.array([[0.5, 0.5, 0.5]]), requires_grad=True)
    loss = engine.tsum(w * Tensor(x))
    (g,) = engine.backward(loss, [w])
    np.testing.assert_array_equal(g, x)


def test_sum_of_squares_gradient():
    p = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    loss = engine.tsum(p * p)
    (g,) = engine.backward(loss, [p])
    np.testing.assert_allclose(g, 2.0 * p.data, rtol=0, atol=0)


def test_quadratic_fd_error_tiny():
    p = Tensor(np.array([0.3, -1.2, 2.0]), requires_grad=True)
    assert _fd_error(lambda: engine.tsum(p * p), p) < 1e-8


# Constant operands of the linear cases below; the case's `a` (3, 4) takes
# the place of x, of w, of b (as its row sums, or its first column), or of
# all three at once.
_R = np.random.default_rng(5)
_X, _W, _B = (_R.normal(size=s) for s in [(2, 4), (5, 4), (5,)])


@pytest.mark.parametrize(
    "fn",
    [
        lambda a: engine.tsum(engine.exp(a)),
        lambda a: engine.tsum(engine.log(a + 3.0)),
        lambda a: engine.tsum(engine.sqrt(a + 3.0)),
        lambda a: engine.tsum(a**3.0),
        lambda a: engine.tsum(engine.leaky_relu(a, 0.2) ** 2.0),
        lambda a: engine.tmean(engine.log_softmax(a, axis=1)),
        lambda a: engine.tsum(engine.exp(engine.log_softmax(a, axis=1)) ** 2.0),
        lambda a: engine.tsum(engine.maximum_const(a, -0.55)),
        lambda a: engine.tsum(engine.linear(a, _W, _B) ** 2.0),
        lambda a: engine.tsum(engine.concat([a, a * 2.0], axis=1)),
        lambda a: engine.tsum(engine.slice_axis(a, 1, 3, axis=1) ** 2.0),
        lambda a: engine.tsum(engine.tsum(a, axis=0, keepdims=True) * a),
        lambda a: engine.tsum(1.0 / (a + 3.0)),
        lambda a: engine.tsum((a - engine.tmean(a, axis=1, keepdims=True)) ** 2.0),
        lambda a: engine.tsum(engine.linear(_X, a, _B[:3]) ** 2.0),
        lambda a: engine.tsum(engine.linear(_X, _W[:3], engine.tsum(a, axis=1)) ** 2.0),
        lambda a: engine.tsum(
            engine.linear(a, a, engine.tsum(engine.slice_axis(a, 0, 1), axis=1)) ** 2.0
        ),
    ],
)
def test_op_gradients_match_finite_differences(fn):
    # values kept away from kinks of leaky-relu/max by the +3 shifts
    # and by the choice of evaluation point
    rng = np.random.default_rng(7)
    a = Tensor(rng.uniform(-0.5, 2.0, size=(3, 4)) + 0.6, requires_grad=True)
    assert _fd_error(lambda: fn(a), a) < 1e-6


def test_broadcast_add_reduces_gradient_to_parameter_shape():
    bias = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    x = Tensor(np.ones((5, 2)))
    loss = engine.tsum(x + bias)
    (g,) = engine.backward(loss, [bias])
    assert g.shape == (2,)
    np.testing.assert_array_equal(g, [5.0, 5.0])


def test_broadcast_mul_gradient_values():
    scale = Tensor(np.array([[2.0], [3.0]]), requires_grad=True)  # (2,1) vs (2,3)
    x = np.arange(6.0).reshape(2, 3)
    loss = engine.tsum(scale * Tensor(x))
    (g,) = engine.backward(loss, [scale])
    np.testing.assert_array_equal(g, x.sum(axis=1, keepdims=True))


def test_reverse_pass_builds_no_tensor(monkeypatch):
    rng = np.random.default_rng(3)
    net = DenseNet([4, 6, 6, 3], rng, 0.2)
    logits = oracle.forward(net, Tensor(rng.normal(size=(5, 4))))
    onehot = Tensor(np.eye(3)[[0, 1, 2, 0, 1]])
    loss = -engine.tmean(engine.tsum(engine.log_softmax(logits, axis=1) * onehot, axis=1))

    built = []
    init = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    grads = engine.backward(loss, oracle.params(net))
    assert len(built) == 0
    assert [g.shape for g in grads] == [p.shape for p in oracle.params(net)]


def test_grad_runs_no_vjp_off_the_paths_to_the_inputs():
    rng = np.random.default_rng(21)
    x, w = (Tensor(rng.normal(size=s), requires_grad=True) for s in [(3, 2), (4, 2)])
    b = Tensor(np.zeros(4), requires_grad=True)
    layer = engine.linear(x, w, b)
    loss = engine.tsum(layer**2.0)
    calls = []

    def counted(i, vjp):
        def wrapped(u):
            calls.append(i)
            return vjp(u)

        return wrapped

    together = engine.backward(loss, [x, w, b])
    layer._vjps = tuple(counted(i, vjp) for i, vjp in enumerate(layer._vjps))
    (only_x,) = engine.backward(loss, [x])
    assert calls == [0]  # the weight and bias vjps are not called
    assert only_x.tobytes() == together[0].tobytes()


def test_grad_of_unreached_input_is_zero():
    x = Tensor(np.array([1.0]), requires_grad=True)
    other = Tensor(np.array([2.0]), requires_grad=True)
    (g,) = engine.backward(engine.tsum(x * 3.0), [other])
    np.testing.assert_array_equal(g, [0.0])


def test_shared_subexpression_accumulates_once_per_path():
    x = Tensor(np.array([3.0]), requires_grad=True)
    y = x * x  # reused twice below
    loss = engine.tsum(y + y)
    (g,) = engine.backward(loss, [x])
    np.testing.assert_array_equal(g, [12.0])  # 2 * 2x


def test_grad_rejects_nonscalar_target():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(UsageError):
        engine.grad(x * 2.0, [x])
    with pytest.raises(UsageError):
        engine.grad("nope", [x])  # type: ignore[arg-type]


def test_matmul_rank_and_shape_errors():
    with pytest.raises(UsageError):
        engine.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))
    with pytest.raises(ConfigurationError):
        engine.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))


def test_mean_of_empty_and_concat_of_none_rejected():
    with pytest.raises(UsageError):
        engine.tmean(Tensor(np.zeros((0,))))
    with pytest.raises(UsageError):
        engine.concat([])


def test_inference_builds_no_graph():
    a = Tensor(np.ones((2, 2)))  # requires_grad False
    out = a @ a + a
    assert not out.requires_grad
    assert out._parents == ()


def test_log_softmax_rows_normalize():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(4, 6)) * 30.0)  # large logits: stability check
    p = engine.exp(engine.log_softmax(x, axis=1))
    np.testing.assert_allclose(p.data.sum(axis=1), np.ones(4), atol=1e-12)
    assert np.all(np.isfinite(engine.log_softmax(x, axis=1).data))


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
def test_sum_mean_gradients_are_constant_fields(rows, cols, seed):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(size=(rows, cols)), requires_grad=True)
    (gs,) = engine.backward(engine.tsum(a), [a])
    (gm,) = engine.backward(engine.tmean(a), [a])
    np.testing.assert_array_equal(gs, np.ones((rows, cols)))
    np.testing.assert_allclose(gm, np.full((rows, cols), 1.0 / (rows * cols)))
