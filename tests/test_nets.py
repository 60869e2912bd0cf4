"""Dense nets, Adam, timestep tables, checkpoint format."""

from __future__ import annotations

import errno
import hashlib
import io
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlvc import engine, gan, nets, reward
from rlvc.config import Config, format_config
from rlvc.engine import Tensor
from rlvc.errors import ConfigurationError, NumericFailure, UsageError
from rlvc.gan import Generator
from rlvc.nets import (
    CHECKPOINT_MAGIC,
    AdamState,
    DenseNet,
    SoftmaxClassifier,
    distinct,
    load_checkpoint,
    save_checkpoint,
    timestep_table,
)

import bounds
import oracle
from conftest import max_fd_error, set_params

_BETAS = dict(beta1=Config().adam_beta1, beta2=Config().adam_beta2)


def test_init_statistics_match_he():
    net = DenseNet([400, 300], np.random.default_rng(0), 0.2)
    w = net.weights[0].data
    assert abs(w.mean()) < 0.005
    assert abs(w.std() - np.sqrt(2.0 / 400)) < 0.002
    np.testing.assert_array_equal(net.biases[0].data, np.zeros(300))


def test_forward_identity_layer():
    net = DenseNet([2, 2], np.random.default_rng(0), 0.2)
    set_params(net, [np.eye(2), np.zeros(2)])
    out, _ = net.forward(np.array([[1.0, 2.0]]))
    np.testing.assert_array_equal(out, [[1.0, 2.0]])


def test_forward_zero_net_outputs_zero():
    net = DenseNet([3, 4, 2], np.random.default_rng(0), 0.2)
    set_params(net, [np.zeros_like(p.data) for p in oracle.params(net)])
    out, _ = net.forward(np.random.default_rng(1).normal(size=(5, 3)))
    np.testing.assert_array_equal(out, np.zeros((5, 2)))


def test_forward_two_layer_hand_oracle():
    net = DenseNet([2, 2, 1], np.random.default_rng(0), 0.2)
    set_params(
        net,
        [
            np.array([[1.0, -1.0], [0.5, 2.0]]),
            np.array([0.1, -0.2]),
            np.array([[1.5, -0.5]]),
            np.array([0.25]),
        ],
    )
    # hidden pre-act: [-0.9, 4.3]; leaky(0.2): [-0.18, 4.3]
    # output: 1.5*(-0.18) - 0.5*4.3 + 0.25 = -2.17
    out, _ = net.forward(np.array([[1.0, 2.0]]))
    np.testing.assert_allclose(out, [[-2.17]], atol=1e-12)


def test_forward_rowwise_independence():
    net = DenseNet([3, 5, 2], np.random.default_rng(3), 0.2)
    x = np.random.default_rng(4).normal(size=(6, 3))
    batched, _ = net.forward(x)
    stacked = np.concatenate([net.forward(x[i : i + 1])[0] for i in range(6)])
    # blas may pick different kernels per batch shape; equality is up to ulps
    np.testing.assert_allclose(batched, stacked, rtol=1e-13, atol=1e-15)
    # identical input shape is bitwise-reproducible
    np.testing.assert_array_equal(batched, net.forward(x)[0])


def test_forward_input_errors():
    net = DenseNet([3, 2], np.random.default_rng(0), 0.2)
    with pytest.raises(UsageError):
        net.forward(np.zeros(3))
    with pytest.raises(ConfigurationError):
        net.forward(np.zeros((1, 4)))
    with pytest.raises(ConfigurationError):
        DenseNet([3], np.random.default_rng(0), 0.2)
    with pytest.raises(ConfigurationError):
        DenseNet([3, 0, 1], np.random.default_rng(0), 0.2)


def test_dense_net_refuses_a_slope_its_activation_is_not_exact_at():
    for slope in (1.5, -0.1, -0.0, float("nan")):
        with pytest.raises(ConfigurationError, match="slope"):
            DenseNet([3, 2], np.random.default_rng(0), slope)
    for slope in (0.0, 1.0):
        DenseNet([3, 2], np.random.default_rng(0), slope)


def _where_form(pre, slope):
    """The activation and mask engine.leaky_relu takes: pre * mask with
    mask = where(pre > 0, 1, slope)."""
    mask = np.where(pre > 0.0, 1.0, slope)
    return pre * mask, mask


_QUIET_NANS = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123,
                        0xFFF800000000ABCD], dtype=np.uint64).view(np.float64)
_EDGES = np.concatenate([
    [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, 2.2250738585072014e-308,
     -2.2250738585072014e-308, 1e-300, -1e-300, 1.0, -1.0, 1.7e308, -1.7e308, -np.inf],
    _QUIET_NANS,
])


@pytest.mark.parametrize("slope", [0.0, 0.1, 0.2, 1.0])
def test_leaky_relu_and_its_mask_have_the_bits_of_the_where_form(slope):
    rng = np.random.default_rng(0)
    pre = np.concatenate([_EDGES, rng.normal(size=400), rng.normal(size=100) * 1e-309])
    pre = pre[rng.permutation(pre.size)].reshape(3, -1)
    with np.errstate(invalid="ignore"):  # -inf * 0 at slope 0, in both forms
        want_h, want_mask = _where_form(pre, slope)
        h = nets.leaky_relu(pre.copy(), slope)
    assert h.tobytes() == want_h.tobytes()
    assert nets.leaky_relu_mask(h, slope).tobytes() == want_mask.tobytes()
    # +inf is exact for slope > 0; at slope 0 it is the documented exception
    with np.errstate(invalid="ignore"):
        h_inf = nets.leaky_relu(np.array([np.inf]), slope)
    if slope > 0.0:
        assert h_inf.tobytes() == np.array([np.inf]).tobytes()
        assert nets.leaky_relu_mask(h_inf, slope)[0] == 1.0
    else:
        assert np.isnan(h_inf[0])


@pytest.mark.parametrize("slope", [0.0, 0.1, 0.2, 1.0])
def test_forward_and_masks_have_the_bits_of_the_where_form(slope):
    rng = np.random.default_rng(5)
    net = DenseNet([3, 16, 16, 2], rng, slope)
    x = rng.normal(size=(12, 3))
    x[0] = 0.0  # zero biases: every pre-activation of this row is +0.0
    x[1] = [1e-310, -2e-310, 3e-310]  # subnormal first-layer pre-activations
    x[2, 1] = np.nan
    out, cache = net.forward(x)

    h, pres, masks = x, [], []
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        pres.append(h @ w.data.T + b.data)
        h, mask = _where_form(pres[-1], slope)
        masks.append(mask)
        assert cache[len(pres)].tobytes() == h.tobytes()
    assert out.tobytes() == (h @ net.weights[-1].data.T + net.biases[-1].data).tobytes()
    assert len(cache) == 3 and cache[0] is x
    for mask, h_cached in zip(masks, cache[1:]):
        assert nets.leaky_relu_mask(h_cached, slope).tobytes() == mask.tobytes()
    # the edge cases are really there (a matmul sums from +0.0, so -0.0
    # cannot reach a pre-activation; the elementwise test covers it)
    first = pres[0]
    assert (first[0] == 0.0).all() and not np.signbit(first[0]).any()
    assert ((first[1] != 0.0) & (np.abs(first[1]) < 2.2250738585072014e-308)).any()
    assert np.isnan(first[2]).all() and np.isnan(out[2]).all()
    assert all((p > 0.0).any() and (p < 0.0).any() for p in pres)


def _pre_activations(net, x):
    pres, h = [], x
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        pres.append(h @ w.data.T + b.data)
        h = np.where(pres[-1] > 0.0, pres[-1], net.slope * pres[-1])
    return pres


def _central_input_grad(net, x, step=1e-6):
    out = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        hi, lo = x.copy(), x.copy()
        hi[idx] += step
        lo[idx] -= step
        diff = net.forward(hi)[0].sum() - net.forward(lo)[0].sum()
        out[idx] = diff / (2.0 * step)
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_input_grad_matches_central_differences(seed):
    rng = np.random.default_rng(seed)
    net = DenseNet([5, 7, 6, 2], rng, 0.3)
    set_params(net, [p.data + 0.1 * rng.normal(size=p.shape) for p in oracle.params(net)])
    x = rng.normal(size=(4, 5))
    pres = _pre_activations(net, x)
    # both mask branches are active, and every stencil stays off the kinks
    assert all((p > 0.0).any() and (p < 0.0).any() for p in pres)
    assert min(np.abs(p).min() for p in pres) > 1e-4
    g = oracle.input_grad(net, x)
    assert g.shape == x.shape
    np.testing.assert_allclose(g.data, _central_input_grad(net, x), rtol=1e-6, atol=1e-8)


def test_input_grad_is_a_graph_node_of_the_weights():
    rng = np.random.default_rng(4)
    net = DenseNet([3, 5, 4, 1], rng, 0.2)
    x = rng.normal(size=(6, 3))
    assert min(np.abs(p).min() for p in _pre_activations(net, x)) > 1e-3
    def value_and_grads():
        loss = engine.tsum(oracle.input_grad(net, x) ** 2.0)
        return loss.item(), engine.backward(loss, oracle.params(net))

    assert max_fd_error(value_and_grads, [p.data for p in oracle.params(net)]) < 1e-6


def test_set_params_validates():
    net = DenseNet([2, 2], np.random.default_rng(0), 0.2)
    with pytest.raises(ConfigurationError):
        set_params(net, [np.eye(2)])
    with pytest.raises(ConfigurationError):
        set_params(net, [np.eye(3), np.zeros(2)])


def test_adam_first_step_unit_gradient():
    p = np.array([1.0])
    opt = AdamState([p], lr=0.01, beta1=0.5, beta2=0.999)
    opt.step([np.array([1.0])])
    # bias-corrected first step moves by lr/(1 + eps) regardless of betas
    assert abs((p[0] - 1.0) + 0.01) < 1e-9
    assert opt.t == 1


def test_adam_zero_gradients_leave_params_fixed():
    p = np.array([0.7, -0.3])
    opt = AdamState([p], lr=0.1, **_BETAS)
    before = p.copy()
    for _ in range(25):
        opt.step([np.zeros(2)])
    np.testing.assert_array_equal(p, before)


def test_adam_second_moment_accumulates():
    p = np.array([0.0])
    opt = AdamState([p], lr=0.01, **_BETAS)
    opt.step([np.array([2.0])])
    v1 = opt.v[0].copy()
    opt.step([np.array([2.0])])
    assert opt.v[0][0] >= v1[0]


def test_adam_rejects_bad_gradients():
    p = np.array([1.0])
    opt = AdamState([p], lr=0.01, **_BETAS)
    with pytest.raises(NumericFailure):
        opt.step([np.array([np.nan])])
    np.testing.assert_array_equal(p, [1.0])  # rejected before mutation
    for bad in ([np.array([1.0]), np.array([1.0])], [np.array([1.0, 1.0])], [np.array([[1.0]])]):
        with pytest.raises(UsageError):
            opt.step(bad)
    assert opt.t == 0


def test_adam_steps_only_float64_or_float32_vectors_of_one_dtype():
    for bad in ([np.zeros((2, 2))], [np.zeros(2, dtype=np.float16)], [Tensor(np.zeros(2))],
                [np.zeros(2), np.zeros(2, dtype=np.float32)]):
        with pytest.raises(UsageError):
            AdamState(bad, lr=0.01, **_BETAS)
    for dtype in (np.float64, np.float32):
        opt = AdamState([np.zeros(2, dtype), np.zeros(3, dtype)], lr=0.01, **_BETAS)
        assert opt.dtype == dtype and all(a.dtype == dtype for a in opt.m + opt.v)


def test_adam_refuses_an_eps_hat_that_underflows_in_its_dtype():
    # eps * sqrt(1 - beta2) = 1e-46 is a float64 but rounds to zero in float32
    assert AdamState([np.zeros(2)], lr=0.01, beta1=0.5, beta2=0.99, eps=1e-45)
    with pytest.raises(ConfigurationError, match="float32"):
        AdamState([np.zeros(2, np.float32)], lr=0.01, beta1=0.5, beta2=0.99, eps=1e-45)


@pytest.mark.parametrize("convert", [
    lambda g: g.tolist(),
    lambda g: g.astype(np.float32),
    lambda g: np.repeat(g, 2)[::2],  # a strided float64 view
], ids=["list", "float32", "strided-view"])
def test_adam_converts_any_gradient_as_asarray_does(convert):
    rng = np.random.default_rng(17)
    start, grads = rng.normal(size=7), [convert(rng.normal(size=7)) for _ in range(3)]

    def stepped(gradients):
        opt = AdamState([start.copy()], lr=0.01, **_BETAS)
        for g in gradients:
            opt.step([g])
        return [a.tobytes() for a in opt.params + opt.m + opt.v]

    assert stepped(grads) == stepped([np.asarray(g, dtype=np.float64) for g in grads])


@pytest.mark.parametrize("bad", [np.zeros(6), np.zeros((7, 1)), np.zeros(6).tolist(),
                                 np.zeros(8, dtype=np.float32), np.zeros(14)[::2][:6]])
def test_adam_refuses_a_wrong_shape_gradient_and_changes_nothing(bad):
    rng = np.random.default_rng(18)
    opt = AdamState([rng.normal(size=7)], lr=0.01, **_BETAS)
    opt.step([rng.normal(size=7)])
    before = [a.tobytes() for a in opt.params + opt.m + opt.v]
    with pytest.raises(UsageError):
        opt.step([bad])
    assert [a.tobytes() for a in opt.params + opt.m + opt.v] == before
    assert opt.t == 1


def _critic_pair(rng):
    """Two nets of the critic pair's shapes at the synthetic preset, with
    nonzero biases."""
    pair = [DenseNet([48, 128, 128, 1], rng, 0.2), DenseNet([96, 128, 128, 1], rng, 0.2)]
    for net in pair:
        net.flat += 0.1 * rng.normal(size=net.flat.size)
    return pair


def _adam_against_a_per_parameter_reference(pair, rng, lr_scale=1.0, unit=bounds.U64):
    """60 steps of one AdamState over the pair's flat vectors against the
    textbook update of each parameter apart, at lr * lr_scale, both in the
    pair's dtype, whose unit roundoff is `unit`: m and v must keep their
    bits, and each parameter must stay within `bounds.adam_drift` of the
    textbook form's. Returns the largest |p - reference| / bound."""
    lr, b1, b2, eps = 0.01, _BETAS["beta1"], _BETAS["beta2"], 1e-8
    dtype = pair[0].flat.dtype
    opt = AdamState([net.flat for net in pair], lr=lr, **_BETAS)
    refs = [[a.copy() for a in net.views(net.flat)] for net in pair]
    ref_m = [[np.zeros(a.shape, dtype) for a in ref] for ref in refs]
    ref_v = [[np.zeros(a.shape, dtype) for a in ref] for ref in refs]
    drift = [[np.zeros(a.shape) for a in ref] for ref in refs]
    for t in range(1, 61):
        # drawn transposed, as the engine lays out a weight gradient
        grads = [[rng.normal(size=a.shape[::-1]).T.astype(dtype) for a in ref] for ref in refs]
        assert not grads[0][0].flags.c_contiguous
        opt.step([np.concatenate([g.ravel() for g in gs]) for gs in grads])
        c1, c2 = 1.0 - b1**t, 1.0 - b2**t
        for ref, rm, rv, rd, gs in zip(refs, ref_m, ref_v, drift, grads):
            for p, m, v, d, g in zip(ref, rm, rv, rd, gs):
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * np.square(g)
                step = (lr * lr_scale) * (m / c1) / (np.sqrt(v / c2) + eps)
                p -= step
                d[...] = bounds.adam_drift(d, step, p, unit)

    def cat(arrays):
        return np.concatenate([a.ravel() for a in arrays])

    worst = 0.0
    for net, m, v, ref, rm, rv, rd in zip(pair, opt.m, opt.v, refs, ref_m, ref_v, drift):
        assert m.tobytes() == cat(rm).tobytes() and v.tobytes() == cat(rv).tobytes()
        gap = np.abs(net.flat.astype(np.float64) - cat(ref))
        worst = max(worst, float(np.max(gap / cat(rd))))
    assert opt.t == 60
    return worst


def test_flat_adam_matches_a_per_parameter_reference():
    rng = np.random.default_rng(8)
    assert _adam_against_a_per_parameter_reference(_critic_pair(rng), rng) <= 1.0


def test_adam_bound_fails_a_rate_scaled_by_1e_9():
    rng = np.random.default_rng(8)
    assert _adam_against_a_per_parameter_reference(_critic_pair(rng), rng, 1.0 + 1e-9) > 1.0


def _narrowed(pair):
    """Float32 copies of float64 nets."""
    out = [DenseNet(net.layer_dims, None, net.slope, np.float32) for net in pair]
    for narrow, wide in zip(out, pair):
        narrow.flat[...] = wide.flat
    return out


def test_float32_adam_matches_a_per_parameter_reference_at_u_2_24():
    rng = np.random.default_rng(8)
    pair = _narrowed(_critic_pair(rng))
    assert _adam_against_a_per_parameter_reference(pair, rng, unit=bounds.U32) <= 1.0


def test_float32_adam_bound_fails_a_rate_scaled_by_1e_5():
    rng = np.random.default_rng(8)
    pair = _narrowed(_critic_pair(rng))
    assert _adam_against_a_per_parameter_reference(pair, rng, 1.0 + 1e-5, bounds.U32) > 1.0


def test_float32_adam_on_parameters_past_2_126_matches_the_reference():
    # An entry past float32's _SAFE sends every step through the copies.
    rng = np.random.default_rng(8)
    pair = _narrowed(_critic_pair(rng))
    pair[1].bs[0][3] = 2.0**127
    assert _adam_against_a_per_parameter_reference(pair, rng, unit=bounds.U32) <= 1.0


def test_flat_adam_on_huge_parameters_matches_the_reference():
    # An entry past 2**1022 sends every step through the copies.
    rng = np.random.default_rng(8)
    pair = _critic_pair(rng)
    pair[1].biases[0].data[3] = 1e308
    assert _adam_against_a_per_parameter_reference(pair, rng) <= 1.0


def _past_one_block(rng):
    """A net of 2 * ADAM_BLOCK + 3 entries, stepped in a whole block and one
    with the three-entry tail folded in, and one under a block, both with
    nonzero biases."""
    pair = [DenseNet([329, 198, 1], rng, 0.2), DenseNet([48, 128, 128, 1], rng, 0.2)]
    assert pair[0].flat.size == 2 * nets.ADAM_BLOCK + 3
    assert pair[1].flat.size < nets.ADAM_BLOCK
    for net in pair:
        net.flat += 0.1 * rng.normal(size=net.flat.size)
    return pair


def test_blocked_adam_matches_the_reference_past_one_block():
    rng = np.random.default_rng(13)
    assert _adam_against_a_per_parameter_reference(_past_one_block(rng), rng) <= 1.0


def test_blocked_adam_on_huge_parameters_matches_the_reference_past_one_block():
    rng = np.random.default_rng(13)
    pair = _past_one_block(rng)
    pair[0].biases[-1].data[0] = 1e308  # in the tail block
    assert _adam_against_a_per_parameter_reference(pair, rng) <= 1.0


def test_blocked_adam_matches_the_reference_with_an_unfolded_tail():
    rng = np.random.default_rng(15)
    pair = [DenseNet([185, 200, 1], rng, 0.2), DenseNet([48, 128, 128, 1], rng, 0.2)]
    assert [b.size for b in nets._blocks([pair[0].flat])] == [nets.ADAM_BLOCK, 4633]
    for net in pair:
        net.flat += 0.1 * rng.normal(size=net.flat.size)
    assert _adam_against_a_per_parameter_reference(pair, rng) <= 1.0


_B = nets.ADAM_BLOCK


@pytest.mark.parametrize("n,sizes", [
    (0, []),
    (100, [100]),
    (_B, [_B]),
    (_B + _B // 8 - 1, [_B + _B // 8 - 1]),
    (_B + _B // 8, [_B, _B // 8]),
    (2 * _B + 3, [_B, _B + 3]),
    (33_056, [33_056]),  # the synthetic preset's generator: one block
])
def test_adam_folds_only_a_tail_under_an_eighth_of_a_block(n, sizes):
    assert [b.size for b in nets._blocks([np.zeros(n)])] == sizes
    assert nets.largest_block(n) == max(sizes, default=0)


def test_adam_steps_an_empty_vector_beside_others():
    rng = np.random.default_rng(16)
    start, grads = rng.normal(size=5), [rng.normal(size=5) for _ in range(3)]
    with_empty = AdamState([np.zeros(0), start.copy()], lr=0.01, **_BETAS)
    alone = AdamState([start.copy()], lr=0.01, **_BETAS)
    for g in grads:
        with_empty.step([np.zeros(0), g])
        alone.step([g])
    assert with_empty.params[1].tobytes() == alone.params[0].tobytes()


def test_optimizers_sharing_the_scratch_leave_the_bytes_of_lone_runs(monkeypatch):
    # The small optimizer steps first, so the shared pair grows between its
    # first and second steps; from then on both step through the grown pair.
    rng = np.random.default_rng(14)
    sizes = (100, 2 * nets.ADAM_BLOCK + 3)
    starts = [rng.normal(size=n) for n in sizes]
    grads = [[rng.normal(size=n) for _ in range(5)] for n in sizes]

    def optimizers():
        return [AdamState([p.copy()], lr=0.01, **_BETAS) for p in starts]

    def state(opt):
        return [a.tobytes() for a in opt.params + opt.m + opt.v]

    monkeypatch.setitem(nets._SCRATCH, np.dtype(np.float64), [np.empty(0), np.empty(0)])
    together = optimizers()
    for k in range(5):
        for opt, gs in zip(together, grads):
            opt.step([gs[k]])
    for opt, gs in zip(optimizers(), grads):
        for g in gs:
            opt.step([g])
        assert state(opt) == state(together.pop(0))


def test_adam_holds_two_parameter_sized_vectors():
    n = 3 * nets.ADAM_BLOCK + 5
    p, g = np.zeros(n), np.ones(n)
    pair = 2 * nets.largest_block(n) * 8
    tracemalloc.start()
    try:
        opt = AdamState([p], lr=0.01, **_BETAS)
        held, built = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        opt.step([g])
        stepped = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert built < 2 * n * 8 + pair
    assert stepped < pair + 16_384


def test_linear_softmax_fit_never_copies_its_features():
    # It gathers each minibatch's rows as it goes: a permuted copy of the
    # features per epoch would hold as much as the features themselves.
    rng = np.random.default_rng(19)
    features, rows = rng.normal(size=(20_000, 64)), rng.integers(0, 5, size=20_000)
    tracemalloc.start()
    try:
        nets.fit_linear_softmax(features, rows, 5, 2, 0.01, 128, **_BETAS, rng=rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < features.nbytes // 4


def test_adam_rejects_betas_outside_the_unit_interval():
    p = np.zeros(2)
    # 5e-324 * sqrt(1 - 0.999) underflows: eps_hat would be 0 at step 1
    for beta1, beta2, eps in [(1.0, 0.999, 1e-8), (0.5, -0.1, 1e-8), (0.5, 0.999, 0.0),
                              (0.5, 0.999, 5e-324)]:
        with pytest.raises(ConfigurationError):
            AdamState([p], lr=0.01, beta1=beta1, beta2=beta2, eps=eps)
    AdamState([p], lr=0.01, beta1=0.5, beta2=0.0, eps=5e-324)  # sqrt(c2) = 1: no underflow


def test_adam_refuses_a_step_whose_rate_overflows_and_changes_nothing():
    # At t = 1, alpha = lr * sqrt(c2) / c1 = 1e308 * 1 / 1e-10 overflows; even
    # a zero gradient would step by 0 * inf, so the step is refused whole.
    p = np.array([0.5, -0.25])
    opt = AdamState([p], lr=1e308, beta1=1.0 - 1e-10, beta2=0.0)
    with pytest.raises(NumericFailure), np.errstate(invalid="ignore", over="ignore"):
        opt.step([np.zeros(2)])
    assert p.tolist() == [0.5, -0.25] and opt.m[0].tolist() == [0.0, 0.0] and opt.t == 0


def test_flat_adam_nan_gradient_changes_nothing():
    rng = np.random.default_rng(9)
    params = [rng.normal(size=6), np.zeros(4)]
    opt = AdamState(params, lr=0.01, **_BETAS)
    opt.step([rng.normal(size=6), rng.normal(size=4)])
    before = [a.copy() for a in params + opt.m + opt.v]
    bad = rng.normal(size=4)
    bad[2] = np.nan  # in the last vector, after a finite one
    with pytest.raises(NumericFailure):
        opt.step([rng.normal(size=6), bad])
    assert [a.tobytes() for a in params + opt.m + opt.v] == [b.tobytes() for b in before]
    assert opt.t == 1


def _overflow_fixture(edge, lr):
    """A net whose output bias holds `edge`, stepped once by a zero step, and
    the next gradient: a step of about 0.94 * lr against each gradient's
    sign, which keeps the weights finite and runs the bias past the largest
    float."""
    rng = np.random.default_rng(10)
    net = DenseNet([3, 2], rng, 0.2)
    set_params(net, [net.weights[0].data, np.array([0.5, edge])])
    opt = AdamState([net.flat], lr=lr, **_BETAS)
    opt.step([np.zeros(8)])  # zero gradients: a zero step
    grad = np.concatenate([rng.normal(size=6), [0.0, 1.0]])
    return net, opt, grad


_OVERFLOWS = pytest.mark.parametrize(
    "edge, lr",
    # With lr 1e295 the bound on a step is under 2**1022, so only the size
    # of the parameter itself can tell that the step must not run in place.
    [(-1.7e308, 1e308), (-np.finfo(np.float64).max, 1e295)],
    ids=["huge-rate", "parameter-at-the-edge"],
)


@_OVERFLOWS
def test_flat_adam_overflowing_parameter_changes_nothing(edge, lr):
    net, opt, grad = _overflow_fixture(edge, lr)
    before = [a.copy() for a in [net.flat] + opt.m + opt.v]
    with pytest.raises(NumericFailure), np.errstate(over="ignore"):
        opt.step([grad])
    assert [a.tobytes() for a in [net.flat] + opt.m + opt.v] == [b.tobytes() for b in before]
    assert opt.t == 1
    grad[-1] = -1.0
    opt.step([grad])  # still usable
    assert opt.t == 2 and np.isfinite(net.flat).all()


def test_adam_copies_the_moments_only_while_a_step_could_overflow():
    # One huge step sends the update through copies of the moments; once m
    # has decayed under zero gradients, steps run in place again.
    n = 50_000
    p = np.zeros(n)
    opt = AdamState([p], lr=1e290, **_BETAS)

    def peak_bytes(g):
        tracemalloc.start()
        try:
            opt.step([g])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_bytes(np.full(n, 1e15)) > 2 * p.nbytes
    peaks = [peak_bytes(np.zeros(n)) for _ in range(60)]
    assert peaks[0] > 2 * p.nbytes
    assert max(peaks[-10:]) < p.nbytes // 10
    assert np.isfinite(p).all() and opt.t == 61


def _scan_bound(b):
    """The entry scan that the dot-product check stands in for: max|b| from
    b's max and min, NumericFailure if either is not finite."""
    hi, lo = float(np.max(b, initial=0.0)), float(np.min(b, initial=0.0))
    if not (np.isfinite(hi) and np.isfinite(lo)):
        raise NumericFailure("non-finite gradient; update rejected")
    return max(hi, -lo)


def _scan_in_range(b):
    safe = nets._SAFE[b.dtype]
    return bool(-safe < np.min(b, initial=0.0) and np.max(b, initial=0.0) < safe)


def _stepped_by(monkeypatch, scan: bool, start, grads):
    """The bytes of p, m and v after Adam steps `grads` from `start`, with
    the range checks by dot products or, with `scan`, by entry scans."""
    with monkeypatch.context() as patch:
        if scan:
            patch.setattr(nets, "_abs_bound", _scan_bound)
            patch.setattr(nets, "_in_range", _scan_in_range)
        opt = AdamState([a.copy() for a in start], lr=0.01, **_BETAS)
        for g in grads:
            opt.step(g)
        return [a.tobytes() for a in opt.params + opt.m + opt.v]


@pytest.mark.parametrize("entry", [1e200, -1e200, 1.3e154], ids=["1e200", "-1e200", "1.3e154"])
def test_adam_steps_a_finite_gradient_whose_square_norm_overflows(monkeypatch, entry):
    # 1.3e154 squares to a finite 1.7e308, but 100 such squares overflow.
    rng = np.random.default_rng(20)
    start = [rng.normal(size=100), rng.normal(size=3 * nets.ADAM_BLOCK)]
    grads = [[rng.normal(size=a.size) for a in start] for _ in range(3)]
    grads[1][0][:] = entry
    grads[2][1][nets.ADAM_BLOCK + 7] = entry  # in a later block
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.dot(grads[1][0], grads[1][0]))
        assert (_stepped_by(monkeypatch, False, start, grads)
                == _stepped_by(monkeypatch, True, start, grads))
        opt = AdamState([a.copy() for a in start], lr=0.01, **_BETAS)
        tracemalloc.start()
        try:
            opt.step(grads[1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < start[1].nbytes // 10  # the scan's max|g| bounds the step: in place


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_adam_refuses_a_non_finite_entry_in_a_later_block_and_changes_nothing(bad):
    rng = np.random.default_rng(21)
    opt = AdamState([rng.normal(size=7), rng.normal(size=2 * nets.ADAM_BLOCK)], lr=0.01, **_BETAS)
    opt.step([rng.normal(size=7), rng.normal(size=2 * nets.ADAM_BLOCK)])
    before = [a.tobytes() for a in opt.params + opt.m + opt.v]
    g = rng.normal(size=2 * nets.ADAM_BLOCK)
    g[-3] = bad  # the second vector's second block
    with pytest.raises(NumericFailure, match="non-finite gradient"):  # before any update
        opt.step([rng.normal(size=7), g])
    assert [a.tobytes() for a in opt.params + opt.m + opt.v] == before
    assert opt.t == 1


def test_adam_scans_a_parameter_block_over_2_512_and_steps_it_in_place(monkeypatch):
    # 2**600 squares past the largest float, so only a scan can clear the
    # block; being under 2**1022, it steps in place with the bytes of the scan.
    n = 50_000
    rng = np.random.default_rng(22)
    start = [rng.normal(size=n)]
    start[0][nets.ADAM_BLOCK + 11] = 2.0**600  # the second of two blocks
    grads = [[rng.normal(size=n)] for _ in range(3)]
    scanned = []
    original_max = nets._max

    def counting_max(b, *args, **kwargs):
        scanned.append(b.size)
        return original_max(b, *args, **kwargs)

    monkeypatch.setattr(nets, "_max", counting_max)
    opt = AdamState([start[0].copy()], lr=0.01, **_BETAS)
    tracemalloc.start()
    try:
        with np.errstate(over="ignore"):
            opt.step(grads[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scanned == [n - nets.ADAM_BLOCK]  # that block alone, and no gradient block
    assert peak < start[0].nbytes // 10  # in place: no copies
    with np.errstate(over="ignore"):
        for g in grads[1:]:
            opt.step(g)
    monkeypatch.undo()
    assert ([a.tobytes() for a in opt.params + opt.m + opt.v]
            == _stepped_by(monkeypatch, True, start, grads))


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(_FINITE, max_size=40)
       | st.lists(st.floats(-1e-150, 1e-150), max_size=40)  # squares that underflow
       | st.lists(st.floats(1e150, 1e155), max_size=40))  # squares near overflow
def test_adam_dot_bound_is_at_least_every_entry(entries):
    b = np.array(entries, dtype=np.float64)
    with np.errstate(over="ignore"):
        assert nets._abs_bound(b) >= np.max(np.abs(b), initial=0.0)
        assert nets._in_range(b) == _scan_in_range(b)


_FINITE32 = st.floats(allow_nan=False, allow_infinity=False, width=32)


@settings(max_examples=300, deadline=None)
@given(st.lists(_FINITE32, max_size=40)
       | st.lists(st.floats(-2.0**-66, 2.0**-66, width=32), max_size=40)  # squares that underflow
       | st.lists(st.floats(2.0**60, 2.0**66, width=32), max_size=40))  # squares near overflow
def test_adam_dot_bound_is_at_least_every_float32_entry(entries):
    b = np.array(entries, dtype=np.float32)
    assert nets._abs_bound(b) >= np.max(np.abs(b), initial=0.0)
    assert nets._in_range(b) == _scan_in_range(b)


def _params_view_flat(net) -> bool:
    """Whether every parameter's data is a view into net.flat, at its place
    in the layout."""
    cat = np.concatenate([p.data.ravel() for p in oracle.params(net)])
    return all(np.shares_memory(p.data, net.flat) for p in oracle.params(net)) and (
        cat.tobytes() == net.flat.tobytes()
    )


def test_parameters_stay_views_of_the_flat_vector():
    rng = np.random.default_rng(12)
    net = DenseNet([4, 6, 3], rng, 0.2)
    assert _params_view_flat(net)
    set_params(net, [rng.normal(size=p.shape) for p in oracle.params(net)])
    assert _params_view_flat(net)
    before = net.flat.copy()
    AdamState([net.flat], lr=0.01, **_BETAS).step([rng.normal(size=net.flat.size)])
    assert _params_view_flat(net) and net.flat.tobytes() != before.tobytes()


@_OVERFLOWS
def test_parameters_stay_views_through_a_copy_path_step(edge, lr):
    net, opt, grad = _overflow_fixture(edge, lr)
    with pytest.raises(NumericFailure), np.errstate(over="ignore"):
        opt.step([grad])
    grad[-1] = -1.0
    before = net.flat.copy()
    opt.step([grad])  # the parameter at the edge sends it through the copies
    assert _params_view_flat(net) and net.flat.tobytes() != before.tobytes()


def test_a_net_built_without_an_rng_starts_at_zero():
    net = DenseNet([4, 5, 3], None, 0.2)
    assert net.flat.tobytes() == np.zeros(nets.param_count([4, 5, 3])).tobytes()


def test_loaded_generator_views_its_flat_vector(tmp_path, monkeypatch):
    cfg = Config(hidden_mult=2, temb_dim=4)
    trained = Generator(3, 2, cfg, np.random.default_rng(13))
    trained.net.flat += np.random.default_rng(14).normal(size=trained.net.flat.size)
    path = tmp_path / "generator.ckpt"
    gan.save_generator(path, trained, cfg, 3)
    rngs = []
    built = gan.DenseNet

    def recording(dims, rng, slope, dtype):
        rngs.append(rng)
        return built(dims, rng, slope, dtype)

    monkeypatch.setattr(gan, "DenseNet", recording)
    # the file's settings replace the defaults the caller passes in
    loaded, loaded_cfg, epoch = gan.load_generator(path, 3, 2, Config())
    assert rngs == [None]  # no initialisation is drawn for weights the file overwrites
    assert _params_view_flat(loaded.net)
    assert loaded.net.flat.tobytes() == trained.net.flat.tobytes()
    assert loaded_cfg == cfg and epoch == 3
    again = tmp_path / "again.ckpt"
    gan.save_generator(again, loaded, loaded_cfg, epoch)
    assert again.read_bytes() == path.read_bytes()


def test_a_float32_generator_file_round_trips_bit_for_bit(tmp_path):
    # The payload is float64: the float32 vector widens exactly, and the
    # file's dtype narrows it back exactly on load.
    cfg = Config(hidden_mult=2, temb_dim=4, dtype="float32")
    trained = Generator(3, 2, cfg, np.random.default_rng(13))
    trained.net.flat += np.random.default_rng(14).normal(size=trained.net.flat.size)
    path = tmp_path / "generator.ckpt"
    gan.save_generator(path, trained, cfg, 3)
    _, payload, settings = nets.load_checkpoint(path)
    assert payload.dtype == "<f8" and settings["dtype"] == "float32"
    assert payload.tobytes() == trained.net.flat.astype(np.float64).tobytes()
    loaded, loaded_cfg, epoch = gan.load_generator(path, 3, 2, Config())
    assert loaded.net.flat.dtype == np.float32 and loaded.temb.dtype == np.float32
    assert loaded.net.flat.tobytes() == trained.net.flat.tobytes()
    assert loaded_cfg == cfg and epoch == 3
    again = tmp_path / "again.ckpt"
    gan.save_generator(again, loaded, loaded_cfg, epoch)
    assert again.read_bytes() == path.read_bytes()


_BETA = st.floats(1e-6, 0.999, allow_subnormal=False)


@settings(max_examples=40, deadline=None)
@given(hidden_mult=st.integers(1, 3), temb_dim=st.integers(0, 6),
       slope=st.floats(0.0, 1.0).filter(nets.exact_slope), steps=st.integers(1, 8),
       betas=st.tuples(_BETA, _BETA).map(sorted), standardize=st.booleans(),
       epoch=st.integers(0, 10**6),
       dataset=st.none() | st.binary().map(lambda b: hashlib.sha256(b).hexdigest()))
def test_every_settings_line_round_trips_through_load_and_save(
        tmp_path_factory, hidden_mult, temb_dim, slope, steps, betas, standardize, epoch, dataset):
    cfg = Config(hidden_mult=hidden_mult, temb_dim=temb_dim, leaky_slope=slope,
                 diffusion_steps=steps, beta_min=betas[0], beta_max=betas[1],
                 standardize=standardize)
    folder = tmp_path_factory.mktemp("files")
    gen = Generator(3, 2, cfg, np.random.default_rng(epoch))
    gan.save_generator(folder / "generator.ckpt", gen, cfg, epoch)
    loaded, loaded_cfg, loaded_epoch = gan.load_generator(folder / "generator.ckpt", 3, 2, Config())
    gan.save_generator(folder / "again.ckpt", loaded, loaded_cfg, loaded_epoch)
    written = (folder / "generator.ckpt").read_bytes()
    assert (folder / "again.ckpt").read_bytes() == written
    for line in (f"epoch = {epoch}\n" + format_config(cfg, gan.GENERATOR_KEYS)).splitlines():
        assert line.encode() + b"\n" in written

    # the reward file's lines: its feature space and the fingerprint of the
    # dataset it was fit on; a file from before the second line is refused
    space = format_config(cfg, ["standardize"])
    rng = np.random.default_rng(epoch)
    model = SoftmaxClassifier(rng.normal(size=(3, 4)), rng.normal(size=3))
    if dataset is None:
        save_checkpoint(folder / "reward.ckpt", reward.REWARD_TAG, [4, 3],
                        np.concatenate([model.weight.ravel(), model.bias]), space)
        with pytest.raises(ConfigurationError, match=r"fit on dataset \(none recorded\)"):
            reward.load_reward(folder / "reward.ckpt", standardize, "0" * 64)
        return
    reward.save_reward(folder / "reward.ckpt", model, standardize, dataset)
    loaded = reward.load_reward(folder / "reward.ckpt", standardize, dataset)
    reward.save_reward(folder / "reward-again.ckpt", loaded, standardize, dataset)
    written = (folder / "reward.ckpt").read_bytes()
    space += f"dataset = {dataset}\n"
    assert (folder / "reward-again.ckpt").read_bytes() == written and space.encode() in written


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda text: text + "lr_adv = 0.1\n", r"'hidden_mult', 'leaky_slope', 'lr_adv'"),
        (lambda text: text.replace("epoch = 3\n", ""), "records epoch ''"),
        (lambda text: text.replace("temb_dim = 4\n", ""), r"'standardize'\], not an epoch"),
        (lambda text: text.replace("epoch = 3", "epoch = -1"), "records epoch '-1'"),
        (lambda text: text.replace("epoch = 3", "epoch = three"), "records epoch 'three'"),
        (lambda text: text.replace("leaky_slope = 0.2", "leaky_slope = 2.0"), "leaky_slope"),
        (lambda text: text.replace("standardize = false", "standardize = maybe"), "boolean"),
        (lambda text: text.replace("beta_min = 0.1", "beta_min = 0.5"), "betas must satisfy"),
        (lambda text: text.replace("hidden_mult = 2", "hidden_mult = 3"), "do not match"),
    ],
    ids=["unknown key", "no epoch", "no temb_dim", "negative epoch", "epoch not an integer",
         "slope out of range", "not a boolean", "bad schedule", "dims disagree"],
)
def test_generator_file_refuses_settings_that_do_not_rebuild_it(tmp_path, edit, match):
    cfg = Config(hidden_mult=2, temb_dim=4)
    gen = Generator(3, 2, cfg, np.random.default_rng(0))
    path = tmp_path / "generator.ckpt"
    gan.save_generator(path, gen, cfg, 3)
    assert gan.load_generator(path, 3, 2, Config())[2] == 3  # the file as written loads
    dims, flat, _ = load_checkpoint(path, b"GNET")
    text = "epoch = 3\n" + format_config(cfg, gan.GENERATOR_KEYS)
    save_checkpoint(path, b"GNET", dims, flat, edit(text))
    with pytest.raises(ConfigurationError, match=match):
        gan.load_generator(path, 3, 2, Config())


def test_timestep_table_matches_the_sinusoid_formula():
    def direct(t, dim):
        half = dim // 2
        freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half, 1))
        args = np.asarray(t, dtype=np.float64)[:, None] * freqs[None, :]
        emb = np.concatenate([np.sin(args), np.cos(args)], axis=1)
        return np.concatenate([emb, np.zeros((len(t), dim - 2 * half))], axis=1)

    steps = 20
    for dim in (16, 7):
        table = timestep_table(steps + 1, dim)
        np.testing.assert_array_equal(table, direct(np.arange(steps + 1), dim))
        # row t depends only on t and the width, not on the table's length
        np.testing.assert_array_equal(timestep_table(4, dim), table[:4])


def test_timestep_table_shape_and_boundary():
    emb = timestep_table(4, 8)[[0, 1, 3]]
    assert emb.shape == (3, 8)
    np.testing.assert_array_equal(emb[0, :4], np.zeros(4))  # sin(0)
    np.testing.assert_array_equal(emb[0, 4:], np.ones(4))  # cos(0)
    freqs = np.exp(-np.log(10000.0) * np.arange(4) / 4)
    np.testing.assert_allclose(emb[2, :4], np.sin(3 * freqs), atol=1e-15)
    np.testing.assert_allclose(emb[2, 4:], np.cos(3 * freqs), atol=1e-15)


def test_timestep_table_odd_width_zero_padded():
    emb = timestep_table(3, 5)[[2]]
    assert emb.shape == (1, 5)
    assert emb[0, 4] == 0.0


def test_checkpoint_round_trip_bitwise(tmp_path):
    net = DenseNet([3, 7, 2], np.random.default_rng(11), 0.2)
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, b"GNET", net.layer_dims, net.flat)
    dims, flat, settings = load_checkpoint(path, b"GNET")
    assert dims == [3, 7, 2] and settings == {}
    assert flat.dtype == np.float64 and flat.tobytes() == net.flat.tobytes()
    # re-saving the loaded vector reproduces the file exactly
    path2 = tmp_path / "net2.ckpt"
    save_checkpoint(path2, b"GNET", dims, flat)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_rejects_bad_tag_on_save(tmp_path):
    net = DenseNet([2, 2], np.random.default_rng(0), 0.2)
    with pytest.raises(UsageError):
        save_checkpoint(tmp_path / "x.ckpt", b"TOOLONG", net.layer_dims, net.flat)
    mismatched = [
        ([2, 3], np.zeros(8)),  # param_count([2, 3]) is 9
        ([2, 3], np.zeros((3, 3))),  # 9 entries, but not a vector
        ([2, 0, 3], np.zeros(3)),  # a layer of width 0
        ([2], np.zeros(0)),  # a single dim: no layer
    ]
    for dims, flat in mismatched:
        with pytest.raises(UsageError, match="checkpoint"):
            save_checkpoint(tmp_path / "x.ckpt", b"GNET", dims, flat)
    assert not (tmp_path / "x.ckpt").exists()


_BLOB_DIMS = [2, 3]
_BLOB_FLAT = np.arange(nets.param_count(_BLOB_DIMS), dtype=np.float64) / 4.0 - 1.0
_BLOB_SETTINGS = "epoch = 7\nnote = a = b\n"


def _valid_blob(settings: bytes = _BLOB_SETTINGS.encode()) -> bytes:
    """A v2 generator checkpoint over _BLOB_DIMS, packed by hand; the
    settings block starts at byte 28."""
    header = struct.pack("<4sI4sI2II", b"RLVC", 2, b"GNET", len(_BLOB_DIMS), *_BLOB_DIMS,
                         len(settings))
    return header + settings + struct.pack(f"<{_BLOB_FLAT.size}d", *_BLOB_FLAT)


def test_checkpoint_reads_and_writes_the_packed_format(tmp_path):
    path = tmp_path / "packed.ckpt"
    path.write_bytes(_valid_blob())
    dims, flat, settings = load_checkpoint(path, b"GNET")
    assert dims == _BLOB_DIMS and flat.tobytes() == _BLOB_FLAT.tobytes()
    assert settings == {"epoch": "7", "note": "a = b"}  # a value may hold " = "
    again = tmp_path / "again.ckpt"
    save_checkpoint(again, b"GNET", _BLOB_DIMS, _BLOB_FLAT, _BLOB_SETTINGS)
    assert again.read_bytes() == _valid_blob()


def test_a_checkpoint_write_that_fails_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "generator.ckpt"
    path.write_bytes(_valid_blob())

    class FullDisk(io.FileIO):
        """Takes the header, then half the payload, then runs out of space."""

        writes = 0

        def write(self, data):
            FullDisk.writes += 1
            if FullDisk.writes == 2:
                super().write(bytes(data)[: len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")
            return super().write(data)

    monkeypatch.setattr(nets, "open", lambda p, mode: FullDisk(p, "w"), raising=False)
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(path, b"GNET", _BLOB_DIMS, 2.0 * _BLOB_FLAT)
    assert FullDisk.writes == 2
    assert path.read_bytes() == _valid_blob()
    assert [p.name for p in tmp_path.iterdir()] == ["generator.ckpt"]


def test_the_reward_file_is_a_v2_header_then_weight_and_bias(tmp_path):
    rng = np.random.default_rng(5)
    weight, bias = rng.normal(size=(3, 4)), rng.normal(size=3)
    path = tmp_path / "reward.ckpt"
    reward.save_reward(path, SoftmaxClassifier(weight, bias), True, "f" * 64)
    lines = b"standardize = true\ndataset = " + b"f" * 64 + b"\n"
    header = struct.pack("<4sI4sI2II", b"RLVC", 2, b"RWDM", 2, 4, 3, len(lines))
    payload = struct.pack("<15d", *weight.ravel(), *bias)
    assert path.read_bytes() == header + lines + payload
    model = reward.load_reward(path, True, "f" * 64)
    assert model.weight.tobytes() == weight.tobytes() and model.bias.tobytes() == bias.tobytes()
    assert model.class_ids.tolist() == [0, 1, 2]
    with pytest.raises(ValueError):
        model.weight[0, 0] = 1.0


@pytest.mark.parametrize(
    "mutate",
    [
        lambda b: b"XXXX" + b[4:],  # magic
        lambda b: b[:4] + struct.pack("<I", 99) + b[8:],  # version
        lambda b: b[:8] + b"WHAT" + b[12:],  # kind tag
        lambda b: b[:12] + struct.pack("<I", 65) + b[16:],  # layer count
        lambda b: b[:-8],  # truncated params
        lambda b: b + b"\x00" * 8,  # trailing bytes
        lambda b: b[:10],  # truncated header
        lambda b: b[:12] + struct.pack("<I", 1) + b[16:],  # one dim: no layer
        lambda b: b[:4] + struct.pack("<I", 1) + b[8:],  # a v1 file
        lambda b: b[:24] + struct.pack("<I", len(b)) + b[28:],  # settings past the end
        lambda b: b[:31],  # truncated settings
        lambda b: _valid_blob(b"epoch 7\n"),  # a line without " = "
        lambda b: _valid_blob(b" = 7\n"),  # an empty key
        lambda b: _valid_blob(b"epoch = 7\nepoch = 8\n"),  # a key twice
        lambda b: _valid_blob(b"epoch = \xff\n"),  # not UTF-8
    ],
)
def test_checkpoint_rejects_corruption(tmp_path, mutate):
    blob = _valid_blob()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(mutate(blob))
    with pytest.raises(ConfigurationError):
        load_checkpoint(bad, b"GNET")


def test_checkpoint_tag_check_optional(tmp_path):
    net = DenseNet([2, 2], np.random.default_rng(0), 0.2)
    path = tmp_path / "r.ckpt"
    save_checkpoint(path, b"RWDM", net.layer_dims, net.flat)
    load_checkpoint(path)  # no expected tag: accepted
    with pytest.raises(ConfigurationError):
        load_checkpoint(path, b"GNET")


def test_checkpoint_magic_constant():
    assert CHECKPOINT_MAGIC == b"RLVC"
    assert nets.CHECKPOINT_VERSION == 2


@pytest.mark.parametrize("size, lo, hi", [(0, 0, 1), (1, -3, 3), (50, -5, 5), (400, -1000, 1000),
                                          (64, 7, 8)])
def test_distinct_is_np_unique(size, lo, hi):
    values = np.random.default_rng(size).integers(lo, hi, size=size)
    got, want = distinct(values), np.unique(values)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert distinct(values.reshape(-1, 1)).tolist() == want.tolist()  # flattened, as np.unique
