"""The package's numpy passes against the engine and the error-bound oracle.

A pass that sums in the order of the engine graph of its loss, built by
`oracle` from engine ops, must give the same bytes as engine.backward on it:
the generator's adversarial step with each cue loss, the policy-gradient
step, and the linear softmax fit that trains the reward model and the
evaluation heads. The critic pass stacks its real, fake and interpolated rows
into one forward and sums each weight gradient over all of them at once, so
it and the engine graph are each checked against `bounds`: within the
computed error bound of a reference whose every sum is exact. The float32
critic pass of the synthetic preset is checked against the same reference
at float32's unit roundoff, 2**-24 (the engine computes in float64 only,
so it has no float32 graph). A pass's
parameter gradient is one vector laid out like `DenseNet.flat`; the oracle's
per-parameter gradients are concatenated to match.
"""

from __future__ import annotations

import dataclasses
import logging

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from rlvc import cues, diffusion, engine, gan, nets, reward
from rlvc.config import Config
from rlvc.engine import Tensor
from rlvc.nets import DenseNet

import bounds
import oracle
from conftest import set_params

D, DZ, T = 6, 3, 4
SHAPE = Config(hidden_mult=4, temb_dim=4, leaky_slope=0.2)
SCHED = diffusion.build_schedule(T, 0.1, 0.4)
# Batch 1 once at each end of the timestep range, and batches 7 and 32
# spanning it. 1/7 is not exact in binary, so with batch 7 a mean taken as a
# division instead of the engine's product with 1/B shows.
BATCHES = pytest.mark.parametrize(
    "t",
    [np.array([0]), np.array([T - 1]), np.arange(7) % T, np.arange(32) % T],
    ids=["b1-t0", "b1-tlast", "b7", "b32"],
)


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _both_branches(net: DenseNet, x: np.ndarray) -> bool:
    """Whether some hidden unit is on each side of the kink for input x."""
    return all((m == 1.0).any() and (m == net.slope).any() for m in oracle.masks(net, x))


def _nets(seed: int, slope: float = SHAPE.leaky_slope, dtype: str = "float64"):
    """The generator and both critics, with nonzero biases; at float32, the
    float64 networks narrowed."""
    rng = np.random.default_rng(seed)
    shape = dataclasses.replace(SHAPE, leaky_slope=slope)
    wide = [cls(D, DZ, shape, rng) for cls in (gan.Generator, gan.CriticX0, gan.CriticXt)]
    for net in (m.net for m in wide):  # He init leaves zero biases
        set_params(net, [p.data + 0.1 * rng.normal(size=p.shape) for p in net.params])
    if dtype == "float64":
        return wide
    narrow = dataclasses.replace(shape, dtype=dtype)
    out = [type(m)(D, DZ, narrow, None) for m in wide]
    for m, w in zip(out, wide):
        m.net.flat[...] = w.net.flat
    return out


def _batch(t: np.ndarray, seed: int, dtype=np.float64):
    rng = np.random.default_rng(seed)
    b = t.size
    rows = {k: rng.normal(size=(b, w)) for k, w in
            (("real", D), ("fake", D), ("z", DZ), ("x_next", D), ("eps_g", D), ("eps_p", D))}
    return dict({k: a.astype(dtype) for k, a in rows.items()}, y=rng.integers(0, 3, size=b))


def _prototypes(seed: int):
    rng = np.random.default_rng(seed)
    return cues.mine_prototypes(rng.normal(size=(9, D)), np.repeat([0, 1, 2], 3), [0, 1, 2])


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("rows", [1, 7, 32])
def test_dense_pullback_matches_the_engine(seed, rows, slope=0.2):
    rng = np.random.default_rng(seed)
    net = DenseNet([5, 7, 7, 3], rng, slope)
    set_params(net, [p.data + 0.1 * rng.normal(size=p.shape) for p in net.params])
    x = rng.normal(size=(rows, 5))
    u = rng.normal(size=(rows, 3))
    assert _both_branches(net, x)

    out, cache = net.forward(x)
    xt = Tensor(x, requires_grad=True)
    graph = oracle.forward(net, xt)
    assert _same(out, graph.data)
    loss = engine.tsum(graph * Tensor(u))
    assert _same(net.pullback(cache, u), oracle.flat_grad(loss, net.params))
    assert _same(net.pullback(cache, u, wrt_input=True), engine.backward(loss, [xt])[0])


@pytest.mark.parametrize("slope", [0.0, 1.0])
@pytest.mark.parametrize("rows", [1, 32])
def test_dense_pullback_matches_the_engine_at_either_end_of_the_slope_range(rows, slope):
    test_dense_pullback_matches_the_engine(0, rows, slope)


def _critic_cases(cx0, cxt, b, t, gp=10.0):
    """Per critic: the loss function's arguments before the rng, the
    conditioning columns, and the seed of the rng it draws u from."""
    cond = cxt.condition(b["x_next"], b["z"], t)
    return [(gan.critic_x0_loss, (cx0, b["real"], b["fake"], b["z"], gp), cx0.net, b["z"], 5),
            (gan.critic_xt_loss, (cxt, b["real"], b["fake"], cond, gp),
             cxt.net, cond, 6)]


def _reference(net, b, cond, seed, gp=10.0, unit=bounds.U64):
    """The bounded critic loss and gradient at the u the pass draws from the
    rng of `seed`, narrowed to the dtype of `unit` as the pass narrows it."""
    u = np.random.default_rng(seed).uniform(size=(b["real"].shape[0], 1))
    return bounds.critic_reference(net, b["real"], b["fake"], cond, gp,
                                   u.astype(bounds.DTYPE[unit]), unit)


@BATCHES
@pytest.mark.parametrize("seed", [0, 1])
def test_critic_losses_match_the_engine(seed, t, slope=SHAPE.leaky_slope):
    # The stacked pass and the engine graph each lie within the bound of the
    # exact reference. At batch 1 and 7 the stacked forward changes bits.
    _, cx0, cxt = _nets(seed, slope)
    b = _batch(t, seed + 10)
    for loss_fn, args, net, cond, rng_seed in _critic_cases(cx0, cxt, b, t):
        assert _both_branches(net, np.concatenate([b["real"], cond], axis=1))
        ref_loss, ref_grad = _reference(net, b, cond, rng_seed)
        loss, grads = loss_fn(*args, np.random.default_rng(rng_seed))
        terms = oracle.critic_terms(net, b["real"], b["fake"], cond, args[-1],
                                    np.random.default_rng(rng_seed))
        assert bounds.within(loss, ref_loss) <= 1.0
        assert bounds.within(grads, ref_grad) <= 1.0
        assert bounds.within(terms.data, ref_loss) <= 1.0
        assert bounds.within(oracle.flat_grad(terms, net.params), ref_grad) <= 1.0


@pytest.mark.parametrize("slope", [0.0, 1.0])
def test_critic_losses_match_the_engine_at_either_end_of_the_slope_range(slope):
    test_critic_losses_match_the_engine(0, np.arange(32) % T, slope)


# Float32's bound is 2**29 times float64's, and so is its kink margin: at
# seeds 0, 2 and 3 a pre-activation of some case lies inside it, where the
# bound holds for no pass (KinkTooClose). These seeds clear it in every case.
F32_SEEDS = [1, 4]


@BATCHES
@pytest.mark.parametrize("seed", F32_SEEDS)
def test_float32_critic_losses_are_within_the_bound_at_u_2_24(seed, t, slope=SHAPE.leaky_slope):
    # The float64 cases above, on the narrowed networks and batch.
    _, cx0, cxt = _nets(seed, slope, "float32")
    b = _batch(t, seed + 10, np.float32)
    for loss_fn, args, net, cond, rng_seed in _critic_cases(cx0, cxt, b, t):
        ref_loss, ref_grad = _reference(net, b, cond, rng_seed, unit=bounds.U32)
        loss, grads = loss_fn(*args, np.random.default_rng(rng_seed))
        assert loss.dtype == grads.dtype == np.float32
        assert bounds.within(loss, ref_loss) <= 1.0
        assert bounds.within(grads, ref_grad) <= 1.0


@pytest.mark.parametrize("slope", [0.0, 1.0])
def test_float32_critic_losses_are_within_the_bound_at_either_end_of_the_slope_range(slope):
    test_float32_critic_losses_are_within_the_bound_at_u_2_24(F32_SEEDS[0], np.arange(32) % T,
                                                              slope)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 64),
       slope=st.sampled_from([0.0, 0.2, 1.0]), dtype=st.sampled_from(["float64", "float32"]))
def test_stacked_critic_pass_is_within_the_bound(seed, rows, slope, dtype):
    unit = {"float64": bounds.U64, "float32": bounds.U32}[dtype]
    _, cx0, cxt = _nets(seed, slope, dtype)
    t = np.random.default_rng(seed).integers(0, T, size=rows)
    b = _batch(t, seed + 1, dtype)
    for loss_fn, args, net, cond, rng_seed in _critic_cases(cx0, cxt, b, t):
        try:  # inputs are drawn with the kink margin: the bound covers no flipped mask
            ref_loss, ref_grad = _reference(net, b, cond, rng_seed, unit=unit)
        except bounds.KinkTooClose:
            reject()
        loss, grads = loss_fn(*args, np.random.default_rng(rng_seed))
        assert bounds.within(loss, ref_loss) <= 1.0
        assert bounds.within(grads, ref_grad) <= 1.0


def _fails_a_scaled_gradient_entry(t, scale, dtype, unit, seed=0):
    _, cx0, cxt = _nets(seed, dtype=dtype)
    b = _batch(t, seed + 10, dtype)
    for loss_fn, args, net, cond, rng_seed in _critic_cases(cx0, cxt, b, t):
        _, ref_grad = _reference(net, b, cond, rng_seed, unit=unit)
        _, grads = loss_fn(*args, np.random.default_rng(rng_seed))
        grads[np.argmax(np.abs(ref_grad.v))] *= 1.0 + scale
        assert bounds.within(grads, ref_grad) > 1.0


@BATCHES
def test_critic_bound_fails_a_gradient_entry_scaled_by_1e_9(t):
    _fails_a_scaled_gradient_entry(t, 1e-9, "float64", bounds.U64)


@BATCHES
def test_float32_critic_bound_fails_a_gradient_entry_scaled_by_1e_2(t):
    # The float64 control, 1 + 1e-9, is about 9e6 unit roundoffs and reads
    # 1,100-3,000 times the bound. At u = 2**-24, 1 + 1e-2 is about 1.7e5
    # unit roundoffs and reads 6.7-46 here; 1 + 1e-5 reads under 0.07 and
    # 1 + 1e-3 reads 0.67-4.6, inside the bound in some cases: an error of
    # 1e-5 of the largest entry lies inside a float32 pass's rounding.
    _fails_a_scaled_gradient_entry(t, 1e-2, "float32", bounds.U32, F32_SEEDS[0])


class _Flipped:
    """An rng whose uniform draw is 1 - u: with real and fake swapped, the
    interpolates are those of u, while the Wasserstein terms swap signs."""

    def __init__(self, u):
        self.u = u

    def uniform(self, size):
        return 1.0 - self.u


def _fails_swapped_signs(t, dtype, unit, seed=0):
    _, cx0, cxt = _nets(seed, dtype=dtype)
    b = _batch(t, seed + 10, dtype)
    for loss_fn, args, net, cond, rng_seed in _critic_cases(cx0, cxt, b, t):
        ref_loss, ref_grad = _reference(net, b, cond, rng_seed, unit=unit)
        u = np.random.default_rng(rng_seed).uniform(size=(t.size, 1))
        swapped = (args[0], args[2], args[1], *args[3:])
        loss, grads = loss_fn(*swapped, _Flipped(u))
        assert bounds.within(loss, ref_loss) > 1.0
        assert bounds.within(grads, ref_grad) > 1.0


@BATCHES
def test_critic_bound_fails_a_pass_with_real_and_fake_signs_swapped(t):
    _fails_swapped_signs(t, "float64", bounds.U64)


@BATCHES
def test_float32_critic_bound_fails_a_pass_with_real_and_fake_signs_swapped(t):
    _fails_swapped_signs(t, "float32", bounds.U32, F32_SEEDS[0])


@BATCHES
@pytest.mark.parametrize("with_cues", [True, False], ids=["pd", "None"])
def test_generator_step_matches_the_engine(with_cues, t):
    gen, cx0, cxt = _nets(2)
    b = _batch(t, 12)
    v = _prototypes(3)[b["y"]]
    lambda_pd = 0.7
    z, x_next = b["z"], b["x_next"]
    assert _both_branches(gen.net, gen._inputs(b["eps_g"], z, x_next, t + 1))

    # the trainer's rows: a forward, then the posterior sample of its output
    x0_tilde, cache = gen.synthesize(b["eps_g"], z, x_next, t + 1)
    xt_tilde = diffusion.posterior_sample(x0_tilde, x_next, t, SCHED, np.random.default_rng(13))
    eps_p = np.random.default_rng(13).standard_normal(x0_tilde.shape)
    loss, g_x0 = gan.generator_adv_terms(cx0, cxt, x0_tilde, xt_tilde, z,
                                         cxt.condition(x_next, z, t), SCHED.c1[t])
    oracle_x0 = oracle.synthesize(gen, b["eps_g"], z, x_next, t + 1)
    adv, oracle_xt = oracle.generator_adv_terms(cx0, cxt, oracle_x0, z, x_next, t, SCHED, eps_p)
    assert _same(x0_tilde, oracle_x0.data) and _same(xt_tilde, oracle_xt.data)
    assert _same(loss, adv.data)
    total = adv
    if with_cues:
        value, contributions = cues.cue_loss(x0_tilde, v, lambda_pd)
        cue = oracle.cue_loss(oracle_x0, v)
        assert _same(value, cue.data)
        for g in contributions:
            g_x0 = g_x0 + g
        total = adv + lambda_pd * cue
    assert _same(gen.net.pullback(cache, g_x0), oracle.flat_grad(total, gen.net.params))


def test_cue_pass_matches_the_engine_on_a_zero_norm_row(caplog):
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, D))
    x[2] = 0.0
    y = rng.integers(0, 3, size=5)
    v = _prototypes(5)[y]
    with caplog.at_level(logging.WARNING, logger="rlvc.cues"):
        value, contributions = cues.cue_loss(x, v, 0.7)
    assert "zero norm" in caplog.text
    xt = Tensor(x, requires_grad=True)
    cue = oracle.cue_loss(xt, v)
    grad = contributions[0]
    for g in contributions[1:]:
        grad = grad + g
    assert _same(value, cue.data)
    assert _same(grad, engine.backward(cue * 0.7, [xt])[0])


@BATCHES
def test_rl_step_matches_the_engine(t):
    gen, _, _ = _nets(6)
    b = _batch(t, 16)
    rng = np.random.default_rng(7)
    model = nets.SoftmaxClassifier(rng.normal(size=(3, D)), rng.normal(size=3))

    x0, cache = gen.synthesize(b["eps_g"], b["z"], b["x_next"], t + 1)
    log_probs, lp_cache = reward.class_log_probs(model, x0, b["y"])
    oracle_x0 = oracle.synthesize(gen, b["eps_g"], b["z"], b["x_next"], t + 1)
    oracle_lp = oracle.class_log_probs(model, oracle_x0, b["y"])
    assert _same(log_probs, oracle_lp.data)

    loss, g_x0 = reward.rl_loss(log_probs, lp_cache)
    oracle_loss = oracle.rl_loss(oracle_lp)
    assert _same(loss, oracle_loss.data)
    assert _same(gen.net.pullback(cache, g_x0), oracle.flat_grad(oracle_loss, gen.net.params))


def test_rl_pass_matches_the_engine_at_saturated_logits():
    # The pass reads each label's log-prob and subtracts 1/B there instead
    # of multiplying by a one-hot row. The two differ in the sign of the
    # zeros off the label, which may show only where exp underflows to 0,
    # so this batch has such entries, and rows whose label's log-prob is 0.
    rng = np.random.default_rng(11)
    model = nets.SoftmaxClassifier(300.0 * rng.normal(size=(4, D)), rng.normal(size=4))
    x = rng.normal(size=(6, D))
    logits = model.logits(x)
    y = np.argmax(logits, axis=1)
    y[3:] = np.argmin(logits[3:], axis=1)
    assert np.any(np.exp(logits - logits.max(axis=1, keepdims=True)) == 0.0)
    log_probs, lp_cache = reward.class_log_probs(model, x, y)
    assert np.any(log_probs == 0.0)
    loss, g_x = reward.rl_loss(log_probs, lp_cache)

    xt = Tensor(x, requires_grad=True)
    oracle_lp = oracle.class_log_probs(model, xt, y)
    oracle_loss = oracle.rl_loss(oracle_lp)
    assert _same(log_probs, oracle_lp.data)
    assert _same(loss, oracle_loss.data)
    assert _same(g_x, engine.backward(oracle_loss, [xt])[0])


@pytest.mark.parametrize(
    "n, d, classes, batch, epochs",
    # The eval-sweep GZSL head fits 20 seen classes' 960 training rows plus
    # 400 synthesized rows for each of 5 unseen classes, in minibatches of
    # 128: its last minibatch has 16 rows. Its 3 epochs are 72 Adam steps,
    # past step 54, where the steps skip the division by c1 = 1.0. The CZSL
    # head fits the 2000 synthesized rows over the 5 unseen classes: its
    # last minibatch has 80 rows.
    [(37, 5, 4, 8, 3), (10, 5, 4, 16, 3), (9, 3, 1, 4, 3), (20, 4, 6, 3, 2),
     (2960, 32, 25, 128, 3), (2000, 32, 5, 128, 3)],
    ids=["short-last-batch", "batch-covers-all", "one-class", "batch-misses-classes",
         "eval-sweep-gzsl", "eval-sweep-czsl"],
)
def test_linear_softmax_fit_matches_the_engine(n, d, classes, batch, epochs):
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, d))
    rows = rng.integers(0, classes, size=n)
    args = (x, rows, classes, epochs, 0.01, batch, 0.5, 0.999)
    w, b = nets.fit_linear_softmax(*args, np.random.default_rng(1))
    ref_w, ref_b = oracle.fit_linear_softmax(*args, np.random.default_rng(1))
    assert _same(w, ref_w) and _same(b, ref_b)
    assert np.any(w) == (classes > 1)  # one class: the gradient is exactly 0


# Every (fan_in, fan_out) of a layer the synthetic preset trains: the critics
# 48 -> 128 -> 128 -> 1 and 96 -> 128 -> 128 -> 1, the generator
# 96 -> 128 -> 128 -> 32, and the evaluation heads and the reward model,
# 32 -> 5, 20 and 25 classes.
PIPELINE_LAYERS = [(48, 128), (96, 128), (128, 128), (128, 1), (128, 32), (32, 5), (32, 20), (32, 25)]


def test_row_major_weight_gradient_is_the_engines_bytes():
    # The passes write a weight gradient as u.T @ x into a slice of a flat
    # vector; engine.linear's reverse pass forms (x.T @ u).T. The two sum the
    # same products, but only a BLAS that orders the sums alike gives the
    # same bits, so every layer shape the pipeline trains is checked at
    # every minibatch size up to 128 rows.
    rng = np.random.default_rng(0)
    differ = []
    for fan_in, fan_out in PIPELINE_LAYERS:
        vector = np.empty(fan_out * (fan_in + 1) + 1)
        row_major = vector[1 : 1 + fan_out * fan_in].reshape(fan_out, fan_in)
        for rows in range(1, 129):
            x, u = rng.normal(size=(rows, fan_in)), rng.normal(size=(rows, fan_out))
            np.matmul(u.T, x, out=row_major)
            if not _same(row_major, (x.T @ u).T):
                differ.append(f"{rows}x{fan_in} -> {fan_out}")
    assert differ == [], f"u.T @ x and (x.T @ u).T differ at {differ}"
