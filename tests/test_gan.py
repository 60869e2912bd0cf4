"""Generator/critic losses: exact gradient-penalty cases, constant-critic
cancellation, and the reparameterized generator objective."""

from __future__ import annotations

import numpy as np
import pytest

from rlvc import diffusion, gan
from rlvc.config import Config
from rlvc.errors import UsageError
from rlvc.gan import CriticX0, CriticXt, Generator
from rlvc.nets import DenseNet, SoftmaxClassifier

import oracle
from conftest import max_fd_error, set_params


def _zero_net(net) -> None:
    set_params(net, [np.zeros_like(p.data) for p in oracle.params(net)])


def _transition(x0_tilde, x_next, t, sched, eps):
    """`diffusion.posterior_sample`'s x_t with its draw fixed to eps."""
    return (sched.c1[t] * x0_tilde + sched.c2[t] * x_next) + sched.sigma[t] * eps


def _constant_critic_x0(c: float, d=3, dz=2) -> CriticX0:
    critic = CriticX0(d, dz, Config(), np.random.default_rng(0))
    _zero_net(critic.net)
    arrays = [p.data.copy() for p in oracle.params(critic.net)]
    arrays[-1][:] = c  # output bias
    set_params(critic.net, arrays)
    return critic


def _unit_linear_critic_x0(w: np.ndarray, dz=2) -> CriticX0:
    """D(x, z) = w . x exactly, despite the leaky-relu hidden layers.

    Uses the identity (leaky(a) - leaky(-a)) / (1 + slope) = a: two mirrored
    units per layer reconstruct the linear pre-activation.
    """
    d = w.size
    critic = CriticX0(d, dz, Config(leaky_slope=0.2), np.random.default_rng(0))
    dims = critic.net.layer_dims
    W1 = np.zeros((dims[1], dims[0]))
    W1[0, :d] = w
    W1[1, :d] = -w
    W2 = np.zeros((dims[2], dims[1]))
    W2[0, 0], W2[0, 1] = 1 / 1.2, -1 / 1.2
    W2[1, 0], W2[1, 1] = -1 / 1.2, 1 / 1.2
    W3 = np.zeros((1, dims[2]))
    W3[0, 0], W3[0, 1] = 1 / 1.2, -1 / 1.2
    set_params(
        critic.net, [W1, np.zeros(dims[1]), W2, np.zeros(dims[2]), W3, np.zeros(1)]
    )
    return critic


def test_synthesize_deterministic_and_zero_net():
    gen = Generator(3, 2, Config(hidden_mult=2, temb_dim=4), np.random.default_rng(1))
    eps = np.random.default_rng(2).normal(size=(4, 3))
    z = np.random.default_rng(3).normal(size=(4, 2))
    xn = np.random.default_rng(4).normal(size=(4, 3))
    a, _ = gen.synthesize(eps, z, xn, 2)
    b, _ = gen.synthesize(eps, z, xn, 2)
    np.testing.assert_array_equal(a, b)

    _zero_net(gen.net)
    np.testing.assert_array_equal(gen.synthesize(eps, z, xn, 2)[0], np.zeros((4, 3)))


def test_synthesize_batched_equals_stacked():
    gen = Generator(3, 2, Config(hidden_mult=2, temb_dim=4), np.random.default_rng(5))
    rng = np.random.default_rng(6)
    eps, z, xn = rng.normal(size=(5, 3)), rng.normal(size=(5, 2)), rng.normal(size=(5, 3))
    t = np.array([1, 2, 3, 4, 1])
    batched, _ = gen.synthesize(eps, z, xn, t)
    rows = [
        gen.synthesize(eps[i : i + 1], z[i : i + 1], xn[i : i + 1], t[i : i + 1])[0]
        for i in range(5)
    ]
    np.testing.assert_allclose(batched, np.concatenate(rows), rtol=1e-13, atol=1e-15)


def test_synthesize_rejects_mismatched_batches():
    gen = Generator(3, 2, Config(hidden_mult=2, temb_dim=4), np.random.default_rng(0))
    with pytest.raises(UsageError):
        gen.synthesize(np.zeros((2, 3)), np.zeros((3, 2)), np.zeros((2, 3)), 1)
    with pytest.raises(UsageError, match=r"got shape \(1, 1, 3\)"):
        gen.synthesize(np.zeros((1, 3)), np.zeros((1, 2)), np.zeros((1, 1, 3)), 1)


_SCHED = diffusion.build_schedule(4, 0.1, 0.4)
_SHAPE = Config(hidden_mult=1, temb_dim=4)  # diffusion_steps 4, as _SCHED


@pytest.mark.parametrize(
    "call",
    [
        lambda x: Generator(2, 2, _SHAPE, np.random.default_rng(0)).synthesize(x, x, x, 1),
        lambda x: CriticXt(2, 2, _SHAPE, np.random.default_rng(0)).condition(x, x, 1),
        lambda x: diffusion.forward_noise(x, np.arange(3), _SCHED, np.random.default_rng(0)),
        lambda x: diffusion.forward_transition(x, np.arange(3), _SCHED, np.random.default_rng(0)),
        lambda x: diffusion.posterior_sample(x, x, np.arange(3), _SCHED,
                                             np.random.default_rng(0)),
        lambda x: SoftmaxClassifier(np.ones((4, 2)), np.zeros(4)).logits(x),
    ],
    ids=["Generator.synthesize", "CriticXt.condition", "forward_noise", "forward_transition",
         "posterior_sample", "SoftmaxClassifier.logits"],
)
def test_a_batch_of_more_than_two_dimensions_is_refused(call):
    call(np.zeros((3, 2)))
    with pytest.raises(UsageError, match=r"a batch is a vector or a matrix of rows, got shape "
                                         r"\(3, 3, 2\)"):
        call(np.zeros((3, 3, 2)))


@pytest.mark.parametrize(
    "call, hi",
    [
        (
            lambda t: diffusion.posterior_sample(
                np.zeros((2, 3)), np.zeros((2, 3)), t, _SCHED, np.random.default_rng(0)
            ),
            _SCHED.timesteps - 1,
        ),
        (
            lambda t: Generator(3, 2, _SHAPE, np.random.default_rng(0)).synthesize(
                np.zeros((2, 3)), np.zeros((2, 2)), np.zeros((2, 3)), t
            ),
            _SHAPE.diffusion_steps,  # called at t + 1: its table holds 0..T
        ),
        (
            lambda t: CriticXt(3, 2, _SHAPE, np.random.default_rng(0)).condition(
                np.zeros((2, 3)), np.zeros((2, 2)), t
            ),
            _SHAPE.diffusion_steps - 1,
        ),
    ],
    ids=["posterior_sample", "Generator.synthesize", "CriticXt.condition"],
)
def test_single_timestep_must_be_an_integer(call, hi):
    """A timestep is an integer in [0, hi], and a refusal names that range."""
    call(0)
    call(hi)
    for bad in (1.5, True, np.array([True])):
        with pytest.raises(UsageError, match="integers"):
            call(bad)
    for bad in (-1, hi + 1):
        with pytest.raises(UsageError, match=rf"timestep out of range \[0, {hi}\]"):
            call(bad)


def test_zero_critic_loss_is_lambda_gp():
    critic = _constant_critic_x0(0.0)
    rng = np.random.default_rng(7)
    real = rng.normal(size=(8, 3))
    fake = rng.normal(size=(8, 3))
    z = rng.normal(size=(8, 2))
    for lam in (10.0, 3.5):
        loss, grads = gan.critic_x0_loss(critic, real, fake, z, lam, rng)
        assert abs(loss.item() - lam) < 1e-12
        assert grads.shape == critic.net.flat.shape


def test_constant_critic_wasserstein_cancels():
    critic = _constant_critic_x0(4.2)
    rng = np.random.default_rng(8)
    real = rng.normal(size=(6, 3))
    fake = rng.normal(size=(6, 3))
    z = rng.normal(size=(6, 2))
    loss, _ = gan.critic_x0_loss(critic, real, fake, z, 10.0, rng)
    # constant output: wasserstein terms cancel, gradient norm is 0 -> GP = 1
    assert abs(loss.item() - 10.0) < 1e-12


def test_unit_linear_critic_gp_vanishes():
    w = np.array([0.6, 0.0, 0.8])  # unit norm
    critic = _unit_linear_critic_x0(w)
    rng = np.random.default_rng(9)
    real = rng.normal(size=(16, 3))
    fake = rng.normal(size=(16, 3))
    z = rng.normal(size=(16, 2))
    score = critic.net.forward(np.concatenate([real, z], axis=1))[0][:, 0]
    np.testing.assert_allclose(score, real @ w, atol=1e-12)
    loss, _ = gan.critic_x0_loss(critic, real, fake, z, 10.0, rng)
    wass = -np.mean(real @ w) + np.mean(fake @ w)
    assert abs(loss.item() - wass) < 1e-10  # the whole penalty is ~0


def test_gradient_norms_of_linear_critic():
    w = np.array([3.0, 0.0, 4.0])  # norm 5
    critic = _unit_linear_critic_x0(w)
    rng = np.random.default_rng(1)
    real, fake, z = rng.normal(size=(4, 3)), rng.normal(size=(4, 3)), np.zeros((4, 2))
    loss, _ = gan.critic_x0_loss(critic, real, fake, z, 10.0, rng)
    wass = -np.mean(real @ w) + np.mean(fake @ w)
    assert abs(loss.item() - (wass + 10.0 * (5.0 - 1.0) ** 2)) < 1e-10


def test_gradient_norms_match_central_differences_of_xt_critic():
    # only the x_hat columns of the transition critic's input are
    # differentiated; the conditioning that score builds stays fixed
    rng = np.random.default_rng(40)
    critic = CriticXt(3, 2, Config(hidden_mult=2, temb_dim=4), rng)
    x_hat, x_next, z = rng.normal(size=(4, 3)), rng.normal(size=(4, 3)), rng.normal(size=(4, 2))
    t = np.array([0, 1, 2, 3])
    cond = critic.condition(x_next, z, t)
    step = 1e-6
    fd = np.zeros_like(x_hat)
    for idx in np.ndindex(*x_hat.shape):
        hi, lo = x_hat.copy(), x_hat.copy()
        hi[idx] += step
        lo[idx] -= step
        score = critic.net.forward(np.concatenate([hi, cond], axis=1))[0].sum()
        diff = score - critic.net.forward(np.concatenate([lo, cond], axis=1))[0].sum()
        fd[idx] = diff / (2.0 * step)
    norms = oracle.gradient_norms(critic.net, x_hat, cond)
    np.testing.assert_allclose(norms.data, np.linalg.norm(fd, axis=1), rtol=1e-6)


def test_gp_swap_invariance_when_real_equals_fake():
    critic = CriticX0(3, 2, Config(), np.random.default_rng(10))
    batch = np.random.default_rng(11).normal(size=(5, 3))
    z = np.random.default_rng(12).normal(size=(5, 2))
    gp = 10.0
    a, _ = gan.critic_x0_loss(critic, batch, batch, z, gp, np.random.default_rng(0))
    b, _ = gan.critic_x0_loss(critic, batch.copy(), batch.copy(), z, gp, np.random.default_rng(99))
    # the interpolation point is the shared point for every u, so even a
    # different rng stream cannot change the value
    assert a.item() == b.item()


def test_critic_x0_loss_rejects_bad_batches():
    critic = CriticX0(3, 2, Config(), np.random.default_rng(0))
    gp = 10.0
    rng = np.random.default_rng(0)
    with pytest.raises(UsageError):
        gan.critic_x0_loss(critic, np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 2)), gp, rng)
    with pytest.raises(UsageError):
        gan.critic_x0_loss(critic, np.zeros((2, 3)), np.zeros((3, 3)), np.zeros((2, 2)), gp, rng)


@pytest.mark.parametrize("shapes", [
    [(2, 3), (3, 3), (2, 3), (2, 2)],  # real and fake
    [(2, 3), (2, 3), (2, 4), (2, 2)],  # x_next's width: cond's width
    [(2, 3), (2, 3), (2, 3), (3, 2)],  # z's rows: cond's rows
], ids=["fake", "x_next", "z"])
def test_critic_xt_loss_rejects_batches_whose_shapes_disagree(shapes):
    # cond has z's rows and the width of x_next, z and the embedding
    critic = CriticXt(3, 2, Config(temb_dim=4), np.random.default_rng(0))
    real, fake, x_next, z = shapes
    cond = np.zeros((z[0], x_next[1] + z[1] + 4))
    with pytest.raises(UsageError, match="^critic_xt_loss: batch shapes disagree$"):
        gan.critic_xt_loss(critic, np.zeros(real), np.zeros(fake), cond, 10.0,
                           np.random.default_rng(0))


def test_critic_xt_zero_net_loss_is_lambda_gp():
    critic = CriticXt(3, 2, Config(temb_dim=4), np.random.default_rng(0))
    _zero_net(critic.net)
    rng = np.random.default_rng(13)
    shape = (6, 3)
    real, fake, x_next, z = (rng.normal(size=s) for s in (shape, shape, shape, (6, 2)))
    cond = critic.condition(x_next, z, np.array([0, 1, 2, 3, 0, 1]))
    loss, grads = gan.critic_xt_loss(critic, real, fake, cond, 10.0, rng)
    assert abs(loss.item() - 10.0) < 1e-12
    assert grads.shape == critic.net.flat.shape


def test_critic_fd_spot_check():
    rng = np.random.default_rng(20)
    critic = CriticX0(2, 2, Config(hidden_mult=1), rng)
    real = rng.normal(size=(3, 2))
    fake = rng.normal(size=(3, 2))
    z = rng.normal(size=(3, 2))

    def loss_fn():
        loss, grad = gan.critic_x0_loss(critic, real, fake, z, 10.0, np.random.default_rng(55))
        return loss, [grad]

    assert max_fd_error(loss_fn, [critic.net.flat]) < 1e-4


def test_generator_adv_loss_constant_critics():
    gen = Generator(3, 2, Config(hidden_mult=1, temb_dim=4), np.random.default_rng(1))
    sched = diffusion.build_schedule(4, 0.1, 0.4)
    rng = np.random.default_rng(2)
    z = rng.normal(size=(4, 2))
    x_next = rng.normal(size=(4, 3))
    t = np.array([0, 1, 2, 3])
    eps_g = rng.normal(size=(4, 3))
    eps_p = rng.normal(size=(4, 3))

    cx0 = _constant_critic_x0(1.25, d=3, dz=2)
    cxt = CriticXt(3, 2, Config(temb_dim=16), np.random.default_rng(0))
    _zero_net(cxt.net)
    arrays = [p.data.copy() for p in oracle.params(cxt.net)]
    arrays[-1][:] = -0.75
    set_params(cxt.net, arrays)

    x0_tilde, cache = gen.synthesize(eps_g, z, x_next, t + 1)
    xt_tilde = _transition(x0_tilde, x_next, t, sched, eps_p)
    cond = cxt.condition(x_next, z, t)
    loss, _ = gan.generator_adv_terms(cx0, cxt, x0_tilde, xt_tilde, z, cond, sched.c1[t])
    assert abs(loss.item() - (-1.25 + 0.75)) < 1e-12

    _zero_net(cx0.net)
    _zero_net(cxt.net)
    loss0, g_x0 = gan.generator_adv_terms(cx0, cxt, x0_tilde, xt_tilde, z, cond, sched.c1[t])
    grads0 = gen.net.pullback(cache, g_x0)
    assert loss0.item() == 0.0
    np.testing.assert_array_equal(grads0, np.zeros_like(gen.net.flat))


def test_generator_step_runs_no_critic_weight_vjp(monkeypatch):
    rng = np.random.default_rng(21)
    gen = Generator(3, 2, Config(hidden_mult=2, temb_dim=4), rng)
    cx0 = CriticX0(3, 2, Config(hidden_mult=2), rng)
    cxt = CriticXt(3, 2, Config(hidden_mult=2, temb_dim=4), rng)
    sched = diffusion.build_schedule(4, 0.1, 0.4)
    z, x_next = rng.normal(size=(5, 2)), rng.normal(size=(5, 3))
    t = np.array([0, 1, 2, 3, 0])
    eps_g, eps_p = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
    calls = []
    pullback = DenseNet.pullback

    def recording_pullback(net, cache, u, wrt_input=False):
        calls.append((net, wrt_input))
        return pullback(net, cache, u, wrt_input)

    x0_tilde = gen.synthesize(eps_g, z, x_next, t + 1)[0]
    xt_tilde = _transition(x0_tilde, x_next, t, sched, eps_p)
    cond = cxt.condition(x_next, z, t)
    monkeypatch.setattr(DenseNet, "pullback", recording_pullback)
    gan.generator_adv_terms(cx0, cxt, x0_tilde, xt_tilde, z, cond, sched.c1[t])
    # each critic is pulled back to its input only
    assert calls == [(cx0.net, True), (cxt.net, True)]


def test_generator_adv_fd_through_posterior_path():
    # gradient flows through both critics, including the reparameterized
    # x_t sample; all noise is held fixed so the loss is a pure function
    gen = Generator(2, 2, Config(hidden_mult=1, temb_dim=4), np.random.default_rng(3))
    cx0 = CriticX0(2, 2, Config(hidden_mult=1), np.random.default_rng(4))
    cxt = CriticXt(2, 2, Config(hidden_mult=1, temb_dim=4), np.random.default_rng(5))
    sched = diffusion.build_schedule(4, 0.1, 0.4)
    rng = np.random.default_rng(6)
    z = rng.normal(size=(3, 2))
    x_next = rng.normal(size=(3, 2))
    t = np.array([0, 1, 3])
    eps_g = rng.normal(size=(3, 2))
    eps_p = rng.normal(size=(3, 2))

    def loss_fn():
        x0_tilde, cache = gen.synthesize(eps_g, z, x_next, t + 1)
        xt_tilde = _transition(x0_tilde, x_next, t, sched, eps_p)
        loss, g_x0 = gan.generator_adv_terms(cx0, cxt, x0_tilde, xt_tilde, z,
                                             cxt.condition(x_next, z, t), sched.c1[t])
        return loss, [gen.net.pullback(cache, g_x0)]

    assert max_fd_error(loss_fn, [gen.net.flat]) < 1e-4


@pytest.mark.parametrize("c1", [
    np.full(3, 0.5),  # a vector, not a column
    np.full((2, 1), 0.5),  # another row count
    np.full((3, 1), 0.5, np.float32),  # another dtype
], ids=["vector", "rows", "dtype"])
def test_generator_adv_terms_refuses_a_c1_that_is_not_a_column_of_the_critics_dtype(c1):
    rng = np.random.default_rng(7)
    cfg = Config(hidden_mult=1, temb_dim=4)
    cx0, cxt = CriticX0(2, 2, cfg, rng), CriticXt(2, 2, cfg, rng)
    z, x_next, x0_tilde, xt_tilde = (rng.normal(size=(3, 2)) for _ in range(4))
    cond = cxt.condition(x_next, z, np.array([0, 1, 3]))
    gan.generator_adv_terms(cx0, cxt, x0_tilde, xt_tilde, z, cond, np.full((3, 1), 0.5))
    with pytest.raises(UsageError, match=r"^generator_adv_terms: c1 of float\d\d \(\d,( 1)?\), "
                                         r"not a float64 \(3, 1\) column$"):
        gan.generator_adv_terms(cx0, cxt, x0_tilde, xt_tilde, z, cond, c1)


@pytest.mark.parametrize("cond_shape", [(2, 8), (3, 9)], ids=["rows", "width"])
def test_generator_adv_terms_refuses_a_cond_that_disagrees_with_the_batch(cond_shape):
    rng = np.random.default_rng(8)
    cfg = Config(hidden_mult=1, temb_dim=4)  # cond: x_next 2 + z 2 + embedding 4 columns
    cx0, cxt = CriticX0(2, 2, cfg, rng), CriticXt(2, 2, cfg, rng)
    z, x0_tilde, xt_tilde = (rng.normal(size=(3, 2)) for _ in range(3))
    with pytest.raises(UsageError, match="^generator_adv_terms: batch shapes disagree$"):
        gan.generator_adv_terms(cx0, cxt, x0_tilde, xt_tilde, z, np.zeros(cond_shape),
                                np.full((3, 1), 0.5))


def test_summed_critic_objective_zero_nets():
    # the trainer adds the two scalar losses; with both critics zeroed each
    # term reduces to its gradient penalty, so the sum is exactly 2 * lambda
    rng = np.random.default_rng(30)
    cx0 = CriticX0(2, 2, Config(hidden_mult=1), rng)
    cxt = CriticXt(2, 2, Config(hidden_mult=1, temb_dim=4), rng)
    _zero_net(cx0.net)
    _zero_net(cxt.net)
    real = rng.normal(size=(4, 2))
    fake = rng.normal(size=(4, 2))
    xn = rng.normal(size=(4, 2))
    z = rng.normal(size=(4, 2))
    t = np.array([0, 1, 2, 3])
    gp = 10.0
    l0, _ = gan.critic_x0_loss(cx0, real, fake, z, gp, np.random.default_rng(70))
    lt, _ = gan.critic_xt_loss(cxt, real, fake, cxt.condition(xn, z, t), gp,
                               np.random.default_rng(71))
    assert abs((l0.item() + lt.item()) - 20.0) < 1e-12
