"""Reward model and the RL loss."""

from __future__ import annotations

import numpy as np
import pytest

from rlvc import reward
from rlvc.config import Config
from rlvc.errors import ConfigurationError, UsageError
from rlvc.gan import Generator
from rlvc.nets import AdamState, SoftmaxClassifier
from rlvc.seeding import stream_rng

from conftest import make_separable, max_fd_error


def _policy_gradient(gen, model, inputs, y):
    """The RL loss on rows synthesized from inputs = (eps, z, x_next, t),
    and its gradient w.r.t. the generator's parameters, laid out like
    `gen.net.flat`."""
    x0, cache = gen.synthesize(*inputs)
    lp, lp_cache = reward.class_log_probs(model, x0, y)
    loss, g_x0 = reward.rl_loss(lp, lp_cache)
    return loss, gen.net.pullback(cache, g_x0)


def _reward(model, x, y: int) -> float:
    """Outcome reward of a single feature vector: log p(y | x)."""
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    return float(reward.class_log_probs(model, x, [y])[0][0])


def test_zero_model_reward_is_log_quarter():
    model = SoftmaxClassifier(np.zeros((4, 3)), np.zeros(4))
    r = _reward(model, np.array([0.3, -0.7, 2.0]), 2)
    assert abs(r - np.log(0.25)) < 1e-12


def test_hand_computed_reward():
    # logits [2, 1, 0] for a 3-class model, class 0
    model = SoftmaxClassifier(np.array([[2.0], [1.0], [0.0]]), np.zeros(3))
    r = _reward(model, np.array([1.0]), 0)
    assert abs(r - (2.0 - np.log(np.e**2 + np.e + 1.0))) < 1e-12
    assert abs(r - (-0.40760596444658)) < 1e-5


def test_reward_saturates_near_zero():
    model = SoftmaxClassifier(np.array([[60.0], [0.0]]), np.zeros(2))
    r = _reward(model, np.array([1.0]), 0)
    assert -1e-20 <= r <= 0.0


def test_reward_always_nonpositive():
    rng = np.random.default_rng(0)
    model = SoftmaxClassifier(rng.normal(size=(5, 4)), rng.normal(size=5))
    for _ in range(50):
        x = rng.normal(size=4) * 10
        y = int(rng.integers(5))
        assert _reward(model, x, y) <= 0.0


def test_reward_rejects_out_of_range_class():
    model = SoftmaxClassifier(np.zeros((3, 2)), np.zeros(3))
    with pytest.raises(UsageError):
        _reward(model, np.zeros(2), 3)


def test_class_log_probs_rejects_labels_that_are_not_integers():
    model = SoftmaxClassifier(np.zeros((3, 2)), np.zeros(3))
    for labels in ([0.5], [1.0], [True]):
        with pytest.raises(UsageError):
            reward.class_log_probs(model, np.zeros((1, 2)), labels)


def test_class_log_probs_refuses_a_label_count_other_than_the_row_count():
    # One label for 5 rows was broadcast to every row.
    rng = np.random.default_rng(3)
    model = SoftmaxClassifier(rng.normal(size=(3, 2)), rng.normal(size=3))
    x, y = rng.normal(size=(5, 2)), np.array([0, 2, 1, 0, 2])
    for labels in ([1], y[:4], np.append(y, 1)):
        with pytest.raises(UsageError, match=f"^class_log_probs: {len(labels)} labels for 5 rows$"):
            reward.class_log_probs(model, x, labels)
    by_row = [reward.class_log_probs(model, x[[i]], y[[i]])[0][0] for i in range(5)]
    assert reward.class_log_probs(model, x, y)[0].tolist() == pytest.approx(by_row, rel=1e-12)


def test_model_parameters_are_write_protected():
    model = SoftmaxClassifier(np.ones((2, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        model.weight[0, 0] = 5.0
    with pytest.raises(ValueError):
        model.bias[0] = 1.0


def test_model_shape_validation():
    with pytest.raises(ConfigurationError):
        SoftmaxClassifier(np.zeros((2, 3)), np.zeros(3))
    with pytest.raises(ConfigurationError):
        SoftmaxClassifier(np.zeros(3), np.zeros(3))


def test_zero_init_cross_entropy_is_log_C():
    # before any training step the mean CE of a zero model is ln C exactly
    x, y = make_separable(20, 4, 3)
    model = SoftmaxClassifier(np.zeros((3, 4)), np.zeros(3))
    lp, _ = reward.class_log_probs(model, x, y)
    assert abs(-lp.mean() - np.log(3.0)) < 1e-12


def test_pretrain_reaches_high_accuracy_on_separable_data():
    x, y = make_separable(200, 2, 2, seed=1)
    model = reward.pretrain_reward(x, y, 2, Config(reward_epochs=30), rng=np.random.default_rng(0))
    assert np.mean(model.predict(x) == y) >= 0.99


def test_pretrain_terminates_on_conflicting_labels():
    x = np.zeros((4, 2))  # identical rows, conflicting labels
    y = np.array([0, 1, 0, 1])
    model = reward.pretrain_reward(x, y, 2, Config(reward_epochs=5))
    acc = np.mean(model.predict(x) == y)
    assert acc <= 1.0 - 1.0 / 4


def test_pretrain_draws_from_the_configs_reward_stream_by_default():
    x, y = make_separable(40, 3, 2, seed=4)
    models = [reward.pretrain_reward(x, y, 2, Config(seed=seed, reward_epochs=3))
              for seed in (0, 1)]
    assert models[0].weight.tobytes() != models[1].weight.tobytes()
    given = reward.pretrain_reward(x, y, 2, Config(seed=1, reward_epochs=3),
                                   stream_rng(1, "reward"))
    assert given.weight.tobytes() == models[1].weight.tobytes()
    assert given.bias.tobytes() == models[1].bias.tobytes()


def test_pretrain_rejects_mismatched_features_and_labels():
    with pytest.raises(ConfigurationError, match="features/labels mismatch"):
        reward.pretrain_reward(np.zeros((4, 2)), np.array([0, 1, 0]), 2, Config())
    with pytest.raises(ConfigurationError, match="features/labels mismatch"):
        reward.pretrain_reward(np.zeros(4), np.array([0, 1, 0, 1]), 2, Config())


def test_pretrain_rejects_missing_class():
    x = np.zeros((3, 2))
    with pytest.raises(ConfigurationError):
        reward.pretrain_reward(x, np.array([0, 0, 2]), 3, Config())


def test_frozen_params_bitwise_stable_under_rl_steps():
    x, y = make_separable(50, 3, 2, seed=2)
    model = reward.pretrain_reward(x, y, 2, Config(reward_epochs=10))
    w_before = model.weight.tobytes()
    b_before = model.bias.tobytes()

    gen = Generator(3, 2, Config(hidden_mult=1, temb_dim=4), np.random.default_rng(0))
    opt = AdamState([gen.net.flat], lr=1e-3, beta1=Config().adam_beta1, beta2=Config().adam_beta2)
    rng = np.random.default_rng(1)
    for _ in range(5):
        inputs = rng.normal(size=(8, 3)), rng.normal(size=(8, 2)), rng.normal(size=(8, 3)), 1
        y = rng.integers(0, 2, size=8)
        _, grads = _policy_gradient(gen, model, inputs, y)
        opt.step([grads])
    assert model.weight.tobytes() == w_before
    assert model.bias.tobytes() == b_before


def test_rl_loss_arithmetic_and_guards():
    uniform = SoftmaxClassifier(np.zeros((2, 1)), np.zeros(2))
    lp, cache = reward.class_log_probs(uniform, np.zeros((1, 1)), [0])
    loss, _ = reward.rl_loss(lp, cache)
    assert abs(loss.item() - np.log(2.0)) < 1e-15

    for bad in (np.zeros(0), np.zeros((1, 1))):
        with pytest.raises(UsageError):
            reward.rl_loss(bad, cache)


def test_rl_loss_is_the_mean_nll():
    model = SoftmaxClassifier(np.random.default_rng(6).normal(size=(3, 4)), np.zeros(3))
    x = np.random.default_rng(7).normal(size=(5, 4))
    y = np.array([0, 1, 2, 1, 0])
    lp, cache = reward.class_log_probs(model, x, y)
    loss, _ = reward.rl_loss(lp, cache)
    nll = -np.mean(lp)
    assert abs(loss.item() - nll) < 1e-15


def test_rl_step_raises_log_prob():
    gen = Generator(2, 2, Config(hidden_mult=1, temb_dim=4), np.random.default_rng(8))
    model = SoftmaxClassifier(np.random.default_rng(9).normal(size=(2, 2)), np.zeros(2))
    rng = np.random.default_rng(10)
    inputs = rng.normal(size=(1, 2)), rng.normal(size=(1, 2)), rng.normal(size=(1, 2)), 1
    y = np.array([1])

    def log_prob():
        return float(reward.class_log_probs(model, gen.synthesize(*inputs)[0], y)[0][0])

    before = log_prob()
    _, grads = _policy_gradient(gen, model, inputs, y)
    cfg = Config()
    AdamState([gen.net.flat], lr=1e-4, beta1=cfg.adam_beta1, beta2=cfg.adam_beta2).step([grads])
    assert log_prob() > before


def test_rl_loss_fd_through_generator():
    gen = Generator(2, 2, Config(hidden_mult=1, temb_dim=4), np.random.default_rng(11))
    model = SoftmaxClassifier(np.random.default_rng(12).normal(size=(2, 2)), np.zeros(2))
    rng = np.random.default_rng(13)
    inputs = rng.normal(size=(3, 2)), rng.normal(size=(3, 2)), rng.normal(size=(3, 2)), 1
    y = np.array([0, 1, 0])

    def loss_fn():
        loss, grad = _policy_gradient(gen, model, inputs, y)
        return loss, [grad]

    assert max_fd_error(loss_fn, [gen.net.flat]) < 1e-4
