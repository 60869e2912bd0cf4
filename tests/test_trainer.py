"""Training schedule: phase gating, alternation, logging, abort paths."""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest

from rlvc import config, diffusion, engine, gan, nets, reward, trainer
from rlvc.config import Config
from rlvc.data import ZslDataset, make_synthetic
from rlvc.errors import ConfigurationError, NumericFailure
from rlvc.evaluate import full_report
from rlvc.reward import pretrain_reward
from rlvc.seeding import stream_rng
from rlvc.trainer import METRICS_COLUMNS, train

import bounds
import oracle


def _reward_for(ds, seed=0):
    train_x, train_y = ds.train
    return pretrain_reward(train_x, ds.seen_rows(train_y), len(ds.seen_classes),
                           Config(reward_epochs=20), rng=np.random.default_rng(seed))


def _small_ds(seed=0):
    return make_synthetic(Config(
        n_seen=4, n_unseen=2, feat_dim=8, sem_dim=4, samples_per_class=10,
        semantic_cluster_size=3, seed=seed,
    ))


def _cfg(**kw):
    base = dict(epochs=2, rl_start_epoch=0, batch_size=16,
                synth_per_class=4, seed=0)
    base.update(kw)
    return Config(**base)


@pytest.mark.parametrize("use_rl", [True, False])
def test_training_floats_counts_the_arrays_of_a_synthetic_preset_run(use_rl):
    cfg = config.resolve_config("synthetic", overrides={"use_rl": use_rl})
    rng = np.random.default_rng(0)
    gen, cx0, cxt = (cls(cfg.feat_dim, cfg.sem_dim, cfg, rng).net
                     for cls in (gan.Generator, gan.CriticX0, gan.CriticXt))
    opts = [nets.AdamState([cx0.flat, cxt.flat], lr=1.0, beta1=0.5, beta2=0.9)]
    opts += [nets.AdamState([gen.flat], lr=1.0, beta1=0.5, beta2=0.9)] * (1 + use_rl)
    sizes = [net.flat.size for net in (gen, cx0, cxt)]
    moments = sum(a.size for opt in opts for a in opt.m + opt.v)
    scratch = 2 * max(opt._block for opt in opts)
    assert trainer.training_floats(cfg.feat_dim, cfg.sem_dim, cfg) == (
        2 * sum(sizes) + moments + scratch
    )


@pytest.mark.parametrize("use_rl,optimizers", [(False, 2), (True, 3)])
def test_train_builds_the_rl_optimizer_only_when_rl_is_on(use_rl, optimizers, monkeypatch):
    # as training_floats counts: critics, adversarial generator step, and
    # the policy-gradient step's own state only when use_rl is on
    ds = _small_ds()
    rm = _reward_for(ds) if use_rl else None
    built = []
    init = nets.AdamState.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(nets.AdamState, "__init__", counting_init)
    train(ds, rm, _cfg(epochs=1, use_rl=use_rl))
    assert len(built) == optimizers


def test_rl_phase_gate_counts():
    ds = _small_ds()
    rm = _reward_for(ds)
    cfg = _cfg(epochs=10, rl_start_epoch=6)
    result = train(ds, rm, cfg)
    n_train = ds.train[0].shape[0]
    batches = -(-n_train // cfg.batch_size)
    assert len(result.counters) == 10
    for c in result.counters[:6]:
        assert c.rl_updates == 0
    for c in result.counters[6:]:
        assert c.rl_updates == batches
    for c in result.counters:
        assert c.gen_updates == batches
        assert c.critic_updates == batches * cfg.critic_steps


def _one_minibatch(**kw):
    """A dataset, its reward model and a config whose epoch is one minibatch
    of every training row, the policy step on from the first epoch."""
    ds = _small_ds()
    return ds, _reward_for(ds), _cfg(epochs=1, batch_size=ds.train[0].shape[0], **kw)


def test_a_full_arm_minibatch_checks_its_timesteps_seven_times(monkeypatch):
    ds, rm, cfg = _one_minibatch()
    assert cfg.critic_steps == 1 and cfg.use_cues
    checks = []
    check = diffusion.per_row

    def counting_check(t, rows, hi, what):
        checks.append(what)
        return check(t, rows, hi, what)

    monkeypatch.setattr(diffusion, "per_row", counting_check)
    result = train(ds, rm, cfg)
    assert result.counters[0].rl_updates == 1
    assert checks == (
        ["forward_noise", "forward_transition", "synthesize", "posterior_sample",
         "condition"]  # critic step; the generator step reads its conditioning
        + ["forward_noise", "synthesize"]  # policy-gradient step
    )


@pytest.mark.parametrize("critic_steps", [1, 3])
def test_each_critic_step_builds_the_transition_conditioning_once(critic_steps, monkeypatch):
    ds, rm, cfg = _one_minibatch(critic_steps=critic_steps)
    built, scored = [], []
    condition, adv_terms = gan.CriticXt.condition, gan.generator_adv_terms

    def counting_condition(self, *args):
        built.append(condition(self, *args))
        return built[-1]

    def recording_adv_terms(critic_x0, critic_xt, x0_tilde, xt_tilde, z, cond, c1):
        scored.append(cond)
        return adv_terms(critic_x0, critic_xt, x0_tilde, xt_tilde, z, cond, c1)

    monkeypatch.setattr(gan.CriticXt, "condition", counting_condition)
    monkeypatch.setattr(gan, "generator_adv_terms", recording_adv_terms)
    train(ds, rm, cfg)
    assert len(built) == critic_steps and len(scored) == 1
    assert scored[0] is built[-1]  # the last critic step's columns, not rebuilt


@pytest.mark.parametrize("use_rl,calls", [(True, 2), (False, 1)])
def test_a_minibatch_runs_the_generator_once_per_critic_step_and_policy_step(
        use_rl, calls, monkeypatch):
    ds, rm, cfg = _one_minibatch(use_rl=use_rl)
    seen = []
    synthesize = gan.Generator.synthesize

    def counting_synthesize(self, *args, **kwargs):
        seen.append(1)
        return synthesize(self, *args, **kwargs)

    monkeypatch.setattr(gan.Generator, "synthesize", counting_synthesize)
    train(ds, rm if use_rl else None, cfg)
    assert len(seen) == calls


def test_the_generator_step_scores_the_last_critic_steps_fakes(monkeypatch):
    ds, rm, cfg = _one_minibatch(critic_steps=3)
    fakes, scored = [], []
    x0_loss, xt_loss, adv_terms = gan.critic_x0_loss, gan.critic_xt_loss, gan.generator_adv_terms

    def recording_x0_loss(critic, real, fake, *args):
        fakes.append([fake.copy()])
        return x0_loss(critic, real, fake, *args)

    def recording_xt_loss(critic, real, fake, *args):
        fakes[-1].append(fake.copy())
        return xt_loss(critic, real, fake, *args)

    def recording_adv_terms(critic_x0, critic_xt, x0_tilde, xt_tilde, *args):
        scored.append([x0_tilde.copy(), xt_tilde.copy()])
        return adv_terms(critic_x0, critic_xt, x0_tilde, xt_tilde, *args)

    monkeypatch.setattr(gan, "critic_x0_loss", recording_x0_loss)
    monkeypatch.setattr(gan, "critic_xt_loss", recording_xt_loss)
    monkeypatch.setattr(gan, "generator_adv_terms", recording_adv_terms)
    train(ds, rm, cfg)
    assert len(fakes) == 3 and len(scored) == 1
    assert [a.tobytes() for a in scored[0]] == [a.tobytes() for a in fakes[-1]]
    assert fakes[-2][0].tobytes() != fakes[-1][0].tobytes()


def test_the_policy_step_draws_its_state_from_the_marginal(monkeypatch):
    ds, rm, cfg = _one_minibatch()
    calls = []
    synthesize = gan.Generator.synthesize

    def recording_synthesize(self, eps, z, x_noisy, t, out=None):
        calls.append((eps.copy(), x_noisy.copy(), np.array(t)))
        return synthesize(self, eps, z, x_noisy, t, out)

    monkeypatch.setattr(gan.Generator, "synthesize", recording_synthesize)
    train(ds, rm, cfg)
    eps_g, x_next, t_next = calls[-1]  # the policy step's
    train_x = ds.train[0]
    x0 = train_x[stream_rng(cfg.seed, "train").integers(0, len(train_x), size=cfg.batch_size)]
    rl, sched = stream_rng(cfg.seed, "rl"), cfg.schedule()
    t = rl.integers(0, cfg.diffusion_steps, size=cfg.batch_size)
    eps = rl.standard_normal(x0.shape)
    replay = sched.sqrt_abar[t + 1] * x0 + sched.sqrt_one_minus_abar[t + 1] * eps
    assert t_next.tobytes() == (t + 1).tobytes()
    assert x_next.tobytes() == replay.tobytes()
    assert eps_g.tobytes() == rl.standard_normal(x0.shape).tobytes()


def test_rl_from_first_epoch():
    ds = _small_ds()
    result = train(ds, _reward_for(ds), _cfg(epochs=3, rl_start_epoch=0))
    batches = -(-ds.train[0].shape[0] // 16)
    assert sum(c.rl_updates for c in result.counters) == 3 * batches


def test_rl_never_activates_when_start_beyond_end():
    ds = _small_ds()
    result = train(ds, _reward_for(ds), _cfg(epochs=3, rl_start_epoch=30))
    assert all(c.rl_updates == 0 for c in result.counters)
    for row in result.metrics:
        assert np.isnan(row.raw_reward_mean)


def test_pre_activation_epochs_leave_no_rl_trace():
    # a run whose RL phase never starts matches a no-RL run bitwise, so the
    # gate provably does nothing before its epoch
    ds = _small_ds()
    rm = _reward_for(ds)
    a = train(ds, rm, _cfg(epochs=2, rl_start_epoch=2))
    b = train(ds, None, _cfg(epochs=2, rl_start_epoch=2, use_rl=False))
    for pa, pb in zip(a.generator.net.params, b.generator.net.params):
        assert pa.data.tobytes() == pb.data.tobytes()


def test_rl_step_changes_generator():
    ds = _small_ds()
    rm = _reward_for(ds)
    a = train(ds, rm, _cfg(epochs=3, rl_start_epoch=2))
    b = train(ds, None, _cfg(epochs=3, rl_start_epoch=2, use_rl=False))
    same = all(
        pa.data.tobytes() == pb.data.tobytes()
        for pa, pb in zip(a.generator.net.params, b.generator.net.params)
    )
    assert not same


def test_multiple_critic_steps():
    ds = _small_ds()
    result = train(ds, None, _cfg(epochs=1, use_rl=False, critic_steps=5))
    batches = -(-ds.train[0].shape[0] // 16)
    assert result.counters[0].critic_updates == 5 * batches
    assert result.counters[0].gen_updates == batches


def test_nan_sentinels_without_cues():
    ds = _small_ds()
    result = train(ds, _reward_for(ds), _cfg(use_cues=False))
    assert result.visual_prototypes is None
    for row in result.metrics:
        assert np.isnan(row.pd_loss)
        assert np.isfinite(row.gen_adv_loss)


def test_metrics_log_byte_identical_across_runs(tmp_path):
    ds = _small_ds()
    rm = _reward_for(ds)
    cfg = _cfg(epochs=3, eval_interval=2)
    train(ds, rm, cfg, out_dir=tmp_path / "a")
    train(ds, rm, cfg, out_dir=tmp_path / "b")
    log_a = (tmp_path / "a" / "metrics.csv").read_bytes()
    log_b = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert log_a == log_b
    lines = log_a.decode().splitlines()
    assert METRICS_COLUMNS == ("epoch", "raw_reward_mean", "critic_loss", "gen_adv_loss",
                               "pd_loss", "czsl_acc", "gzsl_u", "gzsl_s", "gzsl_h")
    assert lines[0] == ",".join(METRICS_COLUMNS)
    assert len(lines) == 1 + 3


def test_eval_rows_follow_interval():
    ds = _small_ds()
    result = train(ds, None, _cfg(epochs=5, use_rl=False, use_cues=False,
                                  eval_interval=2, clf_epochs=3))
    evaluated = [row.epoch for row in result.metrics if not np.isnan(row.czsl_acc)]
    assert evaluated == [1, 3, 4]
    assert sorted(result.reports) == [1, 3, 4]
    for epoch in (1, 3, 4):
        assert result.reports[epoch].czsl_acc == result.metrics[epoch].czsl_acc


def test_checkpoint_round_trip(tmp_path):
    ds = _small_ds()
    result = train(ds, None, _cfg(epochs=2, use_rl=False,
                                  checkpoint_interval=1),
                   out_dir=tmp_path / "run")
    dims, flat, settings = nets.load_checkpoint(tmp_path / "run" / "generator.ckpt",
                                                expected_tag=b"GNET")
    assert dims == result.generator.net.layer_dims
    assert flat.tobytes() == result.generator.net.flat.tobytes()
    assert settings["epoch"] == "1"
    assert settings.keys() == {"epoch", *gan.GENERATOR_KEYS}


def test_checkpoint_written_once_at_the_last_epoch(tmp_path, monkeypatch):
    saved = []
    save = gan.save_generator

    def counting_save(path, gen, config, epoch):
        saved.append(epoch)
        save(path, gen, config, epoch)

    monkeypatch.setattr(gan, "save_generator", counting_save)
    train(_small_ds(), None, _cfg(epochs=2, use_rl=False, checkpoint_interval=1),
          out_dir=tmp_path / "run")
    assert saved == [0, 1]


def test_training_loop_builds_no_tensor(monkeypatch):
    # Only the networks' parameters are Tensors; an extra epoch builds none.
    ds = _small_ds()
    rm = _reward_for(ds)
    built = []
    init = engine.Tensor.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    counts = []
    for epochs in (1, 2):
        cfg = _cfg(epochs=epochs, eval_interval=0, rl_start_epoch=0)
        built.clear()
        with monkeypatch.context() as m:
            m.setattr(engine.Tensor, "__init__", counting_init)
            train(ds, rm, cfg)
        counts.append(len(built))
    assert counts[1] == counts[0]


def test_pretraining_training_and_evaluation_build_no_graph(monkeypatch):
    # No runtime code differentiates through the engine: reward pretraining,
    # a training epoch with the RL step, and evaluation construct no Tensor
    # with parents.
    ds = _small_ds()
    linked = []
    init = engine.Tensor.__init__

    def counting_init(self, data, requires_grad=False, _parents=(), _vjps=()):
        linked.extend(_parents[:1])
        init(self, data, requires_grad, _parents, _vjps)

    monkeypatch.setattr(engine.Tensor, "__init__", counting_init)
    result = train(ds, _reward_for(ds), _cfg(epochs=1, eval_interval=1, rl_start_epoch=0))
    full_report(result.generator, ds, _cfg(), np.random.default_rng(0))
    assert linked == []
    engine.tmean(engine.Tensor(np.ones(2), requires_grad=True))  # the count sees a graph
    assert len(linked) > 0


def _critic_step(loss_fn, args, net, real, fake, cond, lambda_gp, rng):
    """The critic's gradient for the step: the package's stacked pass, which
    sums in another order than the engine graph, so it is held here, as is
    the engine graph of the same loss, within the error bound of the exact
    reference (`bounds.critic_reference`); both draw u from rng as it is."""
    twin = copy.deepcopy(rng)
    grad = loss_fn(*args, lambda_gp, rng)[1]
    u = copy.deepcopy(twin).uniform(size=(real.shape[0], 1))
    _, ref_grad = bounds.critic_reference(net, real, fake, cond, lambda_gp, u)
    terms = oracle.critic_terms(net, real, fake, cond, lambda_gp, twin)
    assert bounds.within(grad, ref_grad) <= 1.0
    assert bounds.within(oracle.flat_grad(terms, net.params), ref_grad) <= 1.0
    return grad


def _oracle_minibatch(ds, rm, cfg):
    """One minibatch of the training schedule on engine graphs: the same
    draws in the same order as trainer.train, with the gradients taken by
    engine.backward and concatenated per network, but for the critics' (see
    `_critic_step`). Each row's visual prototype and reward class come from
    its class id here, not through the trainer's label-to-row map."""
    train_x, train_y = ds.train
    seen = sorted(int(c) for c in ds.seen_classes)
    sched = cfg.schedule()
    init_rng = stream_rng(cfg.seed, "init")
    d = train_x.shape[1]
    gen = gan.Generator(d, ds.sem_dim, cfg, init_rng)
    cx0 = gan.CriticX0(d, ds.sem_dim, cfg, init_rng)
    cxt = gan.CriticXt(d, ds.sem_dim, cfg, init_rng)
    betas = dict(beta1=cfg.adam_beta1, beta2=cfg.adam_beta2)
    opt_critic = nets.AdamState([cx0.net.flat, cxt.net.flat], lr=cfg.lr_adv, **betas)
    opt_gen = nets.AdamState([gen.net.flat], lr=cfg.lr_adv, **betas)
    opt_rl = nets.AdamState([gen.net.flat], lr=cfg.lr_rl, **betas)
    train_rng, rl_rng = stream_rng(cfg.seed, "train"), stream_rng(cfg.seed, "rl")

    idx = train_rng.integers(0, train_x.shape[0], size=cfg.batch_size)
    x0, y = train_x[idx], train_y[idx]
    z = ds.prototypes[y]
    v = np.stack([train_x[train_y == c].mean(0) for c in y])
    reward_rows = np.array([seen.index(int(c)) for c in y])

    t = train_rng.integers(0, cfg.diffusion_steps, size=x0.shape[0])
    x_t = diffusion.forward_noise(x0, t, sched, train_rng)
    x_next = diffusion.forward_transition(x_t, t, sched, train_rng)
    eps_g = train_rng.standard_normal(x0.shape)
    x0_tilde = oracle.synthesize(gen, eps_g, z, x_next, t + 1)
    fake_x0 = x0_tilde.data
    eps_post = copy.deepcopy(train_rng).standard_normal(x0.shape)
    fake_xt = diffusion.posterior_sample(fake_x0, x_next, t, sched, train_rng)
    g0 = _critic_step(gan.critic_x0_loss, (cx0, x0, fake_x0, z), cx0.net, x0, fake_x0, z,
                      cfg.lambda_gp, train_rng)
    cond = cxt.condition(x_next, z, t)
    gt = _critic_step(gan.critic_xt_loss, (cxt, x_t, fake_xt, cond), cxt.net, x_t, fake_xt,
                      cond, cfg.lambda_gp, train_rng)
    opt_critic.step([g0, gt])

    # the critic step's fakes and generator graph, scored by the updated critics
    adv, xt_tilde = oracle.generator_adv_terms(cx0, cxt, x0_tilde, z, x_next, t, sched, eps_post)
    assert xt_tilde.data.tobytes() == fake_xt.tobytes()
    cue = oracle.cue_loss(x0_tilde, v)
    opt_gen.step([oracle.flat_grad(adv + cfg.lambda_pd * cue, gen.net.params)])

    t = rl_rng.integers(0, cfg.diffusion_steps, size=x0.shape[0])
    x_next = diffusion.forward_noise(x0, t + 1, sched, rl_rng)
    eps_g = rl_rng.standard_normal(x0.shape)
    x0_rl = oracle.synthesize(gen, eps_g, z, x_next, t + 1)
    log_probs = oracle.class_log_probs(rm, x0_rl, reward_rows)
    opt_rl.step([oracle.flat_grad(oracle.rl_loss(log_probs), gen.net.params)])


def _replay_against_the_oracle(ds, monkeypatch):
    rm = _reward_for(ds)
    # 32 training rows and batch 32: one epoch is one minibatch
    cfg = _cfg(epochs=1, batch_size=32, rl_start_epoch=0, eval_interval=0)
    assert ds.train[0].shape[0] <= cfg.batch_size
    updates = []
    step = nets.AdamState.step

    def recording_step(self, grads):
        step(self, grads)
        updates.append([p.tobytes() for p in self.params])

    monkeypatch.setattr(nets.AdamState, "step", recording_step)
    train(ds, rm, cfg)
    by_trainer = list(updates)
    updates.clear()
    _oracle_minibatch(ds, rm, cfg)
    assert len(by_trainer) == 3  # critic, generator adversarial, policy gradient
    assert updates == by_trainer


def test_trainer_minibatch_matches_the_engine_oracle(monkeypatch):
    _replay_against_the_oracle(_small_ds(), monkeypatch)


def _renamed(ds: ZslDataset, new_id) -> ZslDataset:
    """ds with class c renamed new_id[c]: the same rows and draws."""
    old_id = np.argsort(new_id)
    return ZslDataset(ds.features, new_id[ds.labels], ds.splits,
                      ds.prototypes[old_id], ds.roles[old_id])


def test_trainer_minibatch_matches_the_engine_oracle_with_seen_ids_out_of_order(monkeypatch):
    # Every synthetic dataset has its seen classes at ids 0..S-1, where the
    # label-to-row map is the identity. Here the seen ids are 0, 1, 3 and 5,
    # and the class that was 0 is now 5, the last seen row.
    ds = _renamed(_small_ds(), np.array([5, 1, 3, 0, 4, 2]))
    assert ds.seen_classes.tolist() == [0, 1, 3, 5]
    _replay_against_the_oracle(ds, monkeypatch)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numeric_abort_names_position():
    ds = _small_ds()
    cfg = _cfg(epochs=2, use_rl=False, use_cues=False,
               lr_adv=1e200, critic_steps=3)
    with pytest.raises(NumericFailure, match=r"epoch 0, batch \d+"):
        train(ds, None, cfg)


# Adam's rejected update overflows on its copies, and numpy says so
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("what, overrides", [
    ("critic", dict(use_rl=False, lr_adv=1e39)),
    ("policy", dict(lr_rl=1e39)),
], ids=["critic", "policy"])
def test_an_adam_step_whose_update_overflows_aborts_naming_it(what, overrides):
    ds = _small_ds()
    with pytest.raises(NumericFailure, match=rf"^{what} step at epoch 0, batch 0: non-finite "
                                             r"parameter after update; update rejected$"):
        train(ds, _reward_for(ds), _cfg(epochs=1, dtype="float32", **overrides))


def test_a_generator_step_with_a_non_finite_gradient_aborts_naming_it(monkeypatch):
    ds = _small_ds()
    adv_terms = gan.generator_adv_terms

    def nan_gradient(*args):
        loss, g_x0 = adv_terms(*args)
        return loss, np.full_like(g_x0, np.nan)

    monkeypatch.setattr(gan, "generator_adv_terms", nan_gradient)
    with pytest.raises(NumericFailure, match=r"^generator step at epoch 0, batch 0: non-finite "
                                             r"gradient; update rejected$"):
        train(ds, None, _cfg(epochs=1, use_rl=False, use_cues=False))


def test_a_non_finite_reward_aborts_naming_its_epoch_and_batch(monkeypatch):
    ds = _small_ds()
    assert -(-ds.train[0].shape[0] // 16) == 2  # two minibatches per epoch
    calls, scored = [], reward.class_log_probs

    def fourth_call_scores_nan(model, x, y):
        r, cache = scored(model, x, y)
        calls.append(1)
        if len(calls) == 4:
            r = r.copy()
            r[-1] = np.nan
        return r, cache

    monkeypatch.setattr(reward, "class_log_probs", fourth_call_scores_nan)
    with pytest.raises(NumericFailure, match=r"^reward is non-finite at epoch 1, batch 1$"):
        train(ds, _reward_for(ds), _cfg())
    assert len(calls) == 4


def test_a_float32_run_computes_every_pass_in_float32(monkeypatch):
    # Every forward and pullback of a float32 run, with RL, cues and
    # evaluation, reads and returns float32, and each Adam step is handed
    # gradients of its parameters' dtype: float32 in training, float64 in
    # the evaluation heads. NumPy promotes float32 with float64 silently,
    # so a float64 operand anywhere would show here.
    ds = _small_ds()
    rm = _reward_for(ds)
    seen = {"forward": [], "pullback": [], "step": []}
    forward, pullback, step = nets.DenseNet.forward, nets.DenseNet.pullback, nets.AdamState.step

    def checked_forward(self, x, out=None):
        h, cache = forward(self, x, out)
        seen["forward"].append({self.flat.dtype, h.dtype, *(a.dtype for a in cache)})
        return h, cache

    def checked_pullback(self, cache, u, wrt_input=False):
        g = pullback(self, cache, u, wrt_input)
        seen["pullback"].append({self.flat.dtype, u.dtype, g.dtype, *(a.dtype for a in cache)})
        return g

    def checked_step(self, grads):
        seen["step"].append(({g.dtype for g in grads}, {p.dtype for p in self.params}))
        step(self, grads)

    monkeypatch.setattr(nets.DenseNet, "forward", checked_forward)
    monkeypatch.setattr(nets.DenseNet, "pullback", checked_pullback)
    monkeypatch.setattr(nets.AdamState, "step", checked_step)
    cfg = _cfg(epochs=2, rl_start_epoch=1, eval_interval=2, dtype="float32")
    result = train(ds, rm, cfg)
    assert result.generator.net.flat.dtype == np.float32
    assert seen["forward"] and all(s == {np.dtype(np.float32)} for s in seen["forward"])
    assert seen["pullback"] and all(s == {np.dtype(np.float32)} for s in seen["pullback"])
    assert all(g == p and len(p) == 1 for g, p in seen["step"])
    batches = -(-ds.train[0].shape[0] // cfg.batch_size)
    f32 = [p for _, p in seen["step"] if p == {np.dtype(np.float32)}]
    assert len(f32) == 2 * 2 * batches + batches  # critic and generator steps, then RL
    assert len(seen["step"]) > len(f32)  # the heads' float64 steps
    assert np.isfinite(result.metrics[-1].czsl_acc)


def test_training_preflight_counts_the_bytes_of_the_runs_dtype(monkeypatch):
    ds, cfg = _small_ds(), _cfg(epochs=1, use_rl=False)
    floats = trainer.training_floats(ds.feat_dim, ds.sem_dim, cfg)
    for dtype, size in (("float64", 8), ("float32", 4)):
        monkeypatch.setattr(trainer, "_physical_memory", lambda: size * floats - 1)
        with pytest.raises(ConfigurationError, match=f"would hold {size * floats:,} bytes"):
            train(ds, None, dataclasses.replace(cfg, dtype=dtype))
        monkeypatch.setattr(trainer, "_physical_memory", lambda: size * floats)
        train(ds, None, dataclasses.replace(cfg, dtype=dtype))


def test_rl_requires_reward_model():
    ds = _small_ds()
    with pytest.raises(ConfigurationError, match="reward model"):
        train(ds, None, _cfg())


def test_reward_model_coverage_mismatch():
    ds = _small_ds()
    wrong = pretrain_reward(np.random.default_rng(0).normal(size=(12, 8)),
                            np.array([0, 1, 2] * 4), 3, Config(reward_epochs=1))
    with pytest.raises(ConfigurationError, match="covers"):
        train(ds, wrong, _cfg())


def test_config_validation():
    for bad in (
        dict(epochs=0),
        dict(rl_start_epoch=-1),
        dict(lr_rl=0.0),
        dict(adam_beta1=1.0),
        dict(synth_per_class=0),
        dict(lambda_pd=-1.0),
    ):
        with pytest.raises(ConfigurationError):
            _cfg(**bad)


def test_networks_are_disjoint():
    ds = _small_ds()
    result = train(ds, None, _cfg(epochs=1, use_rl=False))
    gen_ids = {id(p) for p in result.generator.net.params}
    critic_ids = {id(p) for p in result.critic_x0.net.params + result.critic_xt.net.params}
    assert gen_ids.isdisjoint(critic_ids)


def test_smoke_losses_finite_and_logged():
    ds = _small_ds(seed=3)
    rm = _reward_for(ds, seed=3)
    result = train(ds, rm, _cfg(epochs=4, rl_start_epoch=1, seed=3))
    assert len(result.metrics) == 4
    for row in result.metrics:
        assert np.isfinite(row.critic_loss)
        assert np.isfinite(row.gen_adv_loss)
        assert np.isfinite(row.pd_loss)
        assert 0.0 <= row.pd_loss <= 2.0
    for row in result.metrics[1:]:
        assert np.isfinite(row.raw_reward_mean)
        assert row.raw_reward_mean <= 0.0
