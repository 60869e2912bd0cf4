"""Acceptance battery.

One test per shipping criterion, each printing a single PASS/FAIL line
(run with `pytest tests/test_acceptance.py -s` to see them). The two
end-to-end criteria share one set of seeded training runs.
"""

from __future__ import annotations

import csv
import math
import time

import numpy as np
import pytest

from rlvc import cli, cues, diffusion, engine, gan
from rlvc import reward as reward_mod
from rlvc.config import Config, resolve_config
from rlvc.data import load_dataset, make_synthetic, standardize
from rlvc.evaluate import full_report, harmonic_mean
from rlvc.gan import CriticX0, CriticXt, Generator
from rlvc.nets import DenseNet, SoftmaxClassifier
from rlvc.reward import class_log_probs
from rlvc.trainer import train

import oracle
from conftest import max_fd_error


def _verdict(idx: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {idx:02d} {name}: {status} ({detail})", flush=True)
    assert ok, f"acceptance {idx:02d} {name}: {detail}"


class _KinkMargin:
    """Wraps the dense forward pass to record how close any hidden
    pre-activation comes to its leaky-relu kink. Central differences are
    only valid when the whole stencil stays on one side, so evaluation points
    are accepted only with a margin of 100x the difference step. The margin
    is measured before and independently of the gradient comparison; a wrong
    gradient still fails at every accepted point."""

    def __init__(self):
        self.margin = np.inf
        forward = DenseNet.forward

        def recording_forward(net, x):
            out, inputs = forward(net, x)
            for h, w, b in zip(inputs, net.weights[:-1], net.biases[:-1]):
                pre = h @ w.data.T + b.data
                self.margin = min(self.margin, float(np.min(np.abs(pre))))
            return out, inputs

        self.forward = recording_forward


def test_01_gradient_correctness(monkeypatch):
    t_start = time.perf_counter()
    d, dz, b = 4, 2, 3
    sched = diffusion.build_schedule(4, 0.1, 0.4)
    gp = Config().lambda_gp
    lambda_pd = 5.0
    worst = 0.0
    sizes = []
    accepted = 0
    point = 0

    while accepted < 10:
        point += 1
        assert point < 100, "could not find smooth evaluation points"
        rng = np.random.default_rng(1000 + point)
        gen = Generator(d, dz, Config(hidden_mult=2, temb_dim=4), rng)
        c0 = CriticX0(d, dz, Config(hidden_mult=2), rng)
        ct = CriticXt(d, dz, Config(hidden_mult=2, temb_dim=4), rng)
        sizes = [net.net.flat.size for net in (gen, c0, ct)]

        real = rng.normal(size=(b, d))
        fake = rng.normal(size=(b, d))
        z = rng.normal(size=(b, dz))
        x_next = rng.normal(size=(b, d))
        t = rng.integers(0, 4, size=b)
        xt_real = rng.normal(size=(b, d))
        xt_fake = rng.normal(size=(b, d))
        eps_g = rng.standard_normal((b, d))
        eps_p = rng.standard_normal((b, d))
        y = rng.integers(0, 2, size=b)
        v = cues.mine_prototypes(rng.normal(size=(6, d)), np.repeat([0, 1], 3), [0, 1])[y]
        model = SoftmaxClassifier(rng.normal(size=(2, d)), rng.normal(size=2))
        gp_seed = 7700 + point

        def loss_c0():
            return gan.critic_x0_loss(c0, real, fake, z, gp, np.random.default_rng(gp_seed))

        def loss_ct():
            return gan.critic_xt_loss(
                ct, xt_real, xt_fake, ct.condition(x_next, z, t), gp,
                np.random.default_rng(gp_seed)
            )

        def adv_pass():
            # the trainer's rows: a forward and its posterior sample, the draw fixed
            x0_tilde, cache = gen.synthesize(eps_g, z, x_next, t + 1)
            xt_tilde = (sched.c1[t] * x0_tilde + sched.c2[t] * x_next) + sched.sigma[t] * eps_p
            loss, g_x0 = gan.generator_adv_terms(c0, ct, x0_tilde, xt_tilde, z,
                                                 ct.condition(x_next, z, t), sched.c1[t])
            return loss, x0_tilde, g_x0, cache

        def loss_adv():
            loss, _, g_x0, cache = adv_pass()
            return loss, gen.net.pullback(cache, g_x0)

        def loss_rl():
            x0, cache = gen.synthesize(eps_g, z, x_next, t + 1)
            lp, lp_cache = class_log_probs(model, x0, y)
            loss, g_x0 = reward_mod.rl_loss(lp, lp_cache)
            return loss, gen.net.pullback(cache, g_x0)

        def loss_pd():
            x0, cache = gen.synthesize(eps_g, z, x_next, t + 1)
            value, contributions = cues.cue_loss(x0, v, 1.0)
            return value, gen.net.pullback(cache, sum(contributions))

        def loss_total():
            adv, x0_tilde, g_x0, cache = adv_pass()
            cue, contributions = cues.cue_loss(x0_tilde, v, lambda_pd)
            for g in contributions:
                g_x0 = g_x0 + g
            return adv + lambda_pd * cue, gen.net.pullback(cache, g_x0)

        checks = [
            (loss_c0, c0.net.flat),
            (loss_ct, ct.net.flat),
            (loss_adv, gen.net.flat),
            (loss_rl, gen.net.flat),
            (loss_pd, gen.net.flat),
            (loss_total, gen.net.flat),
        ]

        recorder = _KinkMargin()
        with monkeypatch.context() as m:
            m.setattr(DenseNet, "forward", recorder.forward)
            for fn, _ in checks:
                fn()
        if recorder.margin < 1e-3:
            continue
        accepted += 1

        for fn, flat in checks:
            def listed(fn=fn):
                value, grad = fn()
                return value, [grad]

            worst = max(worst, max_fd_error(listed, [flat]))

    elapsed = time.perf_counter() - t_start
    ok = worst < 1e-4 and max(sizes) <= 1000 and elapsed < 120
    _verdict(
        1, "gradient-correctness", ok,
        f"six losses x 10 points, max rel err {worst:.2e}, "
        f"net sizes {sizes}, {elapsed:.1f}s",
    )


def test_02_harmonic_mean_table():
    cases = [(81.4, 80.9, 81.2), (55.6, 59.6, 57.6), (82.4, 78.4, 80.4)]
    errs = [abs(harmonic_mean(s, u) - h) for s, u, h in cases]
    ok = all(e <= 0.1 for e in errs)
    _verdict(2, "harmonic-mean-table", ok, f"max deviation {max(errs):.3f} <= 0.1")


def test_03_outcome_reward_exactness():
    flat = SoftmaxClassifier(np.zeros((4, 3)), np.zeros(4))
    r_flat = float(class_log_probs(flat, [[0.3, -1.2, 4.0]], [2])[0][0])
    err_flat = abs(r_flat - math.log(0.25))

    ladder = SoftmaxClassifier(np.array([[2.0], [1.0], [0.0]]), np.zeros(3))
    r_hand = float(class_log_probs(ladder, [[1.0]], [0])[0][0])
    err_hand = abs(r_hand - (-0.407606))

    ok = err_flat < 1e-12 and err_hand < 1e-5
    _verdict(
        3, "outcome-reward-exactness", ok,
        f"uniform err {err_flat:.1e} < 1e-12, hand case err {err_hand:.1e} < 1e-5",
    )


def _tiny_run(seed: int, **overrides):
    """test_05's shape: its dataset and reward model at this seed, and a
    10-epoch run with the policy step on from the first epoch."""
    ds = make_synthetic(Config(
        n_seen=4, n_unseen=2, feat_dim=8, sem_dim=4, samples_per_class=10,
        semantic_cluster_size=3, seed=seed,
    ))
    train_x, train_y = ds.train
    rm = reward_mod.pretrain_reward(train_x, ds.seen_rows(train_y), len(ds.seen_classes),
                                    Config(reward_epochs=10), rng=np.random.default_rng(seed))
    cfg = Config(epochs=10, rl_start_epoch=0, batch_size=16, synth_per_class=4,
                 eval_interval=0, seed=seed, **overrides)
    return ds, rm, cfg, train(ds, rm, cfg)


def _late_reward(result) -> float:
    return float(np.mean([row.raw_reward_mean for row in result.metrics[-3:]]))


def test_04_reward_ascent():
    # (a) First order: on fixed batches after training, the policy step's
    # direction (minus the pullback of reward.rl_loss's gradient) has a
    # positive inner product with the gradient of the batch-mean reward,
    # taken here by engine.backward through the generator. (b) Control:
    # three short runs end with a higher reward than the same draws at
    # lr_rl = 1e-12.
    t_start = time.perf_counter()
    cosines, gains = [], []
    for seed in (0, 1, 2, 3):
        ds, rm, cfg, result = _tiny_run(seed)
        if seed < 3:
            control = _tiny_run(seed, lr_rl=1e-12)[3]
            gains.append(_late_reward(result) - _late_reward(control))
        gen, sched = result.generator, cfg.schedule()
        train_x, train_y = ds.train
        reward_rows = ds.seen_rows(train_y)
        rng = np.random.default_rng([seed, 4])
        for _ in range(20):
            idx = rng.integers(0, len(train_x), size=cfg.batch_size)
            z, rows = ds.prototypes[train_y[idx]], reward_rows[idx]
            t = rng.integers(0, cfg.diffusion_steps, size=len(idx))
            x_t = diffusion.forward_noise(train_x[idx], t, sched, rng)
            x_next = diffusion.forward_transition(x_t, t, sched, rng)
            eps = rng.standard_normal(x_t.shape)
            x0, cache = gen.synthesize(eps, z, x_next, t + 1)
            step = -gen.net.pullback(cache, reward_mod.rl_loss(*class_log_probs(rm, x0, rows))[1])
            lp = oracle.class_log_probs(rm, oracle.synthesize(gen, eps, z, x_next, t + 1), rows)
            ascent = oracle.flat_grad(engine.tmean(lp), gen.net.params)
            cosines.append(float(step @ ascent) / float(np.linalg.norm(step) * np.linalg.norm(ascent)))
    elapsed = time.perf_counter() - t_start
    ok = min(cosines) > 0.0 and min(gains) > 0.0 and elapsed < 60
    _verdict(
        4, "reward-ascent", ok,
        f"cos(step, grad mean reward) > 0 on {sum(c > 0.0 for c in cosines)}/{len(cosines)} "
        f"batches (min {min(cosines):+.3f}); late reward minus lr_rl=1e-12 control "
        f"{', '.join(f'{g:+.4f}' for g in gains)} > 0; {elapsed:.1f}s",
    )


def test_05_cold_start_gate():
    t_start = time.perf_counter()
    ds = make_synthetic(Config(
        n_seen=4, n_unseen=2, feat_dim=8, sem_dim=4, samples_per_class=10,
        semantic_cluster_size=3, seed=0,
    ))
    train_x, train_y = ds.train
    seen = sorted(int(c) for c in ds.seen_classes)
    rows = np.asarray([seen.index(int(c)) for c in train_y])
    rm = reward_mod.pretrain_reward(train_x, rows, len(seen), Config(reward_epochs=10),
                                    rng=np.random.default_rng(0))
    cfg = Config(epochs=10, rl_start_epoch=6, batch_size=16,
                 synth_per_class=4, seed=0)
    result = train(ds, rm, cfg)
    batches = -(-train_x.shape[0] // cfg.batch_size)
    before = [c.rl_updates for c in result.counters[:6]]
    after = [c.rl_updates for c in result.counters[6:]]
    elapsed = time.perf_counter() - t_start
    ok = (
        all(n == 0 for n in before)
        and all(n == batches for n in after)
        and elapsed < 60
    )
    _verdict(
        5, "cold-start-gate", ok,
        f"RL updates: epochs 0-5 all 0, epochs 6-9 all {batches}, {elapsed:.1f}s",
    )


def test_06_diffusion_consistency():
    t_start = time.perf_counter()
    sched8 = diffusion.build_schedule(8, 0.05, 0.8)
    t_all = np.arange(8)
    lhs = sched8.c1[t_all, 0] + sched8.c2[t_all, 0] * np.sqrt(sched8.alpha_bars[t_all + 1])
    rhs = np.sqrt(sched8.alpha_bars[t_all])
    id_err = float(np.max(np.abs(lhs - rhs)))

    sched4 = diffusion.build_schedule(4, 0.1, 0.4)
    rng = np.random.default_rng(0)
    worst_var = 0.0
    for t in range(1, 5):
        x0 = np.zeros((100_000, 1))
        x_t = diffusion.forward_noise(x0, np.full(100_000, t), sched4, rng)
        var = float(np.var(x_t))
        expected = 1.0 - sched4.alpha_bars[t]
        worst_var = max(worst_var, abs(var - expected) / expected)
    elapsed = time.perf_counter() - t_start
    ok = id_err < 1e-10 and worst_var < 0.02 and elapsed < 30
    _verdict(
        6, "diffusion-consistency", ok,
        f"posterior identity err {id_err:.1e} < 1e-10, "
        f"noise variance rel err {worst_var:.4f} < 0.02, {elapsed:.1f}s",
    )


def test_07_distillation_exact_cases():
    def pd(x, v):
        return cues.cue_loss(np.array(x), np.array(v), 1.0)[0]

    v = [[1.0, 0.0]]
    aligned = pd([[3.0, 0.0]], v)
    orthogonal = pd([[0.0, 2.0]], v)
    antipodal = pd([[-1.0, 0.0]], v)
    exact_err = max(abs(aligned), abs(orthogonal - 1.0), abs(antipodal - 2.0))

    rng = np.random.default_rng(0)
    lo, hi = np.inf, -np.inf
    for _ in range(10_000):
        proto = rng.normal(size=(1, 4))
        value = pd(rng.normal(size=(1, 4)), proto)
        lo, hi = min(lo, value), max(hi, value)
    ok = exact_err < 1e-12 and lo >= 0.0 and hi <= 2.0
    _verdict(
        7, "distillation-exact-cases", ok,
        f"endpoint err {exact_err:.1e} < 1e-12, range [{lo:.3f}, {hi:.3f}] in [0,2]",
    )


def _reward_series(out_dir) -> list[float]:
    with open(out_dir / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    vals = [float(r["raw_reward_mean"]) for r in rows]
    return [v for v in vals if not math.isnan(v)]


@pytest.fixture(scope="module")
def ablation_battery(tmp_path_factory):
    base = tmp_path_factory.mktemp("battery")
    t_start = time.perf_counter()
    runs = {"data": {}, "full": {}, "vanilla": {}}
    for seed in (0, 1, 2):
        data = base / f"data{seed}"
        full = base / f"full{seed}"
        van = base / f"van{seed}"
        seed_args = ["--preset", "synthetic", "--seed", str(seed)]
        assert cli.main(["gen-synthetic", "--out", str(data)] + seed_args) == 0
        assert cli.main(["pretrain-reward", "--data", str(data),
                         "--out", str(full)] + seed_args) == 0
        assert cli.main(["train", "--data", str(data), "--out", str(full),
                         "--reward", str(full / "reward.ckpt")] + seed_args) == 0
        assert cli.main(["train", "--data", str(data), "--out", str(van),
                         "--no-rl", "--no-cues"] + seed_args) == 0
        runs["data"][seed] = data
        runs["full"][seed] = full
        runs["vanilla"][seed] = van
    runs["elapsed"] = time.perf_counter() - t_start
    return runs


DRAWS = 8  # evaluation draws per run, from the rngs [seed, 100 + k] of `probe.py drift`


def _final_reports(data_dir, run_dir, seed: int) -> np.ndarray:
    """(CZSL, H) of the run's final generator, one row per draw k < DRAWS,
    each from the rng [seed, 100 + k]: the same streams for every arm."""
    raw = load_dataset(str(data_dir))
    cfg = resolve_config("synthetic", None, {"seed": seed})
    gen, cfg, _ = gan.load_generator(str(run_dir / "generator.ckpt"), raw.feat_dim,
                                     raw.sem_dim, cfg)
    ds = standardize(raw) if cfg.standardize else raw
    reports = [full_report(gen, ds, cfg, np.random.default_rng([seed, 100 + k]))
               for k in range(DRAWS)]
    return np.array([(r.czsl_acc, r.gzsl_h) for r in reports])


def test_08_ablation_direction(ablation_battery):
    # One draw's CZSL moves by 0.05-0.10 on the full arm, so each run is
    # judged on the mean of DRAWS reports, paired with the other arm's by
    # seed and draw. Each figure prints as mean ± sd over seeds and draws.
    t_start = time.perf_counter()
    full, van = (np.concatenate([_final_reports(ablation_battery["data"][seed],
                                                ablation_battery[arm][seed], seed)
                                 for seed in (0, 1, 2)])
                 for arm in ("full", "vanilla"))
    gain, h_gap = np.mean(full - van, axis=0)
    gain_sd, h_gap_sd = np.std(full - van, axis=0)
    elapsed = ablation_battery["elapsed"] + time.perf_counter() - t_start
    ok = gain > 0.0 and gain >= 0.01 and h_gap >= 0.0 and elapsed < 900
    mean, sd = np.mean(full, axis=0), np.std(full, axis=0)
    van_mean, van_sd = np.mean(van, axis=0), np.std(van, axis=0)
    _verdict(
        8, "ablation-direction", ok,
        f"{DRAWS} draws x 3 seeds; unseen acc {mean[0]:.4f} ± {sd[0]:.4f} vs "
        f"{van_mean[0]:.4f} ± {van_sd[0]:.4f} "
        f"(gain {100 * gain:.2f} ± {100 * gain_sd:.2f} points >= 1), "
        f"H {mean[1]:.4f} ± {sd[1]:.4f} vs {van_mean[1]:.4f} ± {van_sd[1]:.4f} "
        f"(gap {h_gap:+.4f} ± {h_gap_sd:.4f} >= 0), {elapsed:.0f}s < 900s",
    )


def test_09_reward_trend(ablation_battery):
    up = 0
    spans = []
    for seed in (0, 1, 2):
        series = _reward_series(ablation_battery["full"][seed])
        w = math.ceil(0.1 * len(series))
        early = float(np.mean(series[:w]))
        late = float(np.mean(series[-w:]))
        spans.append(f"seed{seed} {early:.3f}->{late:.3f}")
        if late > early:
            up += 1
    ok = up >= 2
    _verdict(9, "reward-trend", ok, f"{up}/3 seeds improved ({'; '.join(spans)})")


def test_10_determinism(tmp_path):
    data = str(tmp_path / "data")
    tiny = ["--n-seen", "4", "--n-unseen", "2", "--feat-dim", "8",
            "--sem-dim", "4", "--samples-per-class", "10",
            "--semantic-cluster-size", "3"]
    fast = ["--epochs", "4", "--rl-start-epoch", "1", "--batch-size", "16",
            "--synth-per-class", "4", "--clf-epochs", "3",
            "--reward-epochs", "10", "--eval-interval", "2"]
    assert cli.main(["gen-synthetic", "--out", data] + tiny) == 0
    assert cli.main(["pretrain-reward", "--data", data,
                     "--out", str(tmp_path / "rm")] + fast) == 0
    for name in ("a", "b"):
        code = cli.main(["train", "--data", data, "--out", str(tmp_path / name),
                         "--reward", str(tmp_path / "rm" / "reward.ckpt")] + fast)
        assert code == 0
    log_a = (tmp_path / "a" / "metrics.csv").read_bytes()
    log_b = (tmp_path / "b" / "metrics.csv").read_bytes()
    ok = log_a == log_b and len(log_a) > 0
    _verdict(10, "determinism", ok,
             f"metrics logs byte-identical ({len(log_a)} bytes)")
