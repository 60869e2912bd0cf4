"""Smoke test of tools/probe.py: each subcommand's worker measurement runs
in-process at a tiny shape against the package under test, and every figure
it reports, with the sha256, reaches the printed summary (for `drift`, its
figures and its t-interval). A rename in the rlvc API that the probe calls
fails here rather than only when the tool runs. `bytes` is checked on
stand-in commands: where each step runs, what is hashed and its exit codes."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import re
import sys
import types
from pathlib import Path

import numpy as np
import pytest

PROBE = Path(__file__).resolve().parents[1] / "tools" / "probe.py"


def _load_probe():
    spec = importlib.util.spec_from_file_location("probe", PROBE)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    return probe


# At batch 480 an epoch of the synthetic preset's 960 training rows is two
# minibatches, so --batches 3 trains two epochs.
_STEP = ["step", "--hidden-mult", "1", "--batch-size", "480", "--batches", "3"]


@pytest.mark.parametrize(
    "argv, figures, timed",
    [
        (["adam", "--feat-dim", "8", "--sem-dim", "4", "--steps", "2"],
         {"ms": (2, [r"critic pair \([\d,]+ entries\)", r"generator \([\d,]+ entries\)"])},
         None),
        (["report", "--reports", "2"],
         {"ms": (2, ["full report", "synthesis", "czsl head", "gzsl head", "czsl ms per step",
                     "gzsl ms per step"]),
          # each head's steps over both reports: 50 epochs of 16 and of 24 minibatches
          "us": ([1600, 2400], ["adam 165 entries", "adam 825 entries"])}, None),
        (_STEP,
         {"ms": (4, ["critic pair", "generator adversarial step", "policy step", "adam critic pair",
                     "adam generator", "adam policy", "batch"])}, [2, 4]),
    ],
    ids=["adam", "report", "step"],
)
def test_probe_worker_reports_every_figure_and_a_sha256(argv, figures, timed, capsys):
    """`figures` maps a unit to (values per figure, or a list of each figure's
    count, and each figure's name pattern); `timed` is the epochs and
    minibatches `step` reports timing."""
    probe = _load_probe()
    assert probe.main(["--worker", *argv]) == 0
    result = json.loads(capsys.readouterr().out)
    assert set(result) == {*figures, "peak_rss_mb", "sha256", *(["timed"] if timed else [])}
    assert result.get("timed") == timed
    assert re.fullmatch(r"[0-9a-f]{64}", result["sha256"])
    for unit, (count, patterns) in figures.items():
        assert len(result[unit]) == len(patterns)
        counts = count if isinstance(count, list) else [count] * len(patterns)
        for pattern, n, (name, values) in zip(patterns, counts, result[unit].items()):
            assert re.fullmatch(pattern, name)
            assert len(values) == n and all(v > 0 for v in values)
    hashed = {"adam": "p, m, v", "report": "both heads", "step": "the three networks"}[argv[0]]
    best = probe.summarize("tree", [result], hashed)
    printed = capsys.readouterr().out
    assert list(best) == [name for unit in figures for name in result[unit]]
    for name in best:
        assert f"  {name}: best " in printed
    assert "  peak RSS " in printed
    assert f"  sha256 of {hashed}: {result['sha256']}" in printed
    assert ("  timed 2 epochs, 4 minibatches per round" in printed) == bool(timed)


def test_probe_step_hashes_the_networks_of_a_direct_train_at_its_config(capsys):
    from rlvc import config, data, nets, reward, trainer

    adam = vars(nets.AdamState).copy()
    assert _load_probe().main(["--worker", *_STEP, "--seed", "2"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert vars(nets.AdamState) == adam  # the timing wrappers are gone again
    cfg = config.resolve_config("synthetic", None, {
        "hidden_mult": 1, "batch_size": 480, "seed": 2, "rl_start_epoch": 0, "eval_interval": 0,
        "epochs": 2})
    ds = data.standardize(data.make_synthetic(cfg))
    x, y = ds.train
    rm = reward.pretrain_reward(x, ds.seen_rows(y), len(ds.seen_classes), cfg)
    trained = trainer.train(ds, rm, cfg)
    nets_bytes = (n.net.flat.tobytes() for n in (trained.generator, trained.critic_x0,
                                                 trained.critic_xt))
    assert result["sha256"] == hashlib.sha256(b"".join(nets_bytes)).hexdigest()


def _self_synthesizing_generator_adv_terms(new, last):
    """`gan.generator_adv_terms` whose generator step synthesizes its rows
    itself from the noise it is given, as on the revisions of the old
    signature. `last` holds the latest synthesis's generator and arguments:
    at the generator step those are the critic step's, so the rows, and the
    networks trained, are the tree's."""

    def generator_adv_terms(critic_x0, critic_xt, x0_tilde, xt_tilde, z, cond, c1):
        gen, args = last[0]
        x0_again, _ = gen.synthesize(*args)
        np.testing.assert_array_equal(x0_again, x0_tilde)
        return new(critic_x0, critic_xt, x0_again, xt_tilde, z, cond, c1)

    return generator_adv_terms


@pytest.mark.parametrize("old", [False, True], ids=["tree", "old signature"])
def test_probe_step_runs_the_schedule_of_the_revision_it_measures(old, monkeypatch, capsys):
    # each of the 4 minibatches synthesizes twice (critic and policy steps),
    # or, when the generator step synthesizes its own rows, three times; the
    # critic step draws the one transition
    from rlvc import diffusion, gan

    counts = {"synthesize": 0, "forward_transition": 0}
    last = [None]

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            if name == "synthesize":
                last[0] = (args[0], args[1:])
            return fn(*args, **kwargs)
        return counted

    for owner, name in ((gan.Generator, "synthesize"), (diffusion, "forward_transition")):
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    if old:
        monkeypatch.setattr(gan, "generator_adv_terms",
                            _self_synthesizing_generator_adv_terms(gan.generator_adv_terms, last))
    assert _load_probe().main(["--worker", *_STEP]) == 0
    assert json.loads(capsys.readouterr().out)["ms"]["batch"][0] > 0
    assert counts == ({"synthesize": 12, "forward_transition": 4} if old
                      else {"synthesize": 8, "forward_transition": 4})


def test_probe_step_refuses_a_schedule_of_other_steps(monkeypatch):
    # two critic steps per minibatch: the steps are not critic, generator, policy
    from rlvc import config

    monkeypatch.setitem(config.PRESETS["synthetic"], "critic_steps", 2)
    with pytest.raises(SystemExit, match="^step: 3 optimizers built and 16 steps, not critic, "
                                         "generator, policy for each of 4 minibatches$"):
        _load_probe().main(["--worker", *_STEP])


def test_probe_report_hashes_the_heads_of_direct_full_reports(monkeypatch, capsys):
    # the heads' [w | b] are the vectors the two optimizers of each report stepped
    from rlvc import config, data, evaluate, gan, nets

    assert _load_probe().main(["--worker", "report", "--reports", "2", "--seed", "3"]) == 0
    result = json.loads(capsys.readouterr().out)
    cfg = config.resolve_config("synthetic", None, {"synth_per_class": 400})
    ds = data.standardize(data.make_synthetic(cfg))
    gen = gan.Generator(ds.feat_dim, ds.sem_dim, cfg, np.random.default_rng(3))
    heads = []

    def kept(*args):
        heads.append(nets.fit_linear_softmax(*args))
        return heads[-1]

    monkeypatch.setattr(evaluate, "fit_linear_softmax", kept)
    for k in range(2):
        evaluate.full_report(gen, ds, cfg, np.random.default_rng([3, k]))
    assert len(heads) == 4
    digest = hashlib.sha256(b"".join(w.tobytes() + b.tobytes() for w, b in heads))
    assert result["sha256"] == digest.hexdigest()


def _one_more_optimizer(full_report, *args):
    """`full_report` that builds a third optimizer after its heads."""
    report = full_report(*args)
    _adam()
    return report


def _stepping(order):
    """A stand-in for `full_report` that builds both optimizers first, then
    steps them in `order`."""
    def steps(full_report, *args):
        opts = [_adam(), _adam()]
        for i in order:
            opts[i].step([np.ones(3)])

    return steps


def _adam():
    from rlvc import nets

    return nets.AdamState([np.zeros(3)], lr=0.1, beta1=0.5, beta2=0.999)


@pytest.mark.parametrize("fake, found", [
    (_one_more_optimizer, "3 optimizers built and 2000 steps"),
    (_stepping([0, 1, 0]), "2 optimizers built and 3 steps"),
    (_stepping([0, 1]), "2 optimizers built and 2 steps"),
], ids=["third optimizer", "out of order", "built together"])
def test_probe_report_refuses_a_report_of_other_optimizers(fake, found, monkeypatch):
    from rlvc import evaluate, nets

    adam, real = vars(nets.AdamState).copy(), evaluate.full_report
    monkeypatch.setattr(evaluate, "full_report", lambda *args: fake(real, *args))
    with pytest.raises(SystemExit, match=f"^report: {found}, not the CZSL head's steps "
                                         "and then the GZSL head's$"):
        _load_probe().main(["--worker", "report", "--reports", "1"])
    assert vars(nets.AdamState) == adam  # the timing wrappers are gone again


def test_probe_usage_lists_only_flags_its_parsers_take_at_their_defaults():
    # Each usage line of the docstring, brackets and "..." dropped, is a
    # command line its subcommand's parser takes; each value shown is that
    # flag's default, but for the placeholders REV and key=value.
    probe = _load_probe()
    usage = probe.__doc__.split("\n\n")[2]
    commands = re.split(r"^\s*python3 tools/probe.py ", usage, flags=re.M)[1:]
    assert [c.split()[0] for c in commands] == ["adam", "report", "step", "drift", "bytes"]
    parser = probe.build_parser()
    for command in commands:
        argv = command.replace("[", " ").replace("]", " ").replace("...", " ").split()
        documented, default = vars(parser.parse_args(argv)), vars(parser.parse_args(argv[:1]))
        assert documented.keys() == default.keys()
        shown = {key for key in documented if documented[key] != default[key]}
        assert shown == {"against", "set"} & documented.keys(), command


_TINY = ["n_seen=4", "n_unseen=2", "feat_dim=8", "sem_dim=4", "samples_per_class=10",
         "semantic_cluster_size=3", "epochs=2", "rl_start_epoch=0", "batch_size=16",
         "synth_per_class=4", "clf_epochs=3", "reward_epochs=3"]


def test_drift_worker_reports_each_draw_and_the_late_reward(capsys):
    probe = _load_probe()
    argv = ["--worker", "drift", "--seeds", "1", "--draws", "2", *(f"--set={kv}" for kv in _TINY)]
    assert probe.main(argv) == 0
    result = json.loads(capsys.readouterr().out)
    assert set(result) == {"CZSL", "H", "reward", "peak_rss_mb"}
    assert len(result["CZSL"]) == len(result["H"]) == 2
    assert all(0.0 <= v <= 1.0 for v in result["CZSL"] + result["H"])
    assert result["CZSL"][0] != result["CZSL"][1]  # two draws, two streams
    assert result["reward"] < 0.0
    assert probe.main(argv) == 0
    again = json.loads(capsys.readouterr().out)
    assert [again[k] for k in ("CZSL", "H", "reward")] == [result[k] for k in ("CZSL", "H", "reward")]


def test_drift_t_interval_reads_the_t_table():
    probe = _load_probe()
    mean, half = probe.t_interval([1.0, 2.0, 3.0])
    assert mean == 2.0 and half == pytest.approx(4.303 / 3**0.5)
    # 12 degrees of freedom fall between rows 10 and 15: row 10's point
    sd = (sum((x - 6) ** 2 for x in range(13)) / 12) ** 0.5
    assert probe.t_interval(range(13))[1] == pytest.approx(2.228 * sd / 13**0.5)
    mean, half = probe.t_interval([0.25])
    assert mean == 0.25 and half != half


def test_drift_prints_each_seed_and_the_paired_interval(monkeypatch, capsys):
    probe = _load_probe()
    tree = os.path.join(probe.ROOT, "src")

    def fake_side(src, argv):  # the tree gains 0.1 per seed in CZSL and reward
        gain = 0.1 * int(argv[argv.index("--seeds") + 1]) if src == tree else 0.0
        return {"CZSL": [0.5 + gain, 0.7 + gain], "H": [0.4, 0.4], "reward": -1.0 + gain}

    monkeypatch.setattr(probe, "run_side", fake_side)
    monkeypatch.setattr(probe, "extract", lambda rev, dest: None)
    assert probe.main(["drift", "--against", "REV", "--seeds", "1", "2", "3", "--draws", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[3].split() == ["1", "REV", "0.6000", "±0.1000", "0.4000", "±0.0000", "-1.0000"]
    assert lines[4].split() == ["1", "diff", "+0.1000", "+0.0000", "+1.000e-01"]
    assert lines[-3:] == ["  CZSL: +0.2000 [-0.0484, +0.4484]", "  H: +0.0000 [+0.0000, +0.0000]",
                          "  reward: +2.000e-01 [-4.843e-02, +4.484e-01]"]
    with pytest.raises(SystemExit):
        probe.main(["drift"])


def test_drift_prints_a_reward_change_of_a_few_roundings(monkeypatch, capsys):
    # At 4 decimals a reward moved by 3e-7 on every seed read +0.0000 [-0.0000, +0.0000].
    probe = _load_probe()
    tree = os.path.join(probe.ROOT, "src")

    def fake_side(src, argv):
        seed = int(argv[argv.index("--seeds") + 1])
        return {"CZSL": [0.5], "H": [0.4], "reward": -1.0 + (3e-7 * seed if src == tree else 0.0)}

    monkeypatch.setattr(probe, "run_side", fake_side)
    monkeypatch.setattr(probe, "extract", lambda rev, dest: None)
    assert probe.main(["drift", "--against", "REV", "--seeds", "1", "2", "--draws", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[4].split()[-1] == "+3.000e-07"
    assert lines[-1] == "  reward: +4.500e-07 [-1.456e-06, +2.356e-06]"


def test_probe_bytes_runs_each_step_per_side_and_seed_and_hashes_every_output(monkeypatch,
                                                                              capsys):
    probe = _load_probe()
    tree = os.path.join(probe.ROOT, "src")
    monkeypatch.setattr(probe, "extract", lambda rev, dest: None)
    runs, differ, fail = [], set(), set()  # differ and fail hold (step name, seed, side)

    def fake_run(cmd, cwd, env, capture_output):
        name, args = probe.STEPS[sum(ran[0] == cwd for ran in runs)]  # the steps in order
        seed, side = cmd[cmd.index("--seed") + 1], "tree" if env["PYTHONPATH"] == tree else "rev"
        assert cmd == [sys.executable, "-m", "rlvc.cli", args[0], "--preset", "synthetic",
                       "--seed", seed, *args[1:]]
        assert env["RLVC_THREADS"] == "1"
        runs.append((cwd, seed, side))
        out = Path(cwd, "out")
        out.mkdir(exist_ok=True)
        (out / name).write_text(f"{name} {seed}" + (side if (name, seed, side) in differ else ""))
        return types.SimpleNamespace(returncode=int((name, seed, side) in fail),
                                     stdout=f"{name} {seed}".encode(), stderr=b"")

    monkeypatch.setattr(probe.subprocess, "run", fake_run)
    argv = ["bytes", "--against", "REV", "--seeds", "0", "3"]
    assert probe.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    # every step once per side and seed, each (seed, side) in a directory of its own
    assert len(runs) == 2 * 2 * len(probe.STEPS)
    where = {(seed, side): {cwd for cwd, s, d in runs if (s, d) == (seed, side)}
             for seed in ("0", "3") for side in ("tree", "rev")}
    assert all(len(dirs) == 1 for dirs in where.values())
    assert len(set.union(*where.values())) == 4
    # each step's stdout and each file it wrote, hashed, SAME on both sides
    for seed in ("0", "3"):
        at = lines.index(f"seed {seed}")
        expected = sorted(line for name, _ in probe.STEPS for line in (
            f"  SAME {name} stdout: {hashlib.sha256(f'{name} {seed}'.encode()).hexdigest()}",
            f"  SAME out/{name}: {hashlib.sha256(f'{name} {seed}'.encode()).hexdigest()}"))
        assert sorted(lines[at + 1 : at + 1 + len(expected)]) == expected
    assert len(lines) == 2 * (1 + 2 * len(probe.STEPS)) + 1 and lines[-1] == "SAME"

    runs.clear()
    differ.add(("train", "3", "rev"))
    assert probe.main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if "SAME" not in line] == [
        "seed 0", "seed 3", f"  DIFF out/train: tree {hashlib.sha256(b'train 3').hexdigest()}, "
        f"REV {hashlib.sha256(b'train 3rev').hexdigest()}", "DIFFERENT: 1 artifact(s)"]

    runs.clear()
    fail.add(("eval-small", "3", "rev"))  # the last seed's last side
    with pytest.raises(SystemExit) as stop:
        probe.main(argv)
    assert stop.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "eval-small failed with exit 1" in err
