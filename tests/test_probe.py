"""Smoke test of tools/probe.py: each subcommand's worker measurement runs
in-process at a tiny shape against the package under test, and every figure
it reports, with the sha256, reaches the printed summary (for `drift`, its
figures and its t-interval). A rename in the rlvc API that the probe calls
fails here rather than only when the tool runs. tools/same_bytes.py's
--tree-set is checked on stand-in commands: the flag it adds and the
checkpoint settings line it drops."""

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
        (["report", "--reports", "1", "--adam-steps", "3"],
         {"ms": (1, ["synthesis", "czsl head", "gzsl head", "czsl ms per step",
                     "gzsl ms per step"]),
          "us": (3, ["adam 165 entries", "adam 825 entries"])}, None),
        (_STEP,
         {"ms": (4, ["critic pair", "generator adversarial step", "policy step", "adam critic pair",
                     "adam generator", "adam policy", "batch"])}, [2, 4]),
    ],
    ids=["adam", "report", "step"],
)
def test_probe_worker_reports_every_figure_and_a_sha256(argv, figures, timed, capsys):
    """`figures` maps a unit to (values per figure, each figure's name pattern);
    `timed` is the epochs and minibatches `step` reports timing."""
    probe = _load_probe()
    assert probe.main(["--worker", *argv]) == 0
    result = json.loads(capsys.readouterr().out)
    assert set(result) == {*figures, "peak_rss_mb", "sha256", *(["timed"] if timed else [])}
    assert result.get("timed") == timed
    assert re.fullmatch(r"[0-9a-f]{64}", result["sha256"])
    for unit, (count, patterns) in figures.items():
        assert len(result[unit]) == len(patterns)
        for pattern, (name, values) in zip(patterns, result[unit].items()):
            assert re.fullmatch(pattern, name)
            assert len(values) == count and all(v > 0 for v in values)
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
    monkeypatch.setitem(sys.modules, "same_bytes", types.SimpleNamespace(extract=lambda r, d: None))
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
    monkeypatch.setitem(sys.modules, "same_bytes", types.SimpleNamespace(extract=lambda r, d: None))
    assert probe.main(["drift", "--against", "REV", "--seeds", "1", "2", "--draws", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[4].split()[-1] == "+3.000e-07"
    assert lines[-1] == "  reward: +4.500e-07 [-1.456e-06, +2.356e-06]"


def _load_same_bytes():
    spec = importlib.util.spec_from_file_location("same_bytes", PROBE.parent / "same_bytes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_bytes_tree_set_adds_its_flag_and_drops_its_checkpoint_line(tmp_path, monkeypatch):
    from rlvc import nets

    same_bytes = _load_same_bytes()
    dims, flat = [3, 2], np.arange(8, dtype=np.float64)
    nets.save_checkpoint(tmp_path / "tree.ckpt", b"GNET", dims, flat,
                         "beta_max = 0.9\ndtype = float64\nepoch = 1\n")
    nets.save_checkpoint(tmp_path / "parent.ckpt", b"GNET", dims, flat, "beta_max = 0.9\nepoch = 1\n")
    tree = (tmp_path / "tree.ckpt").read_bytes()
    assert (same_bytes.without_settings(tree, ["dtype = float64"])
            == (tmp_path / "parent.ckpt").read_bytes())
    assert same_bytes.without_settings(tree, ["dtype = float32"]) == tree

    commands = []

    def fake_run(cmd, cwd, env, capture_output):
        commands.append(cmd)
        if cmd[3] == "train":  # each train writes a checkpoint as the tree would
            (Path(cwd) / "generator.ckpt").write_bytes(tree)
        return types.SimpleNamespace(returncode=0, stdout=b"")

    monkeypatch.setattr(same_bytes.subprocess, "run", fake_run)
    (tmp_path / "work").mkdir()
    hashes = same_bytes.run_pipeline("src", str(tmp_path / "work"), 0, ["dtype=float64"])
    assert len(commands) == len(same_bytes.STEPS)
    assert all(cmd[-2:] == ["--dtype", "float64"] for cmd in commands)
    assert hashes["generator.ckpt"] == same_bytes._sha((tmp_path / "parent.ckpt").read_bytes())
    commands.clear()
    same_bytes.run_pipeline("src", str(tmp_path / "work"), 0)
    assert not any("--dtype" in cmd for cmd in commands)
