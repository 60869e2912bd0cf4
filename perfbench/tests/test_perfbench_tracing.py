"""Tracer self-tests: span-tree arithmetic, wrapping and restoration."""

from __future__ import annotations

import importlib
import os
import sys
import textwrap
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import tracing  # noqa: E402


def _span(name, start, end, parent, t0=0, t1=0):
    return [name, float(start), float(end), parent, t0, t1]


def test_self_times_on_hand_built_tree():
    spans = [
        _span("trainer.train", 0, 10, -1, 0, 100),
        _span("gan.critic_x0_loss", 1, 4, 0, 10, 30),
        _span("evaluate.full_report", 5, 9, 0, 40, 90),
        _span("evaluate.train_head", 6, 8, 2, 50, 80),
        _span("evaluate.full_report", 11, 12, -1, 100, 110),
    ]
    assert tracing.self_times(spans) == [3.0, 3.0, 2.0, 2.0, 1.0]

    m = tracing.layer_metrics(spans, train_batches=2)
    assert m["trainer.train.calls"] == 1
    assert m["trainer.train.ms"] == 10_000.0
    assert m["trainer.train.self_s"] == 3.0
    assert m["evaluate.full_report.calls"] == 2
    assert m["evaluate.full_report.ms"] == 2_500.0  # median of 4 s and 1 s
    assert m["evaluate.full_report.self_s"] == 3.0
    assert m["reward.rl_loss.calls"] == 0 and m["reward.rl_loss.self_s"] == 0.0
    # 100 tensors under train, 50 of them inside its nested report
    assert m["engine.tensors_per_batch"] == 25.0
    assert m["engine.tensors_per_report"] == 30.0  # (50 + 10) / 2
    assert m["trainer.self_ms_per_batch"] == 1500.0
    assert tracing.span_errors(spans) == []
    assert {k for k, _ in tracing.PER_LAYER_METRICS} - set(m) == {
        "cli.import_s", "trace.pipeline_s", "trace.overhead_s", "trace.spans",
        "trace.missing_targets",
    }


def test_span_errors_on_broken_trees():
    ok = [_span("trainer.train", 0, 10, -1), _span("gan.critic_x0_loss", 1, 4, 0)]
    assert tracing.span_errors(ok) == []
    backwards = [_span("trainer.train", 5, 4, -1)]
    assert "ends before it starts" in tracing.span_errors(backwards)[0]
    outside = [ok[0], _span("gan.critic_x0_loss", 8, 11, 0)]
    assert "outside its parent" in tracing.span_errors(outside)[0]
    forward_parent = [_span("trainer.train", 0, 10, 1), _span("gan.critic_x0_loss", 1, 4, -1)]
    assert "outside its parent" in tracing.span_errors(forward_parent)[0]
    overlapping = [ok[0], _span("gan.critic_x0_loss", 1, 7, 0), _span("gan.critic_xt_loss", 2, 8, 0)]
    assert tracing.span_errors(overlapping) == ["span 0 (trainer.train) has self time -2.0 s"]


def test_no_training_gives_zero_per_batch_figures():
    m = tracing.layer_metrics([_span("evaluate.full_report", 0, 1, -1, 0, 7)], train_batches=0)
    assert m["engine.tensors_per_batch"] == 0.0
    assert m["trainer.self_ms_per_batch"] == 0.0
    assert m["engine.tensors_per_report"] == 7.0


def _module(name, source, **bindings):
    m = types.ModuleType(f"standin.{name}")
    m.__dict__.update(bindings)
    exec(textwrap.dedent(source), m.__dict__)
    return m


def _standins():
    engine = _module("engine", """
        class Tensor:
            __slots__ = ("data",)
            def __init__(self, data):
                self.data = data
    """)
    nets = _module("nets", """
        class AdamState:
            def __init__(self, params):
                self.params = params
            def step(self, grads):
                return len(grads)
    """)
    evaluate = _module("evaluate", """
        def train_head(x):
            opt = AdamState([x])
            opt.step([Tensor(x)])
            return x
        def full_report(x):
            return train_head(x) + 1
    """, AdamState=nets.AdamState, Tensor=engine.Tensor)
    trainer = _module("trainer", """
        def train(x):
            opts = [AdamState([x]) for _ in range(3)]
            for o in opts:
                o.step([Tensor(x), Tensor(x)])
            return full_report(x)
    """, AdamState=nets.AdamState, Tensor=engine.Tensor, full_report=evaluate.full_report)
    return {"engine": engine, "nets": nets, "evaluate": evaluate, "trainer": trainer}


def _bindings(modules):
    """Every module attribute and every class attribute, by identity."""
    out = {}
    for name, m in modules.items():
        for attr, value in vars(m).items():
            out[(name, attr)] = value
            if isinstance(value, type):
                for k, v in vars(value).items():
                    out[(name, attr, k)] = v
    return out


def test_wrap_record_and_restore_on_stand_in_modules():
    mods = _standins()
    before = _bindings(mods)
    tracer = tracing.Tracer()
    tracer.install(mods, scan=list(mods.values()))

    assert mods["trainer"].full_report is mods["evaluate"].full_report  # alias wrapped too
    assert mods["trainer"].full_report is not before[("evaluate", "full_report")]
    assert "gan.critic_x0_loss" in tracer.missing and "trainer.train" not in tracer.missing

    assert mods["trainer"].train(5) == 6
    names = [s[0] for s in tracer.spans]
    assert names == [
        "trainer.train",
        "nets.AdamState.step.critic",
        "nets.AdamState.step.gen_adv",
        "nets.AdamState.step.gen_rl",
        "evaluate.full_report",
        "evaluate.train_head",
        "nets.AdamState.step.head",
    ]
    parents = [s[3] for s in tracer.spans]
    assert parents == [-1, 0, 0, 0, 0, 4, 5]
    assert tracer.tensors == 7
    m = tracing.layer_metrics(tracer.spans, train_batches=1)
    assert m["nets.AdamState.step.calls"] == 4
    assert m["engine.tensors_per_batch"] == 6.0
    assert m["engine.tensors_per_report"] == 1.0

    scan = list(mods.values())
    assert "standin.trainer.full_report" in tracer.leftover_wrappers(scan)
    tracer.restore()
    assert _bindings(mods) == before
    assert tracer.leftover_wrappers(scan) == []
    n = len(tracer.spans)
    mods["trainer"].train(1)
    assert len(tracer.spans) == n  # nothing recorded once restored


def test_leftover_wrappers_finds_a_binding_made_while_traced():
    mods = _standins()
    tracer = tracing.Tracer()
    tracer.install(mods, scan=list(mods.values()))
    mods["trainer"].late_report = mods["evaluate"].full_report  # bound after install
    tracer.restore()
    assert tracer.leftover_wrappers(list(mods.values())) == ["standin.trainer.late_report"]


@pytest.fixture
def rlvc_modules():
    src = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    importlib.import_module("rlvc.cli")
    return {n: importlib.import_module(f"rlvc.{n}") for n in
            ("data", "nets", "engine", "gan", "reward", "cues", "diffusion", "evaluate", "trainer")}


def test_traced_cli_pipeline_on_rlvc(rlvc_modules, tmp_path, capsys):
    from rlvc import cli

    scan = [m for n, m in sys.modules.items() if n == "rlvc" or n.startswith("rlvc.")]
    before = _bindings({m.__name__: m for m in scan})
    data, out = str(tmp_path / "data"), str(tmp_path / "out")
    small = ["--n-seen", "4", "--n-unseen", "2", "--feat-dim", "8", "--sem-dim", "4",
             "--samples-per-class", "10", "--semantic-cluster-size", "2", "--seed", "3"]
    assert cli.main(["gen-synthetic", *small, "--out", data]) == 0

    tracer = tracing.Tracer()
    tracer.install(rlvc_modules)
    assert tracer.missing == []
    assert rlvc_modules["trainer"].full_report is not before[("rlvc.trainer", "full_report")]
    try:
        assert cli.main(["pretrain-reward", "--data", data, "--out", out, "--reward-epochs", "2"]) == 0
        assert cli.main([
            "train", "--data", data, "--reward", os.path.join(out, "reward.ckpt"), "--out", out,
            "--epochs", "2", "--rl-start-epoch", "1", "--batch-size", "16", "--eval-interval", "1",
            "--clf-epochs", "2", "--synth-per-class", "4",
        ]) == 0
    finally:
        tracer.restore()
    capsys.readouterr()
    assert _bindings({m.__name__: m for m in scan}) == before
    assert tracer.leftover_wrappers() == []

    m = tracing.layer_metrics(tracer.spans, train_batches=2 * 2)
    for role in ("critic", "gen_adv", "gen_rl", "head"):
        assert m[f"nets.AdamState.step.{role}.calls"] > 0, role
    assert m["nets.AdamState.step.gen_rl.calls"] == 2  # rl from epoch 1 only, 2 batches
    assert m["evaluate.full_report.calls"] == 2  # through trainer's own binding
    assert m["reward.pretrain_reward.calls"] == 1
    assert m["engine.tensors_per_batch"] > 0
    assert tracing.span_errors(tracer.spans) == []
