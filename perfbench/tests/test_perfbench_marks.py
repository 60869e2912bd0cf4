"""Clock self-tests: segment keys, least-time arithmetic and restoration."""

from __future__ import annotations

import os
import sys
import textwrap
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import marks  # noqa: E402


def _module(name, source, **bindings):
    m = types.ModuleType(f"standin.{name}")
    m.__dict__.update(bindings)
    exec(textwrap.dedent(source), m.__dict__)
    return m


def _standins():
    engine = _module("engine", """
        def log_softmax(a, axis=1):
            return a
    """)
    nets = _module("nets", """
        class AdamState:
            def __init__(self, params):
                self.params = params
            def step(self, grads):
                return len(grads)
    """)
    gan = _module("gan", """
        class Generator:
            def synthesize(self, x):
                return x
    """)
    evaluate = _module("evaluate", """
        class Rows:
            def __init__(self, n):
                self.data = [0] * n
        def full_report(gen, x):
            gen.synthesize(x)
            gen.synthesize(x)
            for _ in range(2):  # two heads, each two full batches and a short one
                opt = AdamState([x])
                for n in (4, 4, 3):
                    engine.log_softmax(Rows(n))
                    opt.step([x])
            return x
    """, AdamState=nets.AdamState, engine=engine)
    trainer = _module("trainer", """
        def train(gen, x, batches):
            critic, opt_gen = AdamState([x]), AdamState([x])
            for _ in range(batches):
                gen.synthesize(x)
                critic.step([x])
                opt_gen.step([x])
            return full_report(gen, x)
    """, AdamState=nets.AdamState, full_report=evaluate.full_report)
    return {"engine": engine, "nets": nets, "gan": gan, "evaluate": evaluate, "trainer": trainer}


def _bindings(modules):
    out = {}
    for name, m in modules.items():
        for attr, value in vars(m).items():
            out[(name, attr)] = value
            if isinstance(value, type):
                for k, v in vars(value).items():
                    out[(name, attr, k)] = v
    return out


def test_segment_keys_on_stand_in_modules():
    mods = _standins()
    before = _bindings(mods)
    clock = marks.Clock()
    clock.install(mods["engine"], mods["nets"], mods["gan"], mods["evaluate"],
                  scan=list(mods.values()))
    assert mods["trainer"].full_report is not before[("trainer", "full_report")]

    gen = mods["gan"].Generator()
    clock.begin_stage("train")
    mods["trainer"].train(gen, 1, batches=3)
    train = clock.end_stage()
    clock.begin_stage("eval")
    mods["evaluate"].full_report(gen, 1)
    evaluation = clock.end_stage()

    counts = {k: v[0] for k, v in train["segments"].items()}
    assert counts == {
        "s|train|<|syn": 1,
        "s|train|syn|adam0.-": 3,
        "s|train|adam0.-|adam1.-": 3,
        "s|train|adam1.-|syn": 2,
        "s|train|adam1.-|report<": 1,
        # inside the report: optimizers counted from 0 again, short batches apart
        "r|report<|syn": 1,
        "r|syn|syn": 1,
        "r|syn|adam0.4": 1,
        "r|adam0.4|adam0.4": 1,
        "r|adam0.4|adam0.3": 1,
        "r|adam0.3|adam1.4": 1,
        "r|adam1.4|adam1.4": 1,
        "r|adam1.4|adam1.3": 1,
        "r|adam1.3|report>": 1,
        "s|train|report>|>": 1,
    }
    assert len(train["reports"]) == 1 and len(evaluation["reports"]) == 1
    assert train["reports"][0] > 0
    report = {k: v[0] for k, v in train["segments"].items() if k.startswith("r|")}
    assert report == {k: v[0] for k, v in evaluation["segments"].items() if k.startswith("r|")}
    for count, wall, cpu in train["segments"].values():
        assert wall >= 0 and cpu >= 0

    clock.restore()
    assert _bindings(mods) == before


def test_least_times_and_fast_time():
    a = {"segments": {"s|train|syn|adam0.-": [3, 0.010, 0.009], "r|report<|syn": [1, 0.5, 0.4]},
         "reports": [0.5]}
    b = {"segments": {"s|train|syn|adam0.-": [2, 0.008, 0.010], "r|report<|syn": [1, 0.3, 0.35],
                      "s|eval|<|report<": [1, 0.2, 0.1]},
         "reports": [0.5]}
    least = marks.least_times([a, b])
    assert least == {"s|train|syn|adam0.-": (0.008, 0.009), "r|report<|syn": (0.3, 0.35),
                     "s|eval|<|report<": (0.2, 0.1)}
    wall, cpu = marks.fast_time(a, least)
    assert abs(wall - (3 * 0.008 + 0.3)) < 1e-12 and abs(cpu - (3 * 0.009 + 0.35)) < 1e-12
    assert marks.fast_time(b, least, reports_only=True) == (0.3, 0.35)


def test_marks_outside_a_stage_are_ignored():
    clock = marks.Clock()
    clock.mark("syn")
    assert clock.segments == {}
    clock.begin_stage("eval")
    clock.mark(marks.REPORT_BEGIN)
    clock._scopes.append(marks._Scope(marks.REPORT_SCOPE))  # a report that never returned
    record = clock.end_stage()
    assert set(record["segments"]) == {"s|eval|<|report<", "s|eval|report<|>"}


def test_clock_on_rlvc_cli(tmp_path, capsys):
    src = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from rlvc import cli, engine, evaluate, gan, nets

    scan = [m for n, m in sys.modules.items() if n == "rlvc" or n.startswith("rlvc.")]
    before = _bindings({m.__name__: m for m in scan})
    data, out = str(tmp_path / "data"), str(tmp_path / "out")
    small = ["--n-seen", "4", "--n-unseen", "2", "--feat-dim", "8", "--sem-dim", "4",
             "--samples-per-class", "10", "--semantic-cluster-size", "2", "--seed", "3"]
    assert cli.main(["gen-synthetic", *small, "--out", data]) == 0

    clock = marks.Clock()
    clock.install(engine, nets, gan, evaluate)
    try:
        clock.begin_stage("train")
        assert cli.main([
            "train", "--data", data, "--no-rl", "--no-cues", "--out", out, "--epochs", "2",
            "--batch-size", "16", "--eval-interval", "1", "--clf-epochs", "2",
            "--synth-per-class", "4",
        ]) == 0
        train = clock.end_stage()
    finally:
        clock.restore()
    capsys.readouterr()
    assert _bindings({m.__name__: m for m in scan}) == before

    assert len(train["reports"]) == 2  # through trainer's own binding of full_report
    keys = train["segments"]
    assert keys["s|train|syn|adam0.-"][0] == 2 * 2  # one critic step per batch
    assert any(k.startswith("r|syn|adam0.") for k in keys)  # head steps carry their rows
    least = marks.least_times([train])
    wall, cpu = marks.fast_time(train, least)
    assert 0 < marks.fast_time(train, least, reports_only=True)[0] < wall
    assert cpu > 0
