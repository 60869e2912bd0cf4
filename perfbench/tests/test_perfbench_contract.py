"""BENCHMARK.json agrees with the code, and the output checks catch bad runs."""

from __future__ import annotations

import json
import math
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
sys.path.insert(0, BENCH_DIR)
import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _benchmark():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_and_units():
    bench = _benchmark()
    names = []
    for section in ("end_to_end", "per_layer"):
        for metric in bench[section]:
            assert NAME.fullmatch(metric["name"]), metric
            assert UNIT.fullmatch(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher"), metric
            names.append(metric["name"])
    assert len(names) == len(set(names))
    for metric in bench["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25, metric
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_benchmark_json_matches_the_code():
    bench = _benchmark()
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(tracing.PER_LAYER_METRICS)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert bench["paths"] == ["perfbench"]


def test_refuses_to_run_outside_a_checkout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "eval-sweep", "--seed", "0", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_eval_line_checks():
    line = "acc=0.683333 u=0.770000 s=0.612500 h=0.682278\n"
    figures = checks.parse_eval("noise\n" + line)
    assert figures == {"acc": 0.683333, "u": 0.77, "s": 0.6125, "h": 0.682278}
    assert checks.check_eval(figures, n_unseen=5) == []
    assert checks.check_eval(None, 5)
    assert checks.check_eval(dict(figures, acc=0.2), 5)  # chance is not above chance
    assert checks.check_eval(dict(figures, h=1.5), 5)


def test_metrics_csv_checks():
    header = ["epoch", "critic_loss", "gen_adv_loss", "pd_loss", "czsl_acc"]
    rows = [["0", "-0.4", "0.1", "0.8", "nan"], ["1", "-1.5", "0.3", "0.6", "0.75"]]
    assert checks.check_metrics(header, rows, epochs=2, use_cues=True) == []
    assert checks.last_logged_acc(header, rows) == 0.75
    assert checks.check_metrics(header, rows, epochs=3, use_cues=True)
    bad = [rows[0], ["1", "nan", "0.3", "0.6", "0.75"]]
    assert checks.check_metrics(header, bad, epochs=2, use_cues=True)
    no_cues = [r[:3] + ["nan"] + r[4:] for r in rows]
    assert checks.check_metrics(header, no_cues, epochs=2, use_cues=False) == []
    assert checks.check_metrics(header, no_cues, epochs=2, use_cues=True)
    assert checks.check_metrics(header, [rows[1], rows[0]], epochs=2, use_cues=True)
    assert math.isclose(checks.train_batches({"epochs": "40", "batch_size": "32"}, 960), 1200)
