"""Smoke test of tools/probe.py: each subcommand's worker measurement runs
in-process at a tiny shape against the package under test, and every figure
it reports, with the sha256, reaches the printed summary. A rename in the
rlvc API that the probe calls fails here rather than only when the tool runs."""

from __future__ import annotations

import importlib.util
import json
import re
from pathlib import Path

import pytest

PROBE = Path(__file__).resolve().parents[1] / "tools" / "probe.py"


def _load_probe():
    spec = importlib.util.spec_from_file_location("probe", PROBE)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    return probe


@pytest.mark.parametrize(
    "argv, figures",
    [
        (["adam", "--feat-dim", "8", "--sem-dim", "4", "--steps", "2"],
         {"ms": (2, [r"critic pair \([\d,]+ entries\)", r"generator \([\d,]+ entries\)"])}),
        (["report", "--reports", "1", "--adam-steps", "3"],
         {"ms": (1, ["synthesis", "czsl head", "gzsl head", "czsl ms per step",
                     "gzsl ms per step"]),
          "us": (3, ["adam 165 entries", "adam 825 entries"])}),
    ],
    ids=["adam", "report"],
)
def test_probe_worker_reports_every_figure_and_a_sha256(argv, figures, capsys):
    """`figures` maps a unit to (values per figure, each figure's name pattern)."""
    probe = _load_probe()
    assert probe.main(["--worker", *argv]) == 0
    result = json.loads(capsys.readouterr().out)
    assert set(result) == {*figures, "peak_rss_mb", "sha256"}
    assert re.fullmatch(r"[0-9a-f]{64}", result["sha256"])
    for unit, (count, patterns) in figures.items():
        assert len(result[unit]) == len(patterns)
        for pattern, (name, values) in zip(patterns, result[unit].items()):
            assert re.fullmatch(pattern, name)
            assert len(values) == count and all(v > 0 for v in values)
    hashed = {"adam": "p, m, v", "report": "both heads"}[argv[0]]
    best = probe.summarize("tree", [result], hashed)
    printed = capsys.readouterr().out
    assert list(best) == [name for unit in figures for name in result[unit]]
    for name in best:
        assert f"  {name}: best " in printed
    assert "  peak RSS " in printed
    assert f"  sha256 of {hashed}: {result['sha256']}" in printed
