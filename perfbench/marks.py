"""Fast-speed timing of the rlvc pipeline from call marks.

On a shared machine the same work runs up to about 1.4x slower while a
neighbour is busy, and the busy share of a half-minute run changes from run
to run, so a plain wall-clock total spreads by 15-25 % between runs. The
slowdowns come and go within tens of milliseconds, so a short piece of work
often runs at full speed even in a busy run.

The clock therefore times the pipeline in short pieces. It marks the end of
every ``AdamState.step`` and ``Generator.synthesize`` call and the start and
end of every ``evaluate.full_report``, which cuts each stage into thousands
of segments of a few milliseconds to a fraction of one. Segments that do the
same work get the same key, and every segment is charged the least time that
any segment with its key took in the run (as ``timeit`` advises reading its
minimum). The sum over a stage is its time at the machine's full speed: it
moves with the work the program does, and little with the neighbours.

A segment's key is its scope (the stage, or "a report" for every report of
the run) and the tags of the marks at its two ends. An optimizer step's tag
names the optimizer (its order of construction in the scope) and the rows of
the last ``engine.log_softmax`` since the previous mark, so the short last
minibatch of a classifier epoch is not keyed with the full ones. Thus every
segment from a generator call to the next critic step is one key, and every
full-batch step of a report's GZSL head another.

Work done once per epoch or per report between two marks of a common pair
(drawing an epoch's permutation, writing its metrics row, a checkpoint) is
charged at that pair's least time. It is a small share of a stage.

This module imports nothing from numpy or rlvc, so tests can drive it with
stand-in modules.
"""

from __future__ import annotations

import functools
import time
import weakref

from tracing import rlvc_modules

STAGE_BEGIN, STAGE_END = "<", ">"
REPORT_BEGIN, REPORT_END = "report<", "report>"
SYNTH = "syn"
REPORT_SCOPE = "r"


class _Scope:
    """A stage or a report: its key prefix and its count of optimizers."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.optimizers = 0


class Clock:
    """Cuts stages into keyed segments and keeps, per key, the count and the
    least wall and CPU time of its segments."""

    def __init__(self):
        self.segments: dict[str, list] = {}  # key -> [count, min wall s, min cpu s]
        self.reports: list[float] = []  # plain wall time of each report
        self._scopes: list[_Scope] = []
        self._prev = STAGE_BEGIN
        self._rows = "-"  # rows of the last log_softmax since the last mark
        self._wall = self._cpu = 0.0
        self._tags: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._patches: list[tuple[object, str, object]] = []

    # -- marking ---------------------------------------------------------

    def begin_stage(self, name: str) -> None:
        self.segments, self.reports = {}, []
        self._scopes = [_Scope(f"s|{name}")]
        self._prev, self._rows = STAGE_BEGIN, "-"
        self._wall, self._cpu = time.perf_counter(), time.process_time()

    def end_stage(self) -> dict:
        """Close the stage; returns ``{"segments": ..., "reports": [wall s, ...]}``."""
        while len(self._scopes) > 1:  # a report that raised never marked its end
            self._scopes.pop()
        self.mark(STAGE_END)
        self._scopes = []
        return {"segments": self.segments, "reports": self.reports}

    def mark(self, tag: str) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        if not self._scopes:
            return  # outside a timed stage
        dw, dc = wall - self._wall, cpu - self._cpu
        key = f"{self._scopes[-1].prefix}|{self._prev}|{tag}"
        seg = self.segments.get(key)
        if seg is None:
            self.segments[key] = [1, dw, dc]
        else:
            seg[0] += 1
            if dw < seg[1]:
                seg[1] = dw
            if dc < seg[2]:
                seg[2] = dc
        self._prev, self._rows = tag, "-"
        self._wall, self._cpu = wall, cpu

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, engine, nets, gan, evaluate, scan=None) -> None:
        """Mark AdamState.step, Generator.synthesize and full_report, and
        note the rows of each engine.log_softmax.

        ``scan`` lists the modules searched for other bindings of
        full_report (trainer.py imports it by name); by default every loaded
        module of the rlvc package.
        """
        adam = nets.AdamState
        init, step = vars(adam)["__init__"], vars(adam)["step"]
        synthesize = vars(gan.Generator)["synthesize"]
        report = vars(evaluate)["full_report"]
        log_softmax = vars(engine)["log_softmax"]

        @functools.wraps(init)
        def tagging_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            scope = self._scopes[-1] if self._scopes else None
            if scope is not None:
                self._tags[obj] = f"adam{scope.optimizers}"
                scope.optimizers += 1

        @functools.wraps(step)
        def marked_step(obj, *args, **kwargs):
            out = step(obj, *args, **kwargs)
            self.mark(f"{self._tags.get(obj, 'adam')}.{self._rows}")
            return out

        @functools.wraps(log_softmax)
        def noting_log_softmax(a, *args, **kwargs):
            self._rows = len(a.data)
            return log_softmax(a, *args, **kwargs)

        @functools.wraps(synthesize)
        def marked_synthesize(*args, **kwargs):
            out = synthesize(*args, **kwargs)
            self.mark(SYNTH)
            return out

        @functools.wraps(report)
        def marked_report(*args, **kwargs):
            self.mark(REPORT_BEGIN)
            nested = bool(self._scopes)
            if nested:
                self._scopes.append(_Scope(REPORT_SCOPE))
            t0 = self._wall
            out = report(*args, **kwargs)
            self.mark(REPORT_END)
            if nested:
                self.reports.append(self._wall - t0)
                self._scopes.pop()
            return out

        self._patch(adam, "__init__", tagging_init)
        self._patch(adam, "step", marked_step)
        self._patch(gan.Generator, "synthesize", marked_synthesize)
        self._patch(engine, "log_softmax", noting_log_softmax)
        for m in scan if scan is not None else rlvc_modules():
            for alias, value in list(vars(m).items()):
                if value is report:
                    self._patch(m, alias, marked_report)

    def restore(self) -> None:
        patches, self._patches = self._patches, []
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


# -- estimates -----------------------------------------------------------


def least_times(stages) -> dict[str, tuple[float, float]]:
    """Per key, the least wall and CPU time over the segments of ``stages``
    (each a ``{"segments": ...}`` record from Clock.end_stage)."""
    least: dict[str, tuple[float, float]] = {}
    for st in stages:
        for key, (_, wall, cpu) in st["segments"].items():
            w, c = least.get(key, (wall, cpu))
            least[key] = (min(w, wall), min(c, cpu))
    return least


def fast_time(stage, least, reports_only: bool = False) -> tuple[float, float]:
    """Wall and CPU seconds of one stage with each segment charged its key's
    least time. ``reports_only`` sums only the segments inside reports."""
    wall = cpu = 0.0
    for key, (count, _, _) in stage["segments"].items():
        if reports_only and not key.startswith(REPORT_SCOPE + "|"):
            continue
        w, c = least[key]
        wall += count * w
        cpu += count * c
    return wall, cpu
