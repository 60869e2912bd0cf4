"""One benchmark process: set up, run rlvc CLI stages in-process, report.

Usage: python3 perfbench/worker.py '<json spec>'

The spec names the rlvc source directory, the inputs to load during set-up,
the CLI stages to time (name and argv), whether to trace, and the file the
result goes to. An untraced worker times each stage with a ``marks.Clock``
as well as in whole; a traced one wraps every public rlvc function instead.
``rlvc.cli`` is imported before anything that imports numpy, so the thread
variables it derives from RLVC_THREADS take effect.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import resource
import sys
import time
import traceback

import checks
import marks

THREAD_VARS = ("RLVC_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
TRACED_MODULES = ("data", "nets", "engine", "gan", "reward", "cues", "diffusion", "evaluate", "trainer")


def _environment() -> dict:
    import numpy

    env = {k: os.environ.get(k) for k in THREAD_VARS}
    env["numpy"] = numpy.__version__
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    env["python"] = sys.version.split()[0]
    return env


def _run_stage(cli, argv, clock):
    out = io.StringIO()
    error = None
    if clock is not None:
        clock.begin_stage(argv[0])
    c0, t0 = time.process_time(), time.monotonic()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except Exception:  # a crash in one stage is reported, not raised
        code, error = -1, traceback.format_exc()
    t1, c1 = time.monotonic(), time.process_time()
    stage = {"code": code, "wall_s": t1 - t0, "cpu_s": c1 - c0, "stdout": out.getvalue(), "error": error}
    if clock is not None:
        stage.update(clock.end_stage())
    return stage


def _print_config(cli, argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(list(argv) + ["--print-config"])
    return out.getvalue()


def main(spec: dict) -> dict:
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    t0 = time.monotonic()
    import rlvc.cli as cli

    import_s = time.monotonic() - t0
    rlvc = sys.modules["rlvc"]
    if not os.path.abspath(rlvc.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported rlvc from {rlvc.__file__}, not from {src}")

    tracer = clock = None
    if spec.get("trace"):
        import tracing

        modules = {}
        for name in TRACED_MODULES:
            try:
                modules[name] = importlib.import_module(f"rlvc.{name}")
            except ImportError:
                pass
        tracer = tracing.Tracer()
        tracer.install(modules)
    elif spec.get("stages"):
        from rlvc import engine, evaluate, gan, nets

        clock = marks.Clock()
        clock.install(engine, nets, gan, evaluate)

    from rlvc import data, nets

    facts = {}
    load = spec.get("load") or {}
    if load.get("data"):
        ds = data.standardize(data.load_dataset(load["data"]))
        facts = {"n_train": int(ds.train[0].shape[0]), "n_unseen": len(ds.unseen_classes)}
    if load.get("checkpoint"):
        nets.load_checkpoint(load["checkpoint"])
    t_ready = time.monotonic()

    stages = []
    for name, argv in spec.get("stages", []):
        stage = _run_stage(cli, argv, clock)
        stage["name"] = name
        stages.append(stage)
        if stage["code"] != 0:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.restore()
    if clock is not None:
        clock.restore()
    train_argv = next((argv for name, argv in spec.get("stages", []) if name == "train"), None)
    train_config = checks.parse_config(_print_config(cli, train_argv)) if train_argv else {}
    batches = checks.train_batches(train_config, facts["n_train"]) if train_config and facts else 0

    result = {
        "t_ready": t_ready,
        "import_s": import_s,
        "stages": stages,
        "peak_rss_mb": peak_rss_mb,
        "facts": facts,
        "train_config": train_config,
        "train_batches": batches,
        "env": _environment(),
    }
    if tracer is not None:
        result["trace"] = {
            "leftover_wrappers": tracer.leftover_wrappers(),
            "span_errors": tracing.span_errors(tracer.spans),
            "missing": tracer.missing,
            "spans": len(tracer.spans),
            "layers": tracing.layer_metrics(tracer.spans, batches),
        }
        if spec.get("spans_out"):
            tracer.write(spec["spans_out"])
    return result


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    result = main(spec)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
