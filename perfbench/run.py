"""Benchmark of the rlvc pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload synth-full --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each exists):

- synth-full: pretrain-reward, train (full arm), eval on --preset synthetic.
- eval-sweep: eval --synth-per-class 400 over several eval seeds, on one
  generator checkpoint made as an input.

Inputs come from --seed and are made before timing starts. Each pipeline
runs in a fresh worker process (perfbench/worker.py) with RLVC_THREADS=1;
pipelines repeat until --seconds of measuring is spent (at least two). Extra
set-up-only workers make set-up time a median of several samples. With
--trace 1 one more pipeline runs with every public rlvc function wrapped,
and the per-layer figures are printed instead of the end-to-end ones.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
Lines before it give every figure by name and unit, the checks, and the
environment. A fuller record goes to .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import checks
import marks
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench_work"
PRESET = ["--preset", "synthetic"]
THREADS = "1"
# Set-up-only workers before each pipeline and after the last, on top of the
# pipelines' own set-up: set-up time is sampled across the run rather than in
# one stretch of the machine's speed.
SETUP_PROBES = 3
# Pipelines per run at the least. The machine's slow stretches last seconds to
# minutes, so a key's least time needs more than one 25 s synth-full pipeline
# to meet a fast moment in most runs (see marks.py).
MIN_PIPELINES = 2
EVAL_SEEDS = 4  # evaluations per eval-sweep pipeline
# Evaluations a synth-full worker repeats after its pipeline (other eval seeds,
# outside pipeline_s). They give each segment of a report more samples to
# take its least time from (marks.py).
EVAL_REPEATS = 12
SWEEP_SYNTH_PER_CLASS = "400"  # the cub/sun preset value
# Epochs of the eval-sweep input checkpoint: CZSL accuracy then clears chance on
# every eval seed, and its train is long enough to time train_batches_per_s.
SWEEP_CKPT_EPOCHS = "30"
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("train_batches_per_s", "1/s"),
    ("eval_report_s", "s"),
)
WORKLOADS = ("synth-full", "eval-sweep")
# Wrapped functions a workload never calls; the traced run checks they read 0.
NO_CALLS = {
    "eval-sweep": ("gan.critic_x0_loss", "gan.critic_xt_loss", "reward.rl_loss"),
}


class Paths:
    def __init__(self, root: str, workload: str, seed: int):
        self.root = root
        self.src = os.path.join(root, "src")
        self.work = os.path.join(root, WORK_DIR)
        self.results = os.path.join(self.work, "results")
        self.run = os.path.join(self.work, f"run-{workload}-{seed}-{os.getpid()}")
        self.data = os.path.join(self.run, "data")
        self.ckpt = os.path.join(self.run, "ckpt")


def input_steps(workload: str, seed: int, p: Paths) -> list[dict]:
    """Worker specs that make the workload's inputs (timed apart from it)."""
    steps = [{"stages": [["gen-synthetic", ["gen-synthetic", *PRESET, "--seed", str(seed),
                                             "--out", p.data, "--force"]]]}]
    if workload == "eval-sweep":
        steps.append({
            "load": {"data": p.data},
            "stages": [["train", ["train", *PRESET, "--seed", str(seed), "--data", p.data,
                                  "--no-rl", "--epochs", SWEEP_CKPT_EPOCHS,
                                  "--eval-interval", "0", "--out", p.ckpt]]],
        })
    return steps


def pipeline_spec(workload: str, seed: int, p: Paths, it: int) -> dict:
    """Worker spec of one timed pipeline; ``it`` keeps iterations' outputs apart."""
    out = os.path.join(p.run, f"it{it}")
    common = [*PRESET, "--seed", str(seed), "--data", p.data]
    if workload == "eval-sweep":
        gen = os.path.join(p.ckpt, "generator.ckpt")
        return {
            "load": {"data": p.data, "checkpoint": gen},
            "stages": [["eval", ["eval", *PRESET, "--seed", str(seed + k), "--data", p.data,
                                 "--generator", gen, "--synth-per-class", SWEEP_SYNTH_PER_CLASS]]
                       for k in range(EVAL_SEEDS)],
            "out": out,
        }
    gen = ["--generator", os.path.join(out, "generator.ckpt")]
    stages = [
        ["pretrain-reward", ["pretrain-reward", *common, "--out", out]],
        ["train", ["train", *common, "--reward", os.path.join(out, "reward.ckpt"), "--out", out]],
        ["eval", ["eval", *common, *gen]],
    ]
    stages += [["eval-repeat", ["eval", *PRESET, "--seed", str(seed + k), "--data", p.data, *gen]]
               for k in range(1, EVAL_REPEATS + 1)]
    return {"load": {"data": p.data}, "stages": stages, "out": out}


class Runner:
    """Starts workers one at a time and keeps the run inside its deadline."""

    def __init__(self, p: Paths, deadline: float):
        self.p = p
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=p.src, RLVC_THREADS=THREADS)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env.pop(var, None)  # let rlvc derive them from RLVC_THREADS

    def worker(self, spec: dict) -> dict:
        """Run one worker; returns its result plus ``setup_s`` and ``error``."""
        self.count += 1
        spec = dict(spec, src=self.p.src,
                    result=os.path.join(self.p.run, f"worker{self.count}.json"))
        argv = [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)]
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, env=self.env, stdout=sys.stderr, cwd=self.p.root)
        try:
            code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0:
            reason = "timed out" if code is None else f"exited with code {code}"
            return {"error": f"worker {reason}", "stages": []}
        with open(spec["result"]) as fh:
            result = json.load(fh)
        result["setup_s"] = result["t_ready"] - t_spawn
        result["error"] = None
        return result


def stage_errors(result: dict, n_stages: int) -> list[str]:
    if result["error"]:
        return [result["error"]]
    errors = []
    for s in result["stages"]:
        if s["code"] != 0:
            errors.append(f"stage {s['name']} exited with {s['code']}"
                          + (f":\n{s['error']}" if s["error"] else ""))
    if not errors and len(result["stages"]) != n_stages:
        errors.append(f"ran {len(result['stages'])} of {n_stages} stages")
    return errors


def evaluate_pipeline(workload: str, spec: dict, result: dict, sweep_digest: str) -> dict:
    """Check one pipeline's outputs; collect its figures and its digest."""
    errors = stage_errors(result, len(spec["stages"]))
    it = {"errors": errors, "setup_s": result.get("setup_s")}
    if errors:
        return it
    stages = result["stages"]
    n_unseen = result["facts"]["n_unseen"]
    evals = [s for s in stages if s["name"] in ("eval", "eval-repeat")]
    figures = [checks.parse_eval(s["stdout"]) for s in evals]
    for f in figures:
        errors += checks.check_eval(f, n_unseen)
    it.update(
        stages=stages,
        pipeline_wall_s=sum(s["wall_s"] for s in stages if s["name"] != "eval-repeat"),
        peak_rss_mb=result["peak_rss_mb"],
        figures=figures,
        import_s=result["import_s"],
    )
    if workload == "eval-sweep":
        lines = "".join(s["stdout"] for s in evals)
        it["digest"] = hashlib.sha256((sweep_digest + lines).encode()).hexdigest()
        return it
    train = next(s for s in stages if s["name"] == "train")
    cfg = result["train_config"]
    metrics_csv = os.path.join(spec["out"], "metrics.csv")
    if not os.path.isfile(metrics_csv):
        errors.append("train wrote no metrics.csv")
        return it
    header, rows = checks.read_metrics(metrics_csv)
    errors += checks.check_metrics(header, rows, int(cfg["epochs"]), cfg.get("use_cues") == "true")
    it["digest"] = checks.sha256_file(metrics_csv)
    it["train"] = train
    it["train_batches"] = result["train_batches"]
    logged = checks.last_logged_acc(header, rows)
    if figures[0] is not None and logged is not None:  # figures[0]: the pipeline's own eval
        it["logged_czsl_acc"] = logged
        it["eval_czsl_acc"] = figures[0]["acc"]
        it["eval_matches_log"] = f"{logged:.6f}" == f"{figures[0]['acc']:.6f}"
    return it


def src_digest(src: str) -> str:
    """Hash of the Python sources under a directory."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def check_digests(p: Paths, key: str, digests: list[str]) -> list[str]:
    """Repeats of one source tree, workload and seed give identical outputs,
    within this run and against earlier runs in this checkout."""
    errors = []
    if len(set(digests)) > 1:
        errors.append(f"outputs differ between repeats within the run: {sorted(set(digests))}")
    store = os.path.join(p.work, "digests.json")
    known = {}
    if os.path.isfile(store):
        with open(store) as fh:
            known = json.load(fh)
    if key in known and digests and known[key] != digests[0]:
        errors.append(f"outputs differ from an earlier run of {key}: {digests[0]} vs {known[key]}")
    elif digests:
        known[key] = digests[0]
        tmp = store + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(known, fh, indent=1, sort_keys=True)
        os.replace(tmp, store)
    return errors


def environment(args, p: Paths, worker_env: dict) -> dict:
    commit = None
    if os.path.isdir(os.path.join(p.root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=p.root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        **worker_env,
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": src_digest(p.src),
    }


def median(values):
    return statistics.median(values) if values else None


def measure(args, p: Paths) -> dict:
    start = time.monotonic()
    runner = Runner(p, start + DEADLINE_S)
    steps = input_steps(args.workload, args.seed, p)
    inputs = [runner.worker(spec) for spec in steps]
    input_errors = [e for r, spec in zip(inputs, steps) for e in stage_errors(r, len(spec["stages"]))]
    if input_errors:
        raise RuntimeError("making inputs failed: " + "; ".join(input_errors))
    sweep_digest = ""
    if args.workload == "eval-sweep":
        sweep_digest = checks.sha256_file(os.path.join(p.ckpt, "metrics.csv"))

    load = pipeline_spec(args.workload, args.seed, p, 0)["load"]
    setups, its, durations = [], [], []
    t0 = time.monotonic()
    while True:
        setups += [runner.worker({"load": load}) for _ in range(SETUP_PROBES)]
        spec = pipeline_spec(args.workload, args.seed, p, len(its))
        ta = time.monotonic()
        its.append(evaluate_pipeline(args.workload, spec, runner.worker(spec), sweep_digest))
        durations.append(time.monotonic() - ta)
        typical = statistics.median(durations)
        if its[-1]["errors"]:
            break
        if len(its) >= MIN_PIPELINES and time.monotonic() - t0 + typical > args.seconds:
            break
        if time.monotonic() + typical > runner.deadline:
            break
    setups += [runner.worker({"load": load}) for _ in range(SETUP_PROBES)]

    traced = None
    if args.trace:
        spec = pipeline_spec(args.workload, args.seed, p, len(its))
        os.makedirs(p.results, exist_ok=True)
        spec["trace"] = True
        spec["spans_out"] = os.path.join(p.results, f"{args.workload}-seed{args.seed}-spans.json")
        result = runner.worker(spec)
        traced = evaluate_pipeline(args.workload, spec, result, sweep_digest)
        traced["trace"] = result.get("trace")

    return {"inputs": inputs, "setups": setups, "its": its, "traced": traced,
            "attempted": len(its) + (traced is not None)}


def summarize(args, p: Paths, m: dict) -> tuple[dict, dict | None, list[str], dict]:
    its = m["its"]
    traced = m["traced"]
    pipelines = its + ([traced] if traced else [])
    errors = [e for it in pipelines for e in it["errors"]]
    setup_errors = [e for r in m["setups"] for e in stage_errors(r, 0)]
    errors += setup_errors
    good = [it for it in its if not it["errors"]]
    if not good:
        raise RuntimeError("no pipeline completed: " + "; ".join(errors))

    key = f"{src_digest(p.src)}:{src_digest(HERE)}:{args.workload}:{args.seed}"
    digests = [it["digest"] for it in pipelines if "digest" in it]
    errors += check_digests(p, key, digests)
    setup = [r["setup_s"] for r in m["setups"] if not r["error"]] + [it["setup_s"] for it in good]

    # Stage times charge each marked segment the least time its key took in
    # this run (see marks.py); the plain wall times are kept as extras.
    stages = [st for it in good for st in it["stages"]]
    least = marks.least_times(stages)
    timed = [[marks.fast_time(st, least) for st in it["stages"] if st["name"] != "eval-repeat"]
             for it in good]
    if args.workload == "eval-sweep":
        train = m["inputs"][-1]  # the input checkpoint's train, the only one
        batches_per_s = [train["train_batches"]
                         / marks.fast_time(train["stages"][0], marks.least_times(train["stages"]))[0]]
    else:
        batches_per_s = [it["train_batches"] / marks.fast_time(it["train"], least)[0] for it in good]
    report_walls = [w for st in stages for w in st["reports"]]
    reports = len(report_walls)
    if not reports:
        raise RuntimeError("no evaluation report was timed")
    end_to_end = {
        "setup_s": median(setup),
        "pipeline_s": median([sum(w for w, _ in t) for t in timed]),
        "cpu_s": median([sum(c for _, c in t) for t in timed]),
        "peak_rss_mb": median([it["peak_rss_mb"] for it in good]),
        "train_batches_per_s": median(batches_per_s),
        "eval_report_s": sum(marks.fast_time(st, least, reports_only=True)[0] for st in stages) / reports,
    }
    figures = [f for it in good for f in it["figures"] if f]
    extra = {
        "failed_share": sum(bool(it["errors"]) for it in pipelines) / len(pipelines),
        "pipelines": len(its),
        "pipeline_wall_s": median([it["pipeline_wall_s"] for it in good]),
        "reports": reports,
        "eval_report_wall_s": median(report_walls),
        "setup_samples": len(setup),
        "czsl_acc": median([f["acc"] for f in figures]),
        "czsl_acc_min": min((f["acc"] for f in figures), default=None),
        "gzsl_h": median([f["h"] for f in figures]),
    }
    if "eval_matches_log" in good[0]:
        extra["logged_czsl_acc"] = good[0]["logged_czsl_acc"]
        extra["eval_czsl_acc"] = good[0]["eval_czsl_acc"]
        extra["eval_matches_log"] = good[0]["eval_matches_log"]

    per_layer = None
    if traced is not None:
        tr = traced.get("trace")
        if not tr or "pipeline_wall_s" not in traced:
            raise RuntimeError("the traced pipeline did not finish: " + "; ".join(traced["errors"]))
        if tr["leftover_wrappers"]:
            errors.append(f"still wrapped after restoring: {tr['leftover_wrappers']}")
        if tr["span_errors"]:
            errors.append(f"{len(tr['span_errors'])} faulty spans, first: {tr['span_errors'][0]}")
        errors += [f"{name} was called on {args.workload}"
                   for name in NO_CALLS.get(args.workload, ()) if tr["layers"][f"{name}.calls"]]
        per_layer = dict(tr["layers"])
        per_layer.update({
            "cli.import_s": median([it["import_s"] for it in good] + [traced["import_s"]]),
            "trace.pipeline_s": traced["pipeline_wall_s"],
            "trace.overhead_s": traced["pipeline_wall_s"] - extra["pipeline_wall_s"],
            "trace.spans": tr["spans"],
            "trace.missing_targets": len(tr["missing"]),
        })
        extra["missing_targets"] = tr["missing"]
    return end_to_end, per_layer, errors, extra


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through Runner.worker, which stops the worker


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rlvc", "cli.py")):
        print("perfbench: no src/rlvc here; run from the root of an rlvc checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    p = Paths(root, args.workload, args.seed)
    os.makedirs(p.run, exist_ok=True)
    try:
        m = measure(args, p)
        end_to_end, per_layer, errors, extra = summarize(args, p, m)
    except RuntimeError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(p.run, ignore_errors=True)

    worker_env = next(r["env"] for r in m["setups"] + m["inputs"] if not r["error"])
    env = environment(args, p, worker_env)
    if args.trace:
        values, units = per_layer, dict(tracing.PER_LAYER_METRICS)
    else:
        values, units = end_to_end, dict(END_TO_END)
    failed = sum(bool(it["errors"]) for it in m["its"] + ([m["traced"]] if m["traced"] else []))
    if errors and not failed:
        failed = 1  # a failed cross-run or tracer check fails the run's pipelines as a whole
    out = {
        "correct": not errors,
        "attempted": m["attempted"],
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{extra['pipelines']} pipeline(s), {extra['setup_samples']} set-up samples")
    for k, u in END_TO_END:
        print(f"  {k:<22} {end_to_end[k]!r} {u}")
    for k in ("failed_share", "pipeline_wall_s", "reports", "eval_report_wall_s", "czsl_acc",
              "czsl_acc_min", "gzsl_h", "logged_czsl_acc",
              "eval_czsl_acc", "eval_matches_log"):
        if k in extra:
            print(f"  {k:<22} {extra[k]!r}  (not gated)")
    if per_layer:
        for k, u in tracing.PER_LAYER_METRICS:
            print(f"  {k:<46} {per_layer[k]!r} {u}")
    for e in errors:
        print(f"  CHECK FAILED: {e}")
    print("env " + json.dumps(env, sort_keys=True))

    os.makedirs(p.results, exist_ok=True)
    record = dict(out, env=env, extra=extra, end_to_end=end_to_end, per_layer=per_layer,
                  errors=errors)
    with open(os.path.join(p.results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
