"""Time the parts of an evaluation report at the eval-sweep shape.

Usage (from the repository root):

    python3 tools/report_probe.py [--against REV] [--reports 4] [--adam-steps 2000]
                                  [--rounds 3] [--seed 0]

For the working tree, and for the committed files of revision --against
(extracted with `git archive` into a temporary directory, as
`tools/same_bytes.py` does), this runs in a fresh process with
RLVC_THREADS=1 the work of --reports evaluation reports at the shape of
perfbench's eval-sweep workload: the synthetic preset's standardized dataset
(20 seen and 5 unseen classes, 32-d features) and 400 synthesized rows per
unseen class. Each report times the reverse-chain synthesis, the CZSL head
(2,000 rows over 5 classes) and the GZSL head (2,960 rows over 25 classes),
as `evaluate.full_report` trains them. The generator is freshly drawn, not
trained: synthesis and head steps cost the same at any weights. Then Adam
steps at the heads' sizes, 165 and 825 entries, are timed one at a time.

With --against, the sides take turns for --rounds rounds, each side first in
every other round, because a machine's speed can drift between processes. It
prints, per side, the best and median of each figure over all its rounds: ms
for synthesis and for each head, ms per head step (a head's time over its
Adam steps) and us per Adam step. It also prints the sha256 of both heads'
weights and biases over every report, and exits 1 if the sides' differ. No
figure here is gated. perfbench's traced run cannot time calls this short:
its figures for them are mostly the tracer's own overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SYNTH_PER_CLASS = "400"  # perfbench's eval-sweep value
ADAM_SIZES = (165, 825)  # the CZSL and GZSL heads' [w | b] at 32-d, 5 and 25 classes


def measure(args) -> dict:
    """Run the probe with the rlvc package on sys.path; a dict of results."""
    import numpy as np

    from rlvc import config, data, evaluate, gan, nets

    cfg = config.resolve_config("synthetic", None, {"synth_per_class": SYNTH_PER_CLASS})
    ds = data.standardize(data.make_synthetic(cfg))
    gen = gan.Generator(ds.feat_dim, ds.sem_dim, cfg, np.random.default_rng(args.seed))
    tr_x, tr_y = ds.train
    ms = {"synthesis": [], "czsl head": [], "gzsl head": [],
          "czsl ms per step": [], "gzsl ms per step": []}
    digest = hashlib.sha256()
    for k in range(args.reports):
        rng = np.random.default_rng([args.seed, k])
        start = time.perf_counter()
        synth_x, synth_y = evaluate.synthesize_unseen(
            gen, ds.prototypes, ds.unseen_classes, cfg.synth_per_class, cfg.schedule(), rng)
        ms["synthesis"].append(1e3 * (time.perf_counter() - start))
        heads = {"czsl": (synth_x, synth_y),
                 "gzsl": (np.concatenate([tr_x, synth_x]), np.concatenate([tr_y, synth_y]))}
        for name, (x, y) in heads.items():
            start = time.perf_counter()
            head = evaluate.train_head(x, y, np.unique(y), cfg, rng)
            took = 1e3 * (time.perf_counter() - start)
            steps = cfg.clf_epochs * -(-len(x) // cfg.clf_batch)
            ms[f"{name} head"].append(took)
            ms[f"{name} ms per step"].append(took / steps)
            digest.update(head.weight.tobytes() + head.bias.tobytes())
    us = {}
    for size in ADAM_SIZES:
        params = np.zeros(size)
        opt = nets.AdamState([params], lr=cfg.clf_lr, beta1=cfg.adam_beta1, beta2=cfg.adam_beta2)
        grads = np.random.default_rng(size).normal(size=(args.adam_steps, size))
        times = []
        for g in grads:
            start = time.perf_counter()
            opt.step([g])
            times.append(1e6 * (time.perf_counter() - start))
        us[f"adam {size} entries"] = times
    return {"ms": ms, "us": us, "sha256": digest.hexdigest()}


def run_side(src: str, argv: list[str]) -> dict:
    """The probe's results with the package at `src`, from a new process."""
    env = dict(os.environ, RLVC_THREADS="1", OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    cmd = [sys.executable, os.path.abspath(__file__), "--worker", *argv]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(2)
    return json.loads(done.stdout)


def report(label: str, results: list[dict]) -> dict[str, float]:
    """Print one side's figures over its rounds; the best of each figure."""
    print(label)
    best = {}
    for unit, fmt in (("ms", "{:.3f} ms"), ("us", "{:.2f} us")):
        for name in results[0][unit]:
            values = [v for result in results for v in result[unit][name]]
            best[name] = min(values)
            print(f"  {name}: best {fmt.format(best[name])}, "
                  f"median {fmt.format(statistics.median(values))}")
    for digest in sorted({result["sha256"] for result in results}):
        print(f"  sha256 of both heads: {digest}")
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", help="git revision to compare with")
    parser.add_argument("--reports", type=int, default=4, help="reports per process")
    parser.add_argument("--adam-steps", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=3, help="turns per side with --against")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(measure(args)))
        return 0
    shape = ["--reports", str(args.reports), "--adam-steps", str(args.adam_steps),
             "--seed", str(args.seed)]
    tree = os.path.join(ROOT, "src")
    if args.against is None:
        report("tree", [run_side(tree, shape)])
        return 0
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from same_bytes import extract

    ours, theirs = [], []
    with tempfile.TemporaryDirectory(prefix="report_probe-") as tmp:
        extract(args.against, tmp)
        sides = [(tree, ours), (os.path.join(tmp, "src"), theirs)]
        for turn in range(args.rounds):
            for src, results in sides[::-1] if turn % 2 else sides:
                results.append(run_side(src, shape))
    best_ours, best_theirs = report("tree", ours), report(args.against, theirs)
    for name in best_ours:
        print(f"{name}: {args.against} / tree = {best_theirs[name] / best_ours[name]:.2f}x (best)")
    same = len({result["sha256"] for result in ours + theirs}) == 1
    print("SAME bytes" if same else "DIFFERENT bytes")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
