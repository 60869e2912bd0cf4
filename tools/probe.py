"""Time a part of the rlvc package, for the working tree and another revision.

Usage (from the repository root):

    python3 tools/probe.py adam [--against REV] [--rounds 2] [--seed 0]
                                [--preset cub] [--hidden-mult 1]
                                [--feat-dim 2048] [--sem-dim 312] [--steps 12]
    python3 tools/probe.py report [--against REV] [--rounds 3] [--seed 0]
                                  [--reports 4] [--adam-steps 2000]

Each subcommand measures in a fresh process with RLVC_THREADS=1, for the
working tree and, with --against, for the committed files of that revision
(extracted with `git archive`, as `tools/same_bytes.py` does). The sides take
turns for --rounds rounds, each side first in every other round, because a
machine's speed can drift between processes. It prints, per side, the best
and median of each figure over its rounds, the largest peak RSS
(`ru_maxrss`) and the sha256 of what was computed, then each figure's ratio
of best times; it exits 1 if the sides' sha256 differ. No figure is gated.

`adam` takes --steps Adam steps, interleaved, of the optimizers of --preset's
critic pair and generator on fixed random gradients: ms per step, and the
sha256 of every parameter and moment after the last step. The default is
CUB's shape (d=2048, d_z=312, `hidden_mult` 1): about 40M parameters and
2 GB per side, the sides one at a time. It reads Adam where Adam dominates,
which the synthetic preset does not show.

`report` runs --reports evaluation reports at perfbench's eval-sweep shape:
the synthetic preset's standardized dataset (20 seen and 5 unseen classes,
32-d) and 400 synthesized rows per unseen class. Each report times the
reverse-chain synthesis and the CZSL (2,000 rows, 5 classes) and GZSL
(2,960 rows, 25 classes) heads that `evaluate.full_report` trains, in ms
and in ms per head step, on a freshly drawn generator (synthesis and head
steps cost the same at any weights). Then it times --adam-steps Adam steps,
one at a time in us, at each head's [w | b] size (165 and 825 entries
here). The sha256 is of both heads over every report. perfbench's traced
run cannot time calls this short: the tracer's overhead dominates them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SYNTH_PER_CLASS = "400"  # perfbench's eval-sweep value
FORMATS = {"ms": "{:.3f} ms", "us": "{:.2f} us"}


def measure_adam(args) -> dict:
    """Adam steps of the critic pair's and the generator's optimizers."""
    import numpy as np

    from rlvc import config, gan, nets

    cfg = config.resolve_config(args.preset, None, {"hidden_mult": args.hidden_mult})
    rng = np.random.default_rng(args.seed)
    d, d_z = args.feat_dim, args.sem_dim
    nets_by_opt = {
        "critic pair": [gan.CriticX0(d, d_z, cfg, rng).net, gan.CriticXt(d, d_z, cfg, rng).net],
        "generator": [gan.Generator(d, d_z, cfg, rng).net],
    }
    betas = dict(beta1=cfg.adam_beta1, beta2=cfg.adam_beta2)
    ms, runs = {}, []
    for name, owned in nets_by_opt.items():
        opt = nets.AdamState([net.flat for net in owned], lr=cfg.lr_adv, **betas)
        grads = [rng.normal(size=net.flat.size) for net in owned]
        times = ms[f"{name} ({sum(p.size for p in opt.params):,} entries)"] = []
        runs.append((opt, grads, times))
    for _ in range(args.steps):
        for opt, grads, times in runs:
            start = time.perf_counter()
            opt.step(grads)
            times.append(1e3 * (time.perf_counter() - start))
    digest = hashlib.sha256()
    for opt, _, _ in runs:
        for a in opt.params + opt.m + opt.v:
            digest.update(a.tobytes())
    return {"ms": ms, "sha256": digest.hexdigest()}


def measure_report(args) -> dict:
    """Synthesis, both heads and Adam steps at the heads' sizes."""
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
    n_unseen = len(ds.unseen_classes)
    us = {}
    for classes in (n_unseen, len(ds.seen_classes) + n_unseen):  # the CZSL and GZSL heads
        size = classes * (ds.feat_dim + 1)
        opt = nets.AdamState([np.zeros(size)], lr=cfg.clf_lr,
                             beta1=cfg.adam_beta1, beta2=cfg.adam_beta2)
        grads = np.random.default_rng(size).normal(size=(args.adam_steps, size))
        times = []
        for g in grads:
            start = time.perf_counter()
            opt.step([g])
            times.append(1e6 * (time.perf_counter() - start))
        us[f"adam {size} entries"] = times
    return {"ms": ms, "us": us, "sha256": digest.hexdigest()}


def run_side(src: str, argv: list[str]) -> dict:
    """The measurement's results with the package at `src`, from a new process."""
    env = dict(os.environ, RLVC_THREADS="1", OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    cmd = [sys.executable, os.path.abspath(__file__), "--worker", *argv]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(2)
    return json.loads(done.stdout)


def summarize(label: str, results: list[dict], hashed: str) -> dict[str, float]:
    """Print one side's figures over its rounds; the best of each figure."""
    print(label)
    best = {}
    for unit, fmt in FORMATS.items():
        for name in results[0].get(unit, {}):
            values = [v for result in results for v in result[unit][name]]
            best[name] = min(values)
            print(f"  {name}: best {fmt.format(best[name])}, "
                  f"median {fmt.format(statistics.median(values))}")
    print(f"  peak RSS {max(result['peak_rss_mb'] for result in results):.0f} MB")
    for digest in sorted({result["sha256"] for result in results}):
        print(f"  sha256 of {hashed}: {digest}")
    return best


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    commands = parser.add_subparsers(dest="command", required=True)
    adam = commands.add_parser("adam", help=measure_adam.__doc__)
    adam.add_argument("--preset", default="cub")
    adam.add_argument("--hidden-mult", type=int, default=1)
    adam.add_argument("--feat-dim", type=int, default=2048)
    adam.add_argument("--sem-dim", type=int, default=312)
    adam.add_argument("--steps", type=int, default=12)
    adam.set_defaults(measure=measure_adam, hashed="p, m, v")
    report = commands.add_parser("report", help=measure_report.__doc__)
    report.add_argument("--reports", type=int, default=4, help="reports per process")
    report.add_argument("--adam-steps", type=int, default=2000)
    report.set_defaults(measure=measure_report, hashed="both heads")
    for command, rounds in ((adam, 2), (report, 3)):
        command.add_argument("--against", help="git revision to compare with")
        command.add_argument("--rounds", type=int, default=rounds,
                             help="turns per side with --against")
        command.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.worker:
        result = args.measure(args)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(result))
        return 0
    tree = os.path.join(ROOT, "src")
    if args.against is None:
        summarize("tree", [run_side(tree, argv)], args.hashed)
        return 0
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from same_bytes import extract

    ours, theirs = [], []
    with tempfile.TemporaryDirectory(prefix="probe-") as tmp:
        extract(args.against, tmp)
        sides = [(tree, ours), (os.path.join(tmp, "src"), theirs)]
        for turn in range(args.rounds):
            for src, results in sides[::-1] if turn % 2 else sides:
                results.append(run_side(src, argv))
    best_ours = summarize("tree", ours, args.hashed)
    best_theirs = summarize(args.against, theirs, args.hashed)
    # Both sides run this file's measurement, so their figures come in the same order.
    for (name, mine), other in zip(best_ours.items(), best_theirs.values()):
        print(f"{name}: {args.against} / tree = {other / mine:.2f}x (best)")
    same = len({result["sha256"] for result in ours + theirs}) == 1
    print("SAME bytes" if same else "DIFFERENT bytes")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
