"""Time Adam steps at a published benchmark's shape.

Usage (from the repository root):

    python3 tools/adam_probe.py [--against REV] [--preset cub] [--hidden-mult 1]
                                [--feat-dim 2048] [--sem-dim 312] [--steps 12]
                                [--rounds 2]

For the working tree, and for the committed files of revision --against
(extracted with `git archive` into a temporary directory, as
`tools/same_bytes.py` does), this builds the critic pair and the generator
of the preset at the given shape in a fresh process with RLVC_THREADS=1, and
takes --steps Adam steps of the critic pair's optimizer and of the
generator's, interleaved, on fixed random gradients. With --against, the
sides take turns for --rounds rounds, each side first in every other round,
because a machine's speed can drift between processes. It prints, per side,
the best and median ms per step of each optimizer over all its rounds, the
largest peak RSS (`ru_maxrss`) of its processes and the sha256 of every
parameter, first moment and second moment after the last step. The default
shape is CUB's (2,048-d features, 312 attributes) with `hidden_mult` 1:
about 40M parameters, so a side needs about 2 GB of memory; the sides run
one at a time. No figure here is gated; it reads Adam's cost where Adam
dominates, which the synthetic preset does not show.
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


def measure(args) -> dict:
    """Run the probe with the rlvc package on sys.path; a dict of results."""
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
    runs = []
    for name, owned in nets_by_opt.items():
        opt = nets.AdamState([net.flat for net in owned], lr=cfg.lr_adv, **betas)
        grads = [rng.normal(size=net.flat.size) for net in owned]
        runs.append((name, opt, grads, []))
    for _ in range(args.steps):
        for _, opt, grads, times in runs:
            start = time.perf_counter()
            opt.step(grads)
            times.append(1e3 * (time.perf_counter() - start))
    digest = hashlib.sha256()
    for _, opt, _, _ in runs:
        for a in opt.params + opt.m + opt.v:
            digest.update(a.tobytes())
    return {
        "entries": {name: sum(p.size for p in opt.params) for name, opt, _, _ in runs},
        "ms": {name: times for name, _, _, times in runs},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sha256": digest.hexdigest(),
    }


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
    """Print one side's figures over its rounds; the best ms per optimizer."""
    print(label)
    best = {}
    for name, entries in results[0]["entries"].items():
        times = [ms for result in results for ms in result["ms"][name]]
        best[name] = min(times)
        print(f"  {name} ({entries:,} entries): best {best[name]:.1f} ms, "
              f"median {statistics.median(times):.1f} ms per step")
    print(f"  peak RSS {max(result['peak_rss_mb'] for result in results):.0f} MB")
    for digest in sorted({result["sha256"] for result in results}):
        print(f"  sha256 of p, m, v: {digest}")
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", help="git revision to compare with")
    parser.add_argument("--preset", default="cub")
    parser.add_argument("--hidden-mult", type=int, default=1)
    parser.add_argument("--feat-dim", type=int, default=2048)
    parser.add_argument("--sem-dim", type=int, default=312)
    parser.add_argument("--steps", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=2, help="turns per side with --against")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(measure(args)))
        return 0
    shape = ["--preset", args.preset, "--hidden-mult", str(args.hidden_mult),
             "--feat-dim", str(args.feat_dim), "--sem-dim", str(args.sem_dim),
             "--steps", str(args.steps), "--seed", str(args.seed)]
    tree = os.path.join(ROOT, "src")
    if args.against is None:
        report("tree", [run_side(tree, shape)])
        return 0
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from same_bytes import extract

    ours, theirs = [], []
    with tempfile.TemporaryDirectory(prefix="adam_probe-") as tmp:
        extract(args.against, tmp)
        sides = [(tree, ours), (os.path.join(tmp, "src"), theirs)]
        for turn in range(args.rounds):
            for src, results in sides[::-1] if turn % 2 else sides:
                results.append(run_side(src, shape))
    best_ours, best_theirs = report("tree", ours), report(args.against, theirs)
    for name in best_ours:
        print(f"{name}: {args.against} / tree = "
              f"{best_theirs[name] / best_ours[name]:.2f}x (best ms per step)")
    same = len({result["sha256"] for result in ours + theirs}) == 1
    print("SAME bytes" if same else "DIFFERENT bytes")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
