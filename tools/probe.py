"""Time a part of the rlvc package, or check its outputs' bytes, for the
working tree and another revision.

Usage (from the repository root):

    python3 tools/probe.py adam [--against REV] [--rounds 2] [--seed 0]
                                [--preset cub] [--hidden-mult 1]
                                [--feat-dim 2048] [--sem-dim 312] [--steps 12]
    python3 tools/probe.py report [--against REV] [--rounds 3] [--seed 0]
                                  [--reports 4]
    python3 tools/probe.py step [--against REV] [--rounds 3] [--seed 0]
                                [--hidden-mult 4] [--batch-size 32] [--batches 300]
    python3 tools/probe.py drift --against REV [--seeds 0 1 2] [--draws 8]
                                 [--set key=value ...]
    python3 tools/probe.py bytes [--against REV] [--seeds 0 3]

Every subcommand runs the package in fresh processes with RLVC_THREADS=1,
for the working tree and, with --against, for the committed files of that
revision (extracted with `git archive` into a temporary directory).

`adam`, `report` and `step` measure in one process per side and round. The
sides take turns for --rounds rounds, each side first in every other round,
because a machine's speed can drift between processes. Each prints, per side,
the best and median of each figure over its rounds, the largest peak RSS
(`ru_maxrss`) and the sha256 of what was computed, then each figure's ratio
of best times; it exits 1 if the sides' sha256 differ. No figure is gated.

`adam` takes --steps Adam steps, interleaved, of the optimizers of --preset's
critic pair and generator on fixed random gradients: ms per step, and the
sha256 of every parameter and moment after the last step. The default is
CUB's shape (d=2048, d_z=312, `hidden_mult` 1): about 40M parameters and
2 GB per side, the sides one at a time. It reads Adam where Adam dominates,
which the synthetic preset does not show.

`report` times --reports calls of `evaluate.full_report` per process at
perfbench's eval-sweep shape: the synthetic preset's standardized dataset
(20 seen and 5 unseen classes, 32-d) and 400 synthesized rows per unseen
class, on a freshly drawn generator (synthesis and head steps cost the same
at any weights), report k from the rng [seed, k]. It reads, in ms, between
the boundaries of the heads' Adam steps, as `step` does: the whole report;
the synthesis, from the report's start to the end of the CZSL head's
optimizer's construction; each head, the CZSL head (2,000 rows, 5 classes)
and the GZSL head (2,960 rows, 25 classes), from its optimizer's
construction to the end of its last step, and that time per step it
counted; and, in us, each Adam step at each head's [w | b] size (165 and
825 entries here). It refuses any optimizers other than two, stepped one
after the other. The sha256 is of both heads' [w | b] over every report.
It calls only `resolve_config`, `make_synthetic`, `standardize`,
`gan.Generator`, `full_report` and `AdamState`, so --against needs no code
of its own for a revision. perfbench's traced run cannot time calls this
short: the tracer's overhead dominates them.

`step` times the minibatches of one `trainer.train` per process, on the
synthetic preset (d=32, d_z=16, 20 seen classes and 960 training rows; the
critics 48 -> 128 -> 128 -> 1 and 96 -> 128 -> 128 -> 1 at the default
--hidden-mult 4) at --batch-size and its `dtype`, with the policy step on
from the first epoch and no in-training evaluation. It trains the whole
epochs that cover --batches (30 minibatches per epoch at batch 32) and
prints how many it timed; the reward model is pretrained before timing
starts. As `report` does, it wraps `AdamState.__init__` and `step` around
that call only; it tags the optimizers critic pair, generator and policy by
construction order, and refuses any other order of steps. Per minibatch it
reads, in ms, between step boundaries: the critic pair from the end of the
previous minibatch's policy step (for the first minibatch, from the end of
the last optimizer's construction) to the start of the critic pair's Adam
step, which takes in the rows' pick, the critic step's draws, the fakes'
synthesis and posterior sample and both critic losses with their penalties;
the generator adversarial step from the end of that Adam step to the start
of the generator's (the adversarial terms, the cue loss and the generator's
pullback); the policy step from there to the start of the policy's Adam step
(its draws, synthesis, reward and pullback); each of the three Adam steps;
and the whole minibatch from the end of the previous policy step to the end
of its own. The sha256 is of the three networks `trainer.train` returns.
`--hidden-mult 1 --batch-size 4` reads the per-call floor, where arithmetic
is negligible.

`drift` measures what a change does to results, not to time. For each seed
and each side, in a fresh process, it resolves the synthetic preset with
the --set overrides (in-training evaluation off unless --set turns it on),
builds and standardizes the dataset, pretrains the reward model, trains,
and evaluates the final generator --draws times, draw k from the rng
[seed, 100 + k] on both sides. It prints per seed the mean and sd over
draws of CZSL accuracy and H, and the mean `raw_reward_mean` of the last 4
epochs, for both sides and their difference (tree minus REV); then the mean
paired difference over seeds with a 95 % t-interval; the reward's
differences print as %+.3e, so that a change of a few roundings does not
read as +0.0000. The sides alternate
which goes first from seed to seed. The worker calls only `resolve_config`,
`make_synthetic`, `standardize`, `pretrain_reward`, `trainer.train` and
`full_report`, whose signatures are older than the pathwise policy step, so
--against may name a revision from before it.

`bytes` checks that a change keeps every output's bytes. For each seed and
each side (--against defaults to HEAD), in an empty directory of its own,
it runs these steps, each `python -m rlvc.cli CMD --preset synthetic
--seed S ...` in a fresh process:

- gen-synthetic -> pretrain-reward -> train -> eval -> synthesize;
- a `--no-rl` train (cues on) and a `--rl-start-epoch 1` train;
- `eval --synth-per-class 400` on the first train's checkpoint;
- a `--no-rl` train at a non-default network shape (`--hidden-mult 2
  --temb-dim 8 --leaky-slope 0.1`) and an `eval` of its checkpoint with the
  same flags, so one checkpoint's layer dims are not the preset's;
- a full-arm train and an `eval` of its checkpoint at each end of the
  leaky-slope range, `--leaky-slope 0` and `--leaky-slope 1`;
- a second, smaller dataset (`--n-seen 6 --n-unseen 3 --feat-dim 8
  --sem-dim 4`), a `pretrain-reward` on it, a `--no-rl --epochs 2
  --eval-interval 2` train on it and an `eval` of that checkpoint, so the
  dataset writer and reader, the reward file, the label-to-row map and the
  evaluation heads see other widths and class counts;
- on that dataset, a `--no-rl --diffusion-steps 3 --epochs 2
  --eval-interval 2` train and an `eval` of its checkpoint with the same
  `--diffusion-steps 3`, so the generator's and the transition critic's
  timestep tables are built at a T other than the preset's 6;
- on that dataset, a `--no-rl --diffusion-steps 1 --temb-dim 0 --epochs 2
  --eval-interval 2` train and an `eval` of its checkpoint with the same
  `--diffusion-steps 1 --temb-dim 0`, so the reverse chain runs a single
  step and the generator's input has no timestep columns;
- on that dataset, a `--no-rl --dtype float64 --epochs 2 --eval-interval 2`
  train and an `eval` of its checkpoint with the same `--dtype float64`, so
  training and the reverse chain run at the default config's precision
  (the synthetic preset trains in float32). A revision from before the
  `dtype` setting refuses this step's flag, so --against must name one
  that has it;
- last, `gen-synthetic --force --visual-sigma 1.5` over the first dataset
  and an `eval` of the first checkpoint on it, so a load that finds the
  parsed-array cache of the old files must parse the new ones.

Every command uses relative paths, so its stdout does not name the
directory. After every run it prints, per seed, a SAME or DIFF line with
the sha256 of each file the commands wrote and of each command's stdout,
then SAME or the count of differing artifacts; it exits 1 if any differ.
A failed step exits 2 before any hash prints.
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
SYNTHETIC = ["--preset", "synthetic"]
SHAPE = ["--hidden-mult", "2", "--temb-dim", "8", "--leaky-slope", "0.1"]
T1 = ["--diffusion-steps", "1", "--temb-dim", "0"]
F64 = ["--dtype", "float64"]

# `bytes`' steps: (name, arguments after the seed); names label the stdout hashes.
STEPS = (
    ("gen-synthetic", ["gen-synthetic", "--out", "data"]),
    ("pretrain-reward", ["pretrain-reward", "--data", "data", "--out", "full"]),
    ("train", ["train", "--data", "data", "--reward", "full/reward.ckpt", "--out", "full"]),
    ("eval", ["eval", "--data", "data", "--generator", "full/generator.ckpt"]),
    ("synthesize", ["synthesize", "--data", "data", "--generator", "full/generator.ckpt",
                    "--out", "synth/features.csv"]),
    ("train-no-rl", ["train", "--data", "data", "--no-rl", "--out", "no-rl"]),
    ("train-rl-start-1", ["train", "--data", "data", "--reward", "full/reward.ckpt",
                          "--rl-start-epoch", "1", "--out", "rl-start-1"]),
    ("eval-400", ["eval", "--data", "data", "--generator", "full/generator.ckpt",
                  "--synth-per-class", "400"]),
    ("train-shape", ["train", "--data", "data", "--no-rl", *SHAPE, "--out", "shape"]),
    ("eval-shape", ["eval", "--data", "data", "--generator", "shape/generator.ckpt", *SHAPE]),
    ("train-slope-0", ["train", "--data", "data", "--reward", "full/reward.ckpt",
                       "--leaky-slope", "0", "--out", "slope-0"]),
    ("eval-slope-0", ["eval", "--data", "data", "--generator", "slope-0/generator.ckpt",
                      "--leaky-slope", "0"]),
    ("train-slope-1", ["train", "--data", "data", "--reward", "full/reward.ckpt",
                       "--leaky-slope", "1", "--out", "slope-1"]),
    ("eval-slope-1", ["eval", "--data", "data", "--generator", "slope-1/generator.ckpt",
                      "--leaky-slope", "1"]),
    ("gen-synthetic-small", ["gen-synthetic", "--n-seen", "6", "--n-unseen", "3", "--feat-dim", "8",
                             "--sem-dim", "4", "--out", "data-small"]),
    ("pretrain-reward-small", ["pretrain-reward", "--data", "data-small", "--out", "small"]),
    ("train-small", ["train", "--data", "data-small", "--no-rl", "--epochs", "2",
                     "--eval-interval", "2", "--out", "small"]),
    ("eval-small", ["eval", "--data", "data-small", "--generator", "small/generator.ckpt"]),
    ("train-small-t3", ["train", "--data", "data-small", "--no-rl", "--diffusion-steps", "3",
                        "--epochs", "2", "--eval-interval", "2", "--out", "small-t3"]),
    ("eval-small-t3", ["eval", "--data", "data-small", "--generator", "small-t3/generator.ckpt",
                       "--diffusion-steps", "3"]),
    ("train-small-t1", ["train", "--data", "data-small", "--no-rl", *T1, "--epochs", "2",
                        "--eval-interval", "2", "--out", "small-t1"]),
    ("eval-small-t1", ["eval", "--data", "data-small", "--generator", "small-t1/generator.ckpt",
                       *T1]),
    ("train-small-f64", ["train", "--data", "data-small", "--no-rl", *F64, "--epochs", "2",
                         "--eval-interval", "2", "--out", "small-f64"]),
    ("eval-small-f64", ["eval", "--data", "data-small", "--generator", "small-f64/generator.ckpt",
                        *F64]),
    ("gen-synthetic-resampled", ["gen-synthetic", "--force", "--visual-sigma", "1.5",
                                 "--out", "data"]),
    ("eval-resampled", ["eval", "--data", "data", "--generator", "full/generator.ckpt"]),
)


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


def synthetic(overrides: dict):
    """The synthetic preset's Config with `overrides`, and its dataset,
    standardized if the Config says so."""
    from rlvc import config, data

    cfg = config.resolve_config("synthetic", None, overrides)
    ds = data.make_synthetic(cfg)
    return cfg, data.standardize(ds) if cfg.standardize else ds


def adam_boundaries(call):
    """`call()` with `AdamState.__init__` and `step` wrapped for that call
    only: its result, the optimizers built, in order, the time each one's
    construction ended, and each step as (its optimizer's index, start, end)."""
    from rlvc import nets

    adam, made, built, steps = nets.AdamState, [], [], []
    init, step, clock = adam.__init__, adam.step, time.perf_counter

    def tagging_init(opt, *a, **kw):
        init(opt, *a, **kw)
        made.append(opt)
        built.append(clock())

    def timed_step(opt, grads):
        start = clock()
        step(opt, grads)
        steps.append((made.index(opt), start, clock()))

    adam.__init__, adam.step = tagging_init, timed_step
    try:
        return call(), made, built, steps
    finally:
        adam.__init__, adam.step = init, step


def measure_report(args) -> dict:
    """`evaluate.full_report`, timed at the boundaries of its heads' Adam steps."""
    import numpy as np

    from rlvc import evaluate, gan

    cfg, ds = synthetic({"synth_per_class": SYNTH_PER_CLASS})
    gen = gan.Generator(ds.feat_dim, ds.sem_dim, cfg, np.random.default_rng(args.seed))
    ms = {name: [] for name in ("full report", "synthesis", "czsl head", "gzsl head",
                                "czsl ms per step", "gzsl ms per step")}
    us, digest = {}, hashlib.sha256()
    for k in range(args.reports):
        rng = np.random.default_rng([args.seed, k])
        start = time.perf_counter()
        _, made, built, steps = adam_boundaries(lambda: evaluate.full_report(gen, ds, cfg, rng))
        ms["full report"].append(1e3 * (time.perf_counter() - start))
        order = [i for i, _, _ in steps]
        czsl = order.count(0)  # the CZSL head's optimizer is built first
        if (len(made) != 2 or order != sorted(order) or not 0 < czsl < len(order)
                or built[1] < steps[czsl - 1][2]):
            raise SystemExit(f"report: {len(made)} optimizers built and {len(steps)} steps, "
                             f"not the CZSL head's steps and then the GZSL head's")
        ms["synthesis"].append(1e3 * (built[0] - start))
        for name, opt, begun, own in (("czsl", made[0], built[0], steps[:czsl]),
                                      ("gzsl", made[1], built[1], steps[czsl:])):
            took = 1e3 * (own[-1][2] - begun)
            ms[f"{name} head"].append(took)
            ms[f"{name} ms per step"].append(took / len(own))
            us.setdefault(f"adam {opt.params[0].size} entries", []).extend(
                1e6 * (end - begin) for _, begin, end in own)
            digest.update(opt.params[0].tobytes())
    return {"ms": ms, "us": us, "sha256": digest.hexdigest()}


def measure_step(args) -> dict:
    """`trainer.train`'s minibatches, timed at the boundaries of its Adam steps."""
    import dataclasses

    from rlvc import reward, trainer

    cfg, ds = synthetic({"hidden_mult": args.hidden_mult, "batch_size": args.batch_size,
                         "seed": args.seed, "rl_start_epoch": 0, "eval_interval": 0})
    train_x, train_y = ds.train
    per_epoch = -(-len(train_x) // cfg.batch_size)
    cfg = dataclasses.replace(cfg, epochs=-(-args.batches // per_epoch))
    rm = reward.pretrain_reward(train_x, ds.seen_rows(train_y), len(ds.seen_classes), cfg)

    # The optimizers in construction order: critic, generator and policy.
    result, made, built, steps = adam_boundaries(lambda: trainer.train(ds, rm, cfg))
    batches = cfg.epochs * per_epoch
    if len(made) != 3 or [k for k, _, _ in steps] != [0, 1, 2] * batches:
        raise SystemExit(f"step: {len(made)} optimizers built and {len(steps)} steps, not "
                         f"critic, generator, policy for each of {batches} minibatches")
    ms = {name: [] for name in ("critic pair", "generator adversarial step", "policy step",
                                "adam critic pair", "adam generator", "adam policy", "batch")}
    last = built[-1]  # the previous minibatch's policy step ends here
    for (_, c0, c1), (_, g0, g1), (_, p0, p1) in zip(*[iter(steps)] * 3):
        for name, begin, end in (("critic pair", last, c0), ("adam critic pair", c0, c1),
                                 ("generator adversarial step", c1, g0),
                                 ("adam generator", g0, g1), ("policy step", g1, p0),
                                 ("adam policy", p0, p1), ("batch", last, p1)):
            ms[name].append(1e3 * (end - begin))
        last = p1
    digest = hashlib.sha256()
    for net in (result.generator, result.critic_x0, result.critic_xt):
        digest.update(net.net.flat.tobytes())
    return {"ms": ms, "timed": [cfg.epochs, batches], "sha256": digest.hexdigest()}


def measure_drift(args) -> dict:
    """Train at one seed and evaluate the final generator --draws times."""
    import numpy as np

    from rlvc import evaluate, reward, trainer

    overrides = {"eval_interval": "0", **dict(kv.split("=", 1) for kv in args.set)}
    (seed,) = args.seeds
    cfg, ds = synthetic({**overrides, "seed": seed})
    train_x, train_y = ds.train
    rm = reward.pretrain_reward(train_x, ds.seen_rows(train_y), len(ds.seen_classes), cfg)
    result = trainer.train(ds, rm, cfg)
    reports = [evaluate.full_report(result.generator, ds, cfg, np.random.default_rng([seed, 100 + k]))
               for k in range(args.draws)]
    return {"CZSL": [r.czsl_acc for r in reports], "H": [r.gzsl_h for r in reports],
            "reward": float(np.mean([row.raw_reward_mean for row in result.metrics[-4:]]))}


# Two-sided 95 % points of Student's t by degrees of freedom; between rows
# the smaller df's point is used, which widens the interval.
T95 = {1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447, 7: 2.365, 8: 2.306,
       9: 2.262, 10: 2.228, 15: 2.131, 20: 2.086, 30: 2.042}


def t_interval(diffs) -> tuple[float, float]:
    """The mean of paired differences and its 95 % half-width (nan for one)."""
    import numpy as np

    diffs = np.asarray(diffs, dtype=float)
    df = len(diffs) - 1
    if df < 1:
        return float(np.mean(diffs)), float("nan")
    t = T95[max(k for k in T95 if k <= df)]
    return float(np.mean(diffs)), t * float(np.std(diffs, ddof=1)) / len(diffs) ** 0.5


def drift(args) -> int:
    """Paired runs of the tree and --against per seed; a table and intervals."""
    import numpy as np

    flags = ["--draws", str(args.draws), *(f"--set={kv}" for kv in args.set)]
    tree, per_seed = os.path.join(ROOT, "src"), []
    with tempfile.TemporaryDirectory(prefix="probe-") as tmp:
        extract(args.against, tmp)
        sides = [tree, os.path.join(tmp, "src")]
        for i, seed in enumerate(args.seeds):
            argv = ["drift", "--seeds", str(seed), *flags]
            got = {src: run_side(src, argv) for src in (sides[::-1] if i % 2 else sides)}
            per_seed.append([got[src] for src in sides])
    print(f"drift: tree minus {args.against}; synthetic preset"
          f"{''.join(' ' + kv for kv in args.set)}; {args.draws} draws per run; "
          f"reward = mean raw_reward_mean of the last 4 epochs")
    print(f"{'seed':>4} {'side':>10} {'CZSL':>16} {'H':>16} {'reward':>9}")
    diffs = {"CZSL": [], "H": [], "reward": []}
    for seed, (ours, theirs) in zip(args.seeds, per_seed):
        for label, r in (("tree", ours), (args.against[:10], theirs)):
            print(f"{seed:>4} {label:>10} {np.mean(r['CZSL']):>8.4f} ±{np.std(r['CZSL']):.4f}"
                  f" {np.mean(r['H']):>8.4f} ±{np.std(r['H']):.4f} {r['reward']:>9.4f}")
        for name, values in diffs.items():
            values.append(np.mean(ours[name]) - np.mean(theirs[name]))
        print(f"{seed:>4} {'diff':>10} {diffs['CZSL'][-1]:>+8.4f} {'':7} {diffs['H'][-1]:>+8.4f}"
              f" {'':7} {diffs['reward'][-1]:>+.3e}")
    print(f"mean paired difference over {len(args.seeds)} seeds, 95 % t-interval:")
    for name, values in diffs.items():
        mean, half = t_interval(values)
        f = "{:+.3e}" if name == "reward" else "{:+.4f}"
        print(f"  {name}: {f.format(mean)} [{f.format(mean - half)}, {f.format(mean + half)}]")
    return 0


def run_pipeline(src: str, work: str, seed: int) -> dict[str, str]:
    """Run every step with the package at `src` in the empty directory
    `work`; the sha256 of each step's stdout and of each file written."""
    env = dict(os.environ, RLVC_THREADS="1", PYTHONPATH=src)
    hashes = {}
    for name, args in STEPS:
        cmd = [sys.executable, "-m", "rlvc.cli", args[0], *SYNTHETIC, "--seed", str(seed),
               *args[1:]]
        done = subprocess.run(cmd, cwd=work, env=env, capture_output=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr.decode(errors="replace"))
            print(f"{name} failed with exit {done.returncode} in {work}", file=sys.stderr)
            raise SystemExit(2)
        hashes[f"{name} stdout"] = hashlib.sha256(done.stdout).hexdigest()
    for folder, _, files in os.walk(work):
        for f in files:
            path = os.path.join(folder, f)
            with open(path, "rb") as fh:
                hashes[os.path.relpath(path, work)] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def check_bytes(args) -> int:
    """Every step's outputs for the tree and --against, per seed; 1 if any differ."""
    results = []
    with tempfile.TemporaryDirectory(prefix="probe-") as tmp:
        extract(args.against, tmp)
        for seed in args.seeds:
            results.append([])
            for side, src in enumerate((os.path.join(ROOT, "src"), os.path.join(tmp, "src"))):
                work = os.path.join(tmp, f"seed{seed}-{side}")
                os.makedirs(work)
                results[-1].append(run_pipeline(src, work, seed))
    differ = 0
    for seed, (ours, theirs) in zip(args.seeds, results):
        print(f"seed {seed}")
        for key in sorted(set(ours) | set(theirs)):
            a, b = ours.get(key, "-"), theirs.get(key, "-")
            differ += a != b
            if a == b:
                print(f"  SAME {key}: {a}")
            else:
                print(f"  DIFF {key}: tree {a}, {args.against} {b}")
    print("SAME" if not differ else f"DIFFERENT: {differ} artifact(s)")
    return 1 if differ else 0


def extract(rev: str, dest: str) -> None:
    """The committed files of `rev` under `dest`."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)


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
    if "timed" in results[0]:
        print("  timed {} epochs, {} minibatches per round".format(*results[0]["timed"]))
    print(f"  peak RSS {max(result['peak_rss_mb'] for result in results):.0f} MB")
    for digest in sorted({result["sha256"] for result in results}):
        print(f"  sha256 of {hashed}: {digest}")
    return best


def build_parser() -> argparse.ArgumentParser:
    """The command line: one subcommand per measurement, each with the flags
    its usage line in this module's docstring shows."""
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
    report.set_defaults(measure=measure_report, hashed="both heads")
    step = commands.add_parser("step", help=measure_step.__doc__)
    step.add_argument("--hidden-mult", type=int, default=4)
    step.add_argument("--batch-size", type=int, default=32)
    step.add_argument("--batches", type=int, default=300,
                      help="minibatches per process, rounded up to whole epochs")
    step.set_defaults(measure=measure_step, hashed="the three networks")
    drift_cmd = commands.add_parser("drift", help=drift.__doc__)
    drift_cmd.add_argument("--against", help="git revision to compare with (required)")
    drift_cmd.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    drift_cmd.add_argument("--draws", type=int, default=8, help="evaluations per trained run")
    drift_cmd.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                           help="a Config override, both sides; repeatable")
    drift_cmd.set_defaults(measure=measure_drift)
    bytes_cmd = commands.add_parser("bytes", help=check_bytes.__doc__)
    bytes_cmd.add_argument("--against", default="HEAD", help="git revision to compare with")
    bytes_cmd.add_argument("--seeds", type=int, nargs="+", default=[0, 3])
    for command, rounds in ((adam, 2), (report, 3), (step, 3)):
        command.add_argument("--against", help="git revision to compare with")
        command.add_argument("--rounds", type=int, default=rounds,
                             help="turns per side with --against")
        command.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.worker:
        result = args.measure(args)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(result))
        return 0
    if args.command == "drift":
        if args.against is None:
            parser.error("drift needs --against")
        if any("=" not in kv for kv in args.set):
            parser.error("--set takes key=value")
        return drift(args)
    if args.command == "bytes":
        return check_bytes(args)
    tree = os.path.join(ROOT, "src")
    if args.against is None:
        summarize("tree", [run_side(tree, argv)], args.hashed)
        return 0
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
