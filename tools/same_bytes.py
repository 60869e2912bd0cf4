"""Byte-identity check of the synthetic-preset pipeline against a revision.

Usage (from the repository root):

    python3 tools/same_bytes.py --against HEAD~1 [--seeds 0 3] [--tree-set KEY=VALUE ...]

For the working tree and for the committed files of revision --against
(extracted with `git archive` into a temporary directory), and for each seed,
this runs with RLVC_THREADS=1 in a fresh temporary directory:

- gen-synthetic -> pretrain-reward -> train -> eval -> synthesize, all on
  --preset synthetic;
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

`--tree-set KEY=VALUE` (repeatable) sets KEY for every command of the
working tree's side only, for a setting that --against does not have. The
settings reach the tree's commands as one `--config` file of `KEY = VALUE`
lines, outside the directory that is hashed: a config file may hold any
key, where a command refuses a flag for a setting it does not read. A
checkpoint records its settings, so each `KEY = VALUE` line is dropped from
the settings block of the tree's checkpoint files (and the block's byte
count mended) before they are hashed; any other byte of theirs counts.
The steps above still pass their own flags to both sides, so a revision
that lacks a setting one of them names fails that step, and the script
exits 2 before it prints any hash. `--tree-set dtype=float64` against a
revision from before `dtype` therefore compares nothing: the tree's side
runs whole, then the other side stops at `train-small-f64`, whose
`--dtype` flag that revision refuses.

Every command uses relative paths, so its stdout does not name the
directory. The script prints the sha256 of each file the commands wrote and
of each command's stdout, for both sides, and exits 1 if any differ (2 if a
command fails). The temporary directories are removed afterwards.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import struct
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SYNTHETIC = ["--preset", "synthetic"]
SHAPE = ["--hidden-mult", "2", "--temb-dim", "8", "--leaky-slope", "0.1"]
T1 = ["--diffusion-steps", "1", "--temb-dim", "0"]
F64 = ["--dtype", "float64"]

# (name, arguments after the seed); names label the stdout hashes.
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


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def without_settings(blob: bytes, lines: list[str]) -> bytes:
    """A checkpoint file's bytes with each of `lines` dropped from its
    settings block, whose byte count is mended (see rlvc.nets.save_checkpoint
    for the layout)."""
    (ndims,) = struct.unpack_from("<I", blob, 12)
    at = 16 + 4 * ndims
    (size,) = struct.unpack_from("<I", blob, at)
    kept = [line for line in blob[at + 4 : at + 4 + size].decode().splitlines(keepends=True)
            if line.rstrip("\n") not in lines]
    text = "".join(kept).encode()
    return blob[:at] + struct.pack("<I", len(text)) + text + blob[at + 4 + size :]


def run_pipeline(src: str, work: str, seed: int, tree_set: list[str] = ()) -> dict[str, str]:
    """Run every step with the package at `src` in the empty directory
    `work`, each with a config file of the `KEY=VALUE` settings of
    `tree_set` (written beside `work`); the sha256 of each step's stdout and
    of each file written, a checkpoint's without the `KEY = VALUE` settings
    lines of `tree_set`."""
    env = dict(os.environ, RLVC_THREADS="1", PYTHONPATH=src)
    lines = [" = ".join(kv.split("=", 1)) for kv in tree_set]
    flags = []
    if lines:
        path = work + ".cfg"
        with open(path, "w") as fh:
            fh.write("".join(line + "\n" for line in lines))
        flags = ["--config", path]
    hashes = {}
    for name, args in STEPS:
        cmd = [sys.executable, "-m", "rlvc.cli", args[0], *SYNTHETIC, "--seed", str(seed),
               *args[1:], *flags]
        done = subprocess.run(cmd, cwd=work, env=env, capture_output=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr.decode(errors="replace"))
            print(f"{name} failed with exit {done.returncode} in {work}", file=sys.stderr)
            raise SystemExit(2)
        hashes[f"{name} stdout"] = _sha(done.stdout)
    for folder, _, files in os.walk(work):
        for f in files:
            path = os.path.join(folder, f)
            with open(path, "rb") as fh:
                blob = fh.read()
            if lines and f.endswith(".ckpt"):
                blob = without_settings(blob, lines)
            hashes[os.path.relpath(path, work)] = _sha(blob)
    return hashes


def extract(rev: str, dest: str) -> None:
    """The committed files of `rev` under `dest`."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", default="HEAD", help="git revision to compare with")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 3])
    parser.add_argument("--tree-set", action="append", default=[], metavar="KEY=VALUE",
                        help="a setting for the working tree's commands only; repeatable")
    args = parser.parse_args(argv)
    if any("=" not in kv for kv in args.tree_set):
        parser.error("--tree-set takes KEY=VALUE")
    differ = 0
    with tempfile.TemporaryDirectory(prefix="same_bytes-") as tmp:
        base = os.path.join(tmp, "against")
        os.makedirs(base)
        extract(args.against, base)
        sources = (os.path.join(ROOT, "src"), os.path.join(base, "src"))
        for seed in args.seeds:
            results = []
            for side, src in enumerate(sources):
                work = os.path.join(tmp, f"seed{seed}-{side}")
                os.makedirs(work)
                results.append(run_pipeline(src, work, seed, args.tree_set if side == 0 else ()))
            ours, theirs = results
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


if __name__ == "__main__":
    sys.exit(main())
