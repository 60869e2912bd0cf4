"""Command-line entry point.

Commands: gen-synthetic, pretrain-reward, train, synthesize, eval.
Exit codes: 0 success, 1 usage error, 2 I/O or validation error, 3 numeric
failure. RLVC_THREADS (when set and > 0) bounds worker threads; 0 = auto.
"""

from __future__ import annotations

import os
import sys


def _apply_thread_env() -> None:
    raw = os.environ.get("RLVC_THREADS")
    if raw is None:
        return
    try:
        n = int(raw)
    except ValueError:
        return  # validated again (with a clean exit code) inside main()
    if n > 0:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, str(n))


_apply_thread_env()  # must precede numpy's first import

import argparse
import dataclasses

import numpy as np

from . import config as cfgmod
from . import data as datamod
from . import evaluate, gan, trainer
from . import reward as reward_mod
from .cues import CUE_VARIANTS
from .errors import ConfigurationError, NumericFailure, UsageError
from .nets import GENERATOR_TAG, load_checkpoint, load_reward, save_reward
from .seeding import stream_rng


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1
        raise UsageError(message)


# these two get dedicated flags on the train command instead of the generic
# --key V form; they stay settable everywhere through a config file
_DEDICATED = ("raw_reward", "cue_loss")


def _add_common(p: _Parser) -> None:
    p.add_argument("--config", metavar="PATH", help="key=value config file")
    p.add_argument("--preset", metavar="NAME", help=f"one of {sorted(cfgmod.PRESETS)}")
    p.add_argument("--out", metavar="DIR", help="output directory or file")
    p.add_argument(
        "--print-config", action="store_true", help="print the resolved config and exit"
    )
    for f in dataclasses.fields(cfgmod.Config):
        if f.name in _DEDICATED:
            continue
        p.add_argument(
            "--" + f.name.replace("_", "-"),
            dest=f"cfg_{f.name}",
            metavar="V",
            default=argparse.SUPPRESS,
            help=f"{f.metadata['help']} (default: {f.default})",
        )


def build_parser() -> _Parser:
    root = _Parser(prog="rlvc", description=__doc__)
    sub = root.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("gen-synthetic", parents=[], help="write a synthetic benchmark dataset")
    _add_common(p)
    p.add_argument("--force", action="store_true", help="overwrite an existing dataset dir")

    p = sub.add_parser("pretrain-reward", help="train and freeze the reward model")
    _add_common(p)
    p.add_argument("--data", metavar="DIR", help="dataset directory")

    p = sub.add_parser("train", help="run the full training schedule")
    _add_common(p)
    p.add_argument("--data", metavar="DIR", help="dataset directory")
    p.add_argument("--reward", metavar="PATH", help="frozen reward-model checkpoint")
    p.add_argument("--no-rl", action="store_true", help="disable the policy-gradient phase")
    p.add_argument("--no-cues", action="store_true", help="disable prototype distillation")
    p.add_argument("--raw-reward", action="store_true", help="skip the baseline (raw rewards)")
    p.add_argument("--cue-loss", choices=CUE_VARIANTS, help="distillation variant")

    p = sub.add_parser("synthesize", help="synthesize unseen-class features to a file")
    _add_common(p)
    p.add_argument("--data", metavar="DIR", help="dataset directory")
    p.add_argument("--generator", metavar="PATH", help="generator checkpoint")

    p = sub.add_parser("eval", help="evaluate a trained generator (CZSL and GZSL)")
    _add_common(p)
    p.add_argument("--data", metavar="DIR", help="dataset directory")
    p.add_argument("--generator", metavar="PATH", help="generator checkpoint")
    return root


def _resolve(args) -> cfgmod.Config:
    overrides = {}
    for f in dataclasses.fields(cfgmod.Config):
        attr = f"cfg_{f.name}"
        if hasattr(args, attr):
            overrides[f.name] = getattr(args, attr)
    if getattr(args, "no_rl", False):
        overrides["use_rl"] = False
    if getattr(args, "no_cues", False):
        overrides["use_cues"] = False
    if getattr(args, "raw_reward", False):
        overrides["raw_reward"] = True
    if getattr(args, "cue_loss", None):
        overrides["cue_loss"] = args.cue_loss
    return cfgmod.resolve_config(args.preset, args.config, overrides)


def _require(args, name: str) -> str:
    value = getattr(args, name.replace("-", "_"), None)
    if not value:
        raise UsageError(f"--{name} is required for this command")
    return value


def _load_dataset(cfg: cfgmod.Config, path: str) -> datamod.ZslDataset:
    ds = datamod.load_dataset(path)
    if cfg.standardize:
        ds = datamod.standardize(ds)
    return ds


def _load_generator(cfg: cfgmod.Config, ds: datamod.ZslDataset, path: str) -> gan.Generator:
    gen = gan.Generator(ds.feat_dim, ds.sem_dim, cfg, None)  # no draw: flat is overwritten
    dims, flat = load_checkpoint(path, GENERATOR_TAG)
    if dims != gen.net.layer_dims:
        raise ConfigurationError(
            f"checkpoint layer dims {dims} do not match the generator's {gen.net.layer_dims}"
        )
    gen.net.flat[...] = flat
    return gen


def cmd_gen_synthetic(args) -> int:
    cfg = _resolve(args)
    out = _require(args, "out")
    existing = [n for n in datamod.DATASET_FILES if os.path.isfile(os.path.join(out, n))]
    if existing and not args.force:
        raise ConfigurationError(
            f"{out} already holds a dataset ({existing[0]}); pass --force to overwrite"
        )
    ds = datamod.make_synthetic(cfg)
    datamod.save_dataset(ds, out)
    n_train = int(np.sum(ds.splits == "train"))
    print(
        f"wrote {out}: {ds.features.shape[0]} rows ({n_train} train), "
        f"{len(ds.seen_classes)} seen + {len(ds.unseen_classes)} unseen classes, "
        f"d={ds.feat_dim} d_z={ds.sem_dim}"
    )
    return 0


def cmd_pretrain_reward(args) -> int:
    cfg = _resolve(args)
    data_dir = _require(args, "data")
    out = _require(args, "out")
    ds = _load_dataset(cfg, data_dir)
    train_x, train_y = ds.train
    y = ds.seen_rows(train_y)
    model = reward_mod.pretrain_reward(
        train_x, y, len(ds.seen_classes), cfg, stream_rng(cfg.seed, "reward")
    )
    acc = np.mean(model.predict(train_x) == y)
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "reward.ckpt")
    save_reward(path, model)
    print(f"reward model: train accuracy {acc:.4f}, saved to {path}")
    return 0


def cmd_train(args) -> int:
    cfg = _resolve(args)
    data_dir = _require(args, "data")
    out = _require(args, "out")
    ds = _load_dataset(cfg, data_dir)
    model = load_reward(_require(args, "reward")) if cfg.use_rl else None
    result = trainer.train(ds, model, cfg, out_dir=out)
    last = result.metrics[-1]
    print(
        f"trained {cfg.epochs} epochs; generator checkpoint and metrics.csv in {out}"
    )
    if result.reports:
        final_epoch = max(result.reports)
        print(f"final eval: {result.reports[final_epoch].format_line()}")
    else:
        print(f"final critic loss {last.critic_loss:.6f}, adv loss {last.gen_adv_loss:.6f}")
    return 0


def cmd_synthesize(args) -> int:
    cfg = _resolve(args)
    data_dir = _require(args, "data")
    gen_path = _require(args, "generator")
    out = _require(args, "out")
    raw = datamod.load_dataset(data_dir)
    ds = datamod.standardize(raw) if cfg.standardize else raw
    gen = _load_generator(cfg, ds, gen_path)
    feats, labels = evaluate.synthesize_unseen(
        gen,
        ds.prototypes,
        ds.unseen_classes,
        cfg.synth_per_class,
        cfg.schedule(),
        stream_rng(cfg.seed, "eval"),
    )
    if cfg.standardize:  # the csv holds the dataset's own units
        mu, sd = datamod.train_stats(raw)
        feats = feats * sd + mu
    parent = os.path.dirname(out)
    if parent:
        os.makedirs(parent, exist_ok=True)
    datamod.export_features(feats, labels, out)
    print(f"wrote {feats.shape[0]} synthesized rows for {len(ds.unseen_classes)} classes to {out}")
    return 0


def cmd_eval(args) -> int:
    cfg = _resolve(args)
    data_dir = _require(args, "data")
    gen_path = _require(args, "generator")
    ds = _load_dataset(cfg, data_dir)
    gen = _load_generator(cfg, ds, gen_path)
    report = evaluate.full_report(gen, ds, cfg, stream_rng(cfg.seed, "eval"))
    print(report.format_line())
    return 0


_COMMANDS = {
    "gen-synthetic": cmd_gen_synthetic,
    "pretrain-reward": cmd_pretrain_reward,
    "train": cmd_train,
    "synthesize": cmd_synthesize,
    "eval": cmd_eval,
}


def main(argv=None) -> int:
    raw_threads = os.environ.get("RLVC_THREADS")
    try:
        if raw_threads is not None:
            try:
                if int(raw_threads) < 0:
                    raise ValueError
            except ValueError:
                raise UsageError(
                    f"RLVC_THREADS must be a nonnegative integer, got {raw_threads!r}"
                ) from None
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("no command given; see --help")
        if args.print_config:
            sys.stdout.write(cfgmod.format_config(_resolve(args)))
            return 0
        return _COMMANDS[args.command](args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (ConfigurationError, FileNotFoundError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericFailure as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
