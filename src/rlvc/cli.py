"""Command-line entry point.

Commands: gen-synthetic, pretrain-reward, train, synthesize, eval.
Exit codes: 0 success, 1 usage error, 2 I/O or validation error, 3 numeric
failure. RLVC_THREADS=n (n > 0) sets OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and
MKL_NUM_THREADS to n, over any inherited values; 0 = leave them as they are.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import _threads
from . import config as cfgmod
from . import data as datamod
from . import evaluate, gan, trainer
from . import reward as reward_mod
from .errors import ConfigurationError, NumericFailure, UsageError
from .seeding import stream_rng


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1
        raise UsageError(message)


def _add_flags(command: str, p: _Parser) -> None:
    """Add `command`'s flags to its parser: one for each setting it reads
    (`config.command_fields`), then its own."""
    p.add_argument("--config", metavar="PATH", help="key=value config file")
    p.add_argument("--preset", metavar="NAME", help=f"one of {sorted(cfgmod.PRESETS)}")
    if command != "eval":
        p.add_argument("--out", metavar="DIR", help="output directory or file")
    p.add_argument("--print-config", action="store_true",
                   help="print the resolved settings this command reads and exit")
    for f in cfgmod.command_fields(command):
        bare = {"nargs": "?", "const": "true"} if isinstance(f.default, bool) else {}
        p.add_argument(
            "--" + f.name.replace("_", "-"),
            dest=f"cfg_{f.name}",
            metavar="V",
            default=argparse.SUPPRESS,
            help=f"{f.metadata['help']} (default: {f.default})",
            **bare,
        )
    if command == "gen-synthetic":
        p.add_argument("--force", action="store_true", help="overwrite an existing dataset dir")
        return
    p.add_argument("--data", metavar="DIR", help="dataset directory")
    if command == "train":
        p.add_argument("--reward", metavar="PATH", help="frozen reward-model checkpoint")
        # `--use-rl false` and `--use-cues false`: the later of two such flags wins
        p.add_argument("--no-rl", dest="cfg_use_rl", action="store_const", const="false",
                       default=argparse.SUPPRESS, help="disable the policy-gradient phase")
        p.add_argument("--no-cues", dest="cfg_use_cues", action="store_const", const="false",
                       default=argparse.SUPPRESS, help="disable prototype distillation")
    elif command in ("synthesize", "eval"):
        p.add_argument("--generator", metavar="PATH", help="generator checkpoint")


def build_parser() -> _Parser:
    """The parser of every command, each with the flags `_add_flags` gives
    it; no flag may be abbreviated."""
    root = _Parser(prog="rlvc", description=__doc__, allow_abbrev=False)
    sub = root.add_subparsers(dest="command", metavar="COMMAND")
    for name, (_, help_line) in _COMMANDS.items():
        _add_flags(name, sub.add_parser(name, help=help_line, allow_abbrev=False))
    return root


def _resolve(args) -> cfgmod.Config:
    """The Config of --preset, --config and the settings given as flags."""
    given = {name[4:]: v for name, v in vars(args).items() if name.startswith("cfg_")}
    return cfgmod.resolve_config(args.preset, args.config, given)


def _require(args, name: str) -> str:
    value = getattr(args, name.replace("-", "_"), None)
    if not value:
        raise UsageError(f"--{name} is required for this command")
    return value


def _in_space(cfg: cfgmod.Config, raw: datamod.ZslDataset) -> datamod.ZslDataset:
    """The dataset in the feature space that cfg.standardize picks."""
    return datamod.standardize(raw) if cfg.standardize else raw


def _trained(args):
    """The raw dataset of --data, then what `gan.load_generator` of --generator
    gives on it: the generator, the Config under the file's settings, the epoch."""
    cfg = _resolve(args)
    data_dir, path = _require(args, "data"), _require(args, "generator")
    raw = datamod.load_dataset(data_dir)
    return (raw, *gan.load_generator(path, raw.feat_dim, raw.sem_dim, cfg))


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
    ds = _in_space(cfg, datamod.load_dataset(data_dir))
    train_x, train_y = ds.train
    y = ds.seen_rows(train_y)
    model = reward_mod.pretrain_reward(train_x, y, len(ds.seen_classes), cfg)
    acc = np.mean(model.predict(train_x) == y)
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "reward.ckpt")
    reward_mod.save_reward(path, model, cfg.standardize, ds.fingerprint)
    print(f"reward model: train accuracy {acc:.4f}, saved to {path}")
    return 0


def cmd_train(args) -> int:
    cfg = _resolve(args)
    data_dir = _require(args, "data")
    out = _require(args, "out")
    ds = _in_space(cfg, datamod.load_dataset(data_dir))
    model = None
    if cfg.use_rl:  # the reward model must score rows of this dataset, in this run's space
        model = reward_mod.load_reward(_require(args, "reward"), cfg.standardize, ds.fingerprint)
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
    out = _require(args, "out")
    raw, gen, cfg, epoch = _trained(args)
    ds = _in_space(cfg, raw)
    feats, labels = evaluate.synthesize_unseen(gen, ds.prototypes, ds.unseen_classes,
                                               cfg.synth_per_class, cfg.schedule(),
                                               stream_rng(cfg.seed, "eval", epoch))
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
    raw, gen, cfg, epoch = _trained(args)
    ds = _in_space(cfg, raw)
    del raw  # a standardized copy replaces it: keep one dataset in memory, as training does
    report = evaluate.full_report(gen, ds, cfg, stream_rng(cfg.seed, "eval", epoch))
    print(report.format_line())
    return 0


# Each command's function and its help line, in the order `rlvc --help` lists them.
_COMMANDS = {
    "gen-synthetic": (cmd_gen_synthetic, "write a synthetic benchmark dataset"),
    "pretrain-reward": (cmd_pretrain_reward, "train and freeze the reward model"),
    "train": (cmd_train, "run the full training schedule"),
    "synthesize": (cmd_synthesize, "synthesize unseen-class features to a file"),
    "eval": (cmd_eval, "evaluate a trained generator (CZSL and GZSL)"),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        _threads()
        if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
            # argparse would read the flag's value as the command
            raise UsageError(f"flags go after the command: {argv[0]}")
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("no command given; see --help")
        if args.print_config:
            keys = [f.name for f in cfgmod.command_fields(args.command)]
            if getattr(args, "generator", None):  # and the settings the file records
                cfg, keys = _trained(args)[2], keys + list(gan.GENERATOR_KEYS)
            else:
                cfg = _resolve(args)
            sys.stdout.write(cfgmod.format_config(cfg, keys))
            return 0
        return _COMMANDS[args.command][0](args)
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
