"""Command-line entry point.

Commands: gen-synthetic, pretrain-reward, train, synthesize, eval.
Exit codes: 0 success, 1 usage error, 2 I/O or validation error, 3 numeric
failure. RLVC_THREADS=n (n > 0) sets OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and
MKL_NUM_THREADS to n, over any inherited values; 0 = leave them as they are.

A run builds only the flags of the command named on its command line (see
`build_parser`); `rlvc --help` prints the paragraphs above.
"""

from __future__ import annotations

import os
import sys

from .errors import ConfigurationError, NumericFailure, UsageError


def _threads() -> int:
    """RLVC_THREADS as a count, 0 if it is unset; UsageError unless it is a
    nonnegative integer."""
    raw = os.environ.get("RLVC_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        n = -1
    if n < 0:
        raise UsageError(f"RLVC_THREADS must be a nonnegative integer, got {raw!r}")
    return n


def _apply_thread_env() -> None:
    try:
        n = _threads()
    except UsageError:
        return  # main() refuses it, with a usage error's exit code
    if n:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(n)


_apply_thread_env()  # must precede numpy's first import

import argparse
import dataclasses

import numpy as np

from . import config as cfgmod
from . import data as datamod
from . import evaluate, gan, trainer
from . import reward as reward_mod
from .nets import load_reward, save_reward
from .seeding import stream_rng


_DESCRIPTION = __doc__[: __doc__.index("\n\nA run builds")]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1
        raise UsageError(message)


def _add_common(p: _Parser) -> None:
    p.add_argument("--config", metavar="PATH", help="key=value config file")
    p.add_argument("--preset", metavar="NAME", help=f"one of {sorted(cfgmod.PRESETS)}")
    p.add_argument("--out", metavar="DIR", help="output directory or file")
    p.add_argument(
        "--print-config", action="store_true", help="print the resolved config and exit"
    )
    for f in dataclasses.fields(cfgmod.Config):
        bare = {"nargs": "?", "const": "true"} if isinstance(f.default, bool) else {}
        p.add_argument(
            "--" + f.name.replace("_", "-"),
            dest=f"cfg_{f.name}",
            metavar="V",
            default=argparse.SUPPRESS,
            help=f"{f.metadata['help']} (default: {f.default})",
            **bare,
        )


def _add_flags(command: str, p: _Parser) -> None:
    """Add `command`'s flags to its parser: the common ones, then its own."""
    _add_common(p)
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


class _Commands(argparse._SubParsersAction):
    """The subcommand action. Argparse calls it with the command it matched
    and that command's arguments; it adds the command's flags to the
    command's parser first, so a parse builds one command's flags."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.built: set[str] = set()

    def __call__(self, parser, namespace, values, option_string=None):
        command = values[0]
        if command not in self.built:
            self.built.add(command)
            _add_flags(command, self.choices[command])
        super().__call__(parser, namespace, values, option_string)


def build_parser() -> _Parser:
    """The parser of every command. Each command is registered with its
    help line, but its flags are added only once argparse hands it its
    arguments: a parse builds the flags of the command it runs, not the
    some 45 flags of each of five commands. Help texts, error messages and
    exit codes are those of a parser built whole."""
    root = _Parser(prog="rlvc", description=_DESCRIPTION)
    sub = root.add_subparsers(dest="command", metavar="COMMAND", action=_Commands)
    for name, (_, help_line) in _COMMANDS.items():
        sub.add_parser(name, help=help_line)
    return root


def _overrides(args) -> dict:
    """The settings given on the command line, by Config key."""
    return {name[4:]: v for name, v in vars(args).items() if name.startswith("cfg_")}


def _resolve(args) -> cfgmod.Config:
    return cfgmod.resolve_config(args.preset, args.config, _overrides(args))


def _require(args, name: str) -> str:
    value = getattr(args, name.replace("-", "_"), None)
    if not value:
        raise UsageError(f"--{name} is required for this command")
    return value


def _in_space(cfg: cfgmod.Config, raw: datamod.ZslDataset) -> datamod.ZslDataset:
    """The dataset in the feature space that cfg.standardize picks."""
    return datamod.standardize(raw) if cfg.standardize else raw


def _trained(args):
    """The raw dataset of --data and `gan.load_generator` of --generator on it.
    A flag for a setting the generator file records must give the file's value."""
    cfg = _resolve(args)
    data_dir, path = _require(args, "data"), _require(args, "generator")
    raw = datamod.load_dataset(data_dir)
    gen, trained, epoch = gan.load_generator(path, raw.feat_dim, raw.sem_dim, cfg)
    given = _overrides(args)
    for key in gan.GENERATOR_KEYS:
        if key in given and getattr(cfg, key) != getattr(trained, key):
            raise ConfigurationError(
                f"{path} was trained with {cfgmod.format_config(trained, [key]).strip()}; "
                f"--{key.replace('_', '-')} {given[key]} disagrees"
            )
    return raw, gen, trained, epoch


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
    save_reward(path, model, cfgmod.format_config(cfg, ["standardize"]))
    print(f"reward model: train accuracy {acc:.4f}, saved to {path}")
    return 0


def cmd_train(args) -> int:
    cfg = _resolve(args)
    data_dir = _require(args, "data")
    out = _require(args, "out")
    ds = _in_space(cfg, datamod.load_dataset(data_dir))
    model = None
    if cfg.use_rl:  # the reward model must score rows of this run's feature space
        model, settings = load_reward(_require(args, "reward"))
        fit, space = settings["standardize"], cfgmod.format_config(cfg, ["standardize"])
        if f"standardize = {fit}\n" != space:
            raise ConfigurationError(f"{args.reward} was fit with standardize = {fit}; "
                                     f"this run has {space.strip()}")
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
    try:
        _threads()
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("no command given; see --help")
        if args.print_config:
            sys.stdout.write(cfgmod.format_config(_resolve(args)))
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
