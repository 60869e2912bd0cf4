"""Config precedence and the command-line pipeline, run in process."""

from __future__ import annotations

import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from rlvc import cli, config, trainer
from rlvc.data import (
    CACHE_NAME, ZslDataset, export_features, load_dataset, make_synthetic, save_dataset,
    standardize,
)
from rlvc.errors import ConfigurationError, UsageError
from rlvc.evaluate import harmonic_mean, synthesize_unseen
from rlvc.nets import GENERATOR_TAG, REWARD_TAG, param_count, save_checkpoint
from rlvc.reward import pretrain_reward
from rlvc.seeding import stream_rng


def test_defaults_pin_training_constants():
    cfg = config.Config()
    assert cfg.epochs == 20
    assert cfg.rl_start_epoch == 5
    assert cfg.lr_adv == 5e-4
    assert cfg.lr_rl == 5e-5
    assert cfg.lambda_pd == 5.0
    assert cfg.lambda_gp == 10.0
    assert cfg.ema_alpha == 0.9
    assert cfg.adam_beta1 == 0.5
    assert cfg.adam_beta2 == 0.999
    assert (cfg.diffusion_steps, cfg.beta_min, cfg.beta_max) == (4, 0.1, 0.4)


@pytest.mark.parametrize(
    "name,epochs,rl_start,lam,per_class",
    [
        ("cub", 500, 30, 20.0, 400),
        ("sun", 300, 30, 1.0, 400),
        ("awa2", 30, 7, 5.0, 4000),
        ("synthetic", 40, 5, 5.0, 100),
    ],
)
def test_presets_pinned(name, epochs, rl_start, lam, per_class):
    cfg = config.resolve_config(preset=name)
    assert cfg.epochs == epochs
    assert cfg.rl_start_epoch == rl_start
    assert cfg.lambda_pd == lam
    assert cfg.synth_per_class == per_class


def test_synthetic_preset_diffusion_override():
    cfg = config.resolve_config(preset="synthetic")
    assert cfg.diffusion_steps == 6
    assert cfg.beta_max == 0.9
    assert cfg.standardize is True
    assert cfg.eval_interval == 10


def test_precedence_chain(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("epochs = 7\nlambda_pd = 2.5\n")
    cfg = config.resolve_config(preset="synthetic", config_path=str(f),
                                overrides={"epochs": "9"})
    assert cfg.epochs == 9  # flag beats file
    assert cfg.lambda_pd == 2.5  # file beats preset
    assert cfg.beta_max == 0.9  # preset beats default
    assert cfg.lr_adv == 5e-4  # untouched default


def test_parse_value_errors():
    with pytest.raises(ConfigurationError, match="unknown config key"):
        config.parse_value("momentum", "0.9")
    with pytest.raises(ConfigurationError, match="epochs"):
        config.parse_value("epochs", "abc")
    with pytest.raises(ConfigurationError, match="ema_alpha"):
        config.parse_value("ema_alpha", "1.0")
    with pytest.raises(ConfigurationError, match="boolean"):
        config.parse_value("use_rl", "maybe")
    assert config.parse_value("use_rl", "off") is False
    assert config.parse_value("use_rl", "Yes") is True


def test_config_file_parsing(tmp_path):
    f = tmp_path / "a.cfg"
    f.write_text("# comment\n\nepochs = 3  # trailing note\nuse_cues=false\n")
    got = config.load_config_file(str(f))
    assert got == {"epochs": 3, "use_cues": False}

    bad = tmp_path / "b.cfg"
    bad.write_text("epochs = 3\nepochs 4\n")
    with pytest.raises(ConfigurationError, match=r"b\.cfg:2"):
        config.load_config_file(str(bad))


def test_unknown_preset_lists_choices():
    with pytest.raises(ConfigurationError, match="awa2"):
        config.resolve_config(preset="imagenet")


@pytest.mark.parametrize("preset", [None, "synthetic", "cub", "sun", "awa2"])
def test_format_config_round_trip(tmp_path, preset):
    cfg = config.resolve_config(preset=preset, overrides={"use_rl": "false"})
    text = config.format_config(cfg)
    lines = text.strip().splitlines()
    assert lines == sorted(lines)
    assert "use_rl = false" in lines
    assert f"standardize = {'true' if preset == 'synthetic' else 'false'}" in lines
    f = tmp_path / "echo.cfg"
    f.write_text(text)
    assert config.resolve_config(config_path=str(f)) == cfg


_TINY = [
    "--n-seen", "4", "--n-unseen", "2", "--feat-dim", "8", "--sem-dim", "4",
    "--samples-per-class", "10", "--semantic-cluster-size", "3",
]
_FAST = [
    "--epochs", "2", "--rl-start-epoch", "1", "--batch-size", "16",
    "--synth-per-class", "4", "--clf-epochs", "3", "--reward-epochs", "10",
]


def test_cli_no_command_is_usage_error(capsys):
    assert cli.main([]) == 1
    assert "usage error" in capsys.readouterr().err


def _whole_parser() -> cli._Parser:
    """The parser as it was built before each command's flags were added
    lazily: every command with all its flags, up front."""
    root = cli._Parser(prog="rlvc", description=cli._DESCRIPTION)
    sub = root.add_subparsers(dest="command", metavar="COMMAND")
    p = sub.add_parser("gen-synthetic", help="write a synthetic benchmark dataset")
    cli._add_common(p)
    p.add_argument("--force", action="store_true", help="overwrite an existing dataset dir")
    p = sub.add_parser("pretrain-reward", help="train and freeze the reward model")
    cli._add_common(p)
    p.add_argument("--data", metavar="DIR", help="dataset directory")
    p = sub.add_parser("train", help="run the full training schedule")
    cli._add_common(p)
    p.add_argument("--data", metavar="DIR", help="dataset directory")
    p.add_argument("--reward", metavar="PATH", help="frozen reward-model checkpoint")
    p.add_argument("--no-rl", action="store_true", help="disable the policy-gradient phase")
    p.add_argument("--no-cues", action="store_true", help="disable prototype distillation")
    for name, help_line in (("synthesize", "synthesize unseen-class features to a file"),
                            ("eval", "evaluate a trained generator (CZSL and GZSL)")):
        p = sub.add_parser(name, help=help_line)
        cli._add_common(p)
        p.add_argument("--data", metavar="DIR", help="dataset directory")
        p.add_argument("--generator", metavar="PATH", help="generator checkpoint")
    return root


@pytest.mark.parametrize("argv", [["--help"]] + [[c, "--help"] for c in cli._COMMANDS])
def test_cli_help_is_the_whole_parsers(argv, capsys):
    with pytest.raises(SystemExit) as done:
        cli.main(argv)
    assert done.value.code == 0
    lazy = capsys.readouterr().out
    with pytest.raises(SystemExit):
        _whole_parser().parse_args(argv)
    assert lazy == capsys.readouterr().out
    assert "usage: rlvc" in lazy


@pytest.mark.parametrize("argv", [
    ["bogus"],  # an unknown command
    ["eval", "--force"],  # another command's flag
    ["--seed", "1", "eval"],  # a flag before the command
    ["train", "--no-rl", "--bogus"],
])
def test_cli_bad_command_lines_say_what_the_whole_parser_says(argv, capsys):
    assert cli.main(argv) == 1
    message = capsys.readouterr().err
    with pytest.raises(UsageError) as whole:
        _whole_parser().parse_args(argv)
    assert message == f"usage error: {whole.value}\n"


def test_cli_parse_builds_only_the_named_commands_flags(monkeypatch):
    built, add_flags = [], cli._add_flags
    monkeypatch.setattr(cli, "_add_flags", lambda command, p: (built.append(command),
                                                                 add_flags(command, p)))
    args = cli.build_parser().parse_args(["eval", "--data", "d", "--synth-per-class", "9"])
    assert built == ["eval"] and args.cfg_synth_per_class == "9"


def test_cli_missing_out_flag(capsys):
    assert cli.main(["gen-synthetic"]) == 1
    assert "--out is required" in capsys.readouterr().err


def test_cli_unknown_flag():
    assert cli.main(["gen-synthetic", "--bogus", "1"]) == 1


def test_cli_bad_flag_value(tmp_path, capsys):
    code = cli.main(["gen-synthetic", "--out", str(tmp_path / "d"),
                     "--epochs", "abc"])
    assert code == 2
    assert "epochs" in capsys.readouterr().err


def test_cli_rejects_an_adam_beta_outside_the_unit_interval(capsys):
    for flag in ("--adam-beta1", "--adam-beta2"):
        assert cli.main(["train", "--print-config", flag, "1.0"]) == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
    assert cli.main(["train", "--print-config", "--adam-beta1", "0.0"]) == 0


@pytest.mark.parametrize(
    "command,flag,value",
    [
        ("gen-synthetic", "--seed", "-1"),
        ("pretrain-reward", "--reward-batch", "0"),
        ("pretrain-reward", "--reward-epochs", "-1"),
        ("pretrain-reward", "--reward-lr", "0"),
        ("eval", "--clf-batch", "0"),
        ("eval", "--clf-batch", "-5"),
        ("eval", "--clf-epochs", "-1"),
        ("eval", "--clf-lr", "-0.1"),
        ("train", "--hidden-mult", "0"),
        ("train", "--temb-dim", "-1"),
        ("train", "--eval-interval", "-1"),
        ("train", "--checkpoint-interval", "-1"),
        ("gen-synthetic", "--diffusion-steps", "0"),
        ("synthesize", "--beta-min", "0"),
        ("synthesize", "--beta-max", "1.0"),
        ("synthesize", "--beta-min", "0.5"),  # above the default beta_max 0.4
        ("train", "--ema-alpha", "1.0"),
        ("eval", "--standardize", "maybe"),
    ],
)
def test_cli_rejects_an_out_of_range_value_when_resolving(command, flag, value, capsys):
    assert cli.main([command, "--print-config", flag, value]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen-synthetic", "pretrain-reward", "train", "synthesize",
                                     "eval"])
def test_cli_a_bare_boolean_flag_means_true(command, capsys):
    assert cli.main([command, "--print-config", "--standardize", "--seed", "3",
                     "--use-cues", "false"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert {"standardize = true", "seed = 3", "use_cues = false"} <= set(lines)


@pytest.mark.parametrize("slope", ["1.5", "-0.1", "-0.0"])
def test_cli_train_refuses_a_leaky_slope_outside_the_exact_range(slope, tmp_path, capsys):
    code = cli.main(["train", "--data", str(tmp_path / "data"), "--out", str(tmp_path / "run"),
                     "--no-rl", "--leaky-slope", slope])
    assert code == 2
    assert "leaky_slope must be in [0, 1] and not -0.0" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("slope", ["0", "1"])
def test_cli_train_and_eval_run_at_either_end_of_the_slope_range(slope, tmp_path, capsys):
    data, run = str(tmp_path / "data"), str(tmp_path / "run")
    flags = _FAST + ["--leaky-slope", slope]
    assert cli.main(["gen-synthetic", "--out", data] + _TINY) == 0
    assert cli.main(["train", "--data", data, "--out", run, "--no-rl"] + flags) == 0
    assert cli.main(["eval", "--data", data, "--generator", f"{run}/generator.ckpt"] + flags) == 0
    assert "acc=" in capsys.readouterr().out.strip().splitlines()[-1]


def test_cli_unknown_preset(tmp_path):
    assert cli.main(["gen-synthetic", "--out", str(tmp_path / "d"),
                     "--preset", "imagenet"]) == 2


def test_cli_thread_env_guard(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RLVC_THREADS", "abc")
    assert cli.main(["gen-synthetic", "--out", str(tmp_path / "d")] + _TINY) == 1
    assert "RLVC_THREADS" in capsys.readouterr().err
    monkeypatch.setenv("RLVC_THREADS", "-2")
    assert cli.main(["gen-synthetic", "--out", str(tmp_path / "d")] + _TINY) == 1
    monkeypatch.setenv("RLVC_THREADS", "0")
    assert cli.main(["gen-synthetic", "--out", str(tmp_path / "d")] + _TINY) == 0


_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("threads,want", [("1", "1"), ("3", "3"), ("0", "4")])
def test_rlvc_threads_overrides_inherited_blas_thread_counts(threads, want):
    # The variables must be set before numpy's first import, so this runs
    # in a fresh interpreter that inherits a count of 4 for each.
    env = dict(os.environ, RLVC_THREADS=threads, **dict.fromkeys(_BLAS_VARS, "4"))
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    code = f"import os, rlvc.cli; print(*(os.environ[v] for v in {_BLAS_VARS!r}))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.split() == [want] * 3


def test_cli_gen_synthetic_force_semantics(tmp_path, capsys):
    out = str(tmp_path / "ds")
    assert cli.main(["gen-synthetic", "--out", out] + _TINY) == 0
    assert "wrote" in capsys.readouterr().out
    assert cli.main(["gen-synthetic", "--out", out] + _TINY) == 2
    assert "--force" in capsys.readouterr().err
    assert cli.main(["gen-synthetic", "--out", out, "--force"] + _TINY) == 0


def test_cli_gen_synthetic_deterministic(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(["gen-synthetic", "--out", a] + _TINY) == 0
    assert cli.main(["gen-synthetic", "--out", b] + _TINY) == 0
    for name in ("features.csv", "labels.csv", "prototypes.csv", "classes.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_cli_missing_data_dir(tmp_path, capsys):
    code = cli.main(["pretrain-reward", "--data", str(tmp_path / "nowhere"),
                     "--out", str(tmp_path / "r")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_cli_print_config(capsys):
    assert cli.main(["train", "--preset", "synthetic", "--print-config",
                     "--epochs", "9"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert "epochs = 9" in lines
    assert "beta_max = 0.9" in lines
    assert "standardize = true" in lines
    assert lines == sorted(lines)


def test_cli_train_refuses_a_run_larger_than_physical_memory(tmp_path, monkeypatch, capsys):
    data, run = str(tmp_path / "data"), tmp_path / "run"
    assert cli.main(["gen-synthetic", "--out", data] + _TINY) == 0
    cfg = config.resolve_config(overrides={"feat_dim": 8, "sem_dim": 4, "use_rl": False})
    need = 8 * trainer.training_floats(8, 4, cfg)
    monkeypatch.setattr(trainer, "_physical_memory", lambda: need - 1)
    capsys.readouterr()
    code = cli.main(["train", "--data", data, "--out", str(run), "--no-rl"] + _FAST)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert f"{need:,} bytes" in err and f"{need - 1:,} bytes of physical memory" in err
    assert not (run / "metrics.csv").exists()
    monkeypatch.setattr(trainer, "_physical_memory", lambda: need)
    assert cli.main(["train", "--data", data, "--out", str(run), "--no-rl"] + _FAST) == 0
    assert (run / "metrics.csv").exists()


def test_cli_full_pipeline(tmp_path, capsys):
    data = str(tmp_path / "data")
    run = str(tmp_path / "run")
    synth = str(tmp_path / "synth.csv")

    assert cli.main(["gen-synthetic", "--out", data] + _TINY) == 0
    assert cli.main(["pretrain-reward", "--data", data, "--out", run] + _FAST) == 0
    out = capsys.readouterr().out
    assert "train accuracy" in out

    code = cli.main(["train", "--data", data, "--out", run,
                     "--reward", f"{run}/reward.ckpt",
                     "--eval-interval", "2"] + _FAST)
    assert code == 0
    out = capsys.readouterr().out
    assert "final eval" in out
    assert (tmp_path / "run" / "metrics.csv").exists()
    assert (tmp_path / "run" / "generator.ckpt").exists()

    assert cli.main(["synthesize", "--data", data, "--out", synth,
                     "--generator", f"{run}/generator.ckpt"] + _FAST) == 0
    assert "8 synthesized rows" in capsys.readouterr().out
    text = (tmp_path / "synth.csv").read_text()
    assert text.startswith("# features n=8 d=8\n")

    assert cli.main(["eval", "--data", data,
                     "--generator", f"{run}/generator.ckpt"] + _FAST) == 0
    line = capsys.readouterr().out.strip()
    parts = dict(kv.split("=") for kv in line.split())
    u, s, h = float(parts["u"]), float(parts["s"]), float(parts["h"])
    assert h == pytest.approx(harmonic_mean(s, u), abs=1e-5)
    assert 0.0 <= float(parts["acc"]) <= 1.0


def test_cli_and_library_train_write_the_same_metrics(tmp_path, capsys):
    # with these settings the logged eval numbers move with every head and
    # synthesis setting, so the CLI cannot pass the library other values
    flags = _TINY + [
        "--preset", "synthetic", "--seed", "3", "--n-unseen", "3",
        "--epochs", "8", "--rl-start-epoch", "1", "--batch-size", "16",
        "--eval-interval", "4", "--synth-per-class", "4", "--clf-epochs", "3",
        "--clf-lr", "0.05", "--reward-epochs", "10",
    ]
    data, run = str(tmp_path / "data"), str(tmp_path / "cli")
    assert cli.main(["gen-synthetic", "--out", data] + flags) == 0
    assert cli.main(["pretrain-reward", "--data", data, "--out", run] + flags) == 0
    assert cli.main(["train", "--data", data, "--out", run,
                     "--reward", f"{run}/reward.ckpt"] + flags) == 0
    capsys.readouterr()
    assert cli.main(["train", "--print-config"] + flags) == 0
    resolved = tmp_path / "resolved.cfg"
    resolved.write_text(capsys.readouterr().out)

    cfg = config.resolve_config(config_path=str(resolved))
    assert cfg.standardize
    ds = standardize(make_synthetic(cfg))
    train_x, train_y = ds.train
    seen = sorted(int(c) for c in ds.seen_classes)
    rows = np.asarray([seen.index(int(c)) for c in train_y])
    rm = pretrain_reward(train_x, rows, len(seen), cfg, stream_rng(cfg.seed, "reward"))
    trainer.train(ds, rm, cfg, out_dir=tmp_path / "lib")
    for name in ("metrics.csv", "generator.ckpt"):
        assert (tmp_path / "lib" / name).read_bytes() == (tmp_path / "cli" / name).read_bytes()


def test_cli_train_without_rl_needs_no_reward(tmp_path, capsys):
    data = str(tmp_path / "data")
    run = str(tmp_path / "run")
    assert cli.main(["gen-synthetic", "--out", data] + _TINY) == 0
    code = cli.main(["train", "--data", data, "--out", run,
                     "--no-rl", "--no-cues"] + _FAST)
    assert code == 0
    assert "final critic loss" in capsys.readouterr().out
    lines = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
    header = lines[0].split(",")
    row = dict(zip(header, lines[-1].split(",")))
    assert row["raw_reward_mean"] == "nan"
    assert row["pd_loss"] == "nan"


def test_cli_generator_dim_mismatch(tmp_path, capsys):
    data_a = str(tmp_path / "a")
    data_b = str(tmp_path / "b")
    run = str(tmp_path / "run")
    assert cli.main(["gen-synthetic", "--out", data_a] + _TINY) == 0
    assert cli.main(["gen-synthetic", "--out", data_b, "--n-seen", "4",
                     "--n-unseen", "2", "--feat-dim", "12", "--sem-dim", "4",
                     "--samples-per-class", "10",
                     "--semantic-cluster-size", "3"]) == 0
    assert cli.main(["train", "--data", data_a, "--out", run,
                     "--no-rl", "--no-cues"] + _FAST) == 0
    capsys.readouterr()
    code = cli.main(["eval", "--data", data_b,
                     "--generator", f"{run}/generator.ckpt"] + _FAST)
    assert code == 2
    assert "do not match" in capsys.readouterr().err


def test_cli_synthesize_rebuilds_a_non_default_shape(tmp_path):
    shape = ["--hidden-mult", "2", "--temb-dim", "8", "--leaky-slope", "0.1"]
    flags = _TINY + _FAST + shape + ["--use-rl", "false"]
    cfg = config.resolve_config(
        overrides={k[2:].replace("-", "_"): v for k, v in zip(flags[::2], flags[1::2])}
    )
    data, run = str(tmp_path / "data"), tmp_path / "run"
    assert cli.main(["gen-synthetic", "--out", data] + flags) == 0
    ds = load_dataset(data)
    result = trainer.train(ds, None, cfg, out_dir=run)
    assert result.generator.net.layer_dims == [8 + 4 + 8 + 8, 16, 16, 8]
    synth = tmp_path / "cli.csv"
    assert cli.main(["synthesize", "--data", data, "--out", str(synth),
                     "--generator", f"{run}/generator.ckpt"] + flags) == 0
    feats, labels = synthesize_unseen(result.generator, ds.prototypes, ds.unseen_classes,
                                      cfg.synth_per_class, cfg.schedule(),
                                      stream_rng(cfg.seed, "eval", cfg.epochs - 1))
    export_features(feats, labels, tmp_path / "lib.csv")
    assert synth.read_bytes() == (tmp_path / "lib.csv").read_bytes()


@pytest.mark.parametrize("standardized", [True, False], ids=["standardized", "raw"])
def test_cli_synthesize_writes_the_dataset_units(tmp_path, standardized):
    flags = _TINY + _FAST + ["--use-rl", "false", "--standardize", str(standardized).lower()]
    cfg = config.resolve_config(
        overrides={k[2:].replace("-", "_"): v for k, v in zip(flags[::2], flags[1::2])}
    )
    data, run = str(tmp_path / "data"), tmp_path / "run"
    assert cli.main(["gen-synthetic", "--out", data] + flags) == 0
    raw = load_dataset(data)
    ds = standardize(raw) if standardized else raw
    result = trainer.train(ds, None, cfg, out_dir=run)
    synth = tmp_path / "cli.csv"
    assert cli.main(["synthesize", "--data", data, "--out", str(synth),
                     "--generator", f"{run}/generator.ckpt"] + flags) == 0
    feats, labels = synthesize_unseen(result.generator, ds.prototypes, ds.unseen_classes,
                                      cfg.synth_per_class, cfg.schedule(),
                                      stream_rng(cfg.seed, "eval", cfg.epochs - 1))
    if standardized:  # back to the units of the files, by the train split's stats
        train_x = raw.train[0]
        mu, sd = train_x.mean(axis=0), train_x.std(axis=0)
        assert np.all(sd > 0) and not np.all(sd == 1.0)
        feats = np.array([row * sd + mu for row in feats])
    export_features(feats, labels, tmp_path / "lib.csv")
    assert synth.read_bytes() == (tmp_path / "lib.csv").read_bytes()


def test_cli_train_refuses_a_multi_layer_reward_checkpoint(tmp_path, capsys):
    data, run = str(tmp_path / "data"), tmp_path / "run"
    assert cli.main(["gen-synthetic", "--out", data] + _TINY) == 0
    d, n_seen = 8, 4
    rng = np.random.default_rng(0)
    run.mkdir()
    dims = [d, n_seen, n_seen]
    save_checkpoint(run / "reward.ckpt", REWARD_TAG, dims, rng.normal(size=param_count(dims)))
    code = cli.main(["train", "--data", data, "--out", str(run),
                     "--reward", str(run / "reward.ckpt")] + _FAST)
    assert code == 2
    assert "one linear layer" in capsys.readouterr().err


def _one_role_dataset(role: str) -> ZslDataset:
    """Two classes, both of `role`: rows a seen-only dataset needs (train
    and test_seen), or an unseen-only one (test_unseen)."""
    splits = ["train", "train", "test_seen"] if role == "seen" else ["test_unseen"] * 3
    return ZslDataset(np.eye(3), [0, 1, 0], splits, np.eye(2), [role, role])


@pytest.mark.parametrize("role, missing", [("seen", "unseen"), ("unseen", "seen")])
def test_cli_refuses_a_dataset_without_seen_or_unseen_classes(tmp_path, monkeypatch, capsys,
                                                              role, missing):
    # Unrefused, a seen-only dataset crashes `train --eval-interval 1` and an
    # unseen-only one `pretrain-reward`, each with a traceback (exit 1).
    data = tmp_path / "data"
    with monkeypatch.context() as m:  # write and cache it as a load once accepted it
        m.setattr(ZslDataset, "validate", lambda self: None)
        save_dataset(_one_role_dataset(role), data)
        load_dataset(data)
    commands = [
        ["pretrain-reward", "--out", str(tmp_path / "run")],
        ["train", "--no-rl", "--eval-interval", "1", "--out", str(tmp_path / "run")],
        ["eval", "--generator", str(tmp_path / "none.ckpt")],
        ["synthesize", "--generator", str(tmp_path / "none.ckpt"),
         "--out", str(tmp_path / "out.csv")],
    ]
    for cache in ("warm", "cold"):
        assert (data / CACHE_NAME).is_file() == (cache == "warm")
        for command in commands:
            assert cli.main([*command, "--data", str(data)] + _FAST) == 2, (cache, command)
            assert f"error: dataset has no {missing} class" in capsys.readouterr().err
        (data / CACHE_NAME).unlink(missing_ok=True)


@pytest.mark.parametrize("flags", [["--cue-loss", "pd"], ["--raw-reward"]],
                         ids=["cue-loss", "raw-reward"])
def test_cli_refuses_the_removed_cue_loss_and_raw_reward_flags(flags, capsys):
    assert cli.main(["train", "--print-config", *flags]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["cue_loss = pd", "raw_reward = false"])
def test_cli_refuses_a_config_file_naming_a_removed_key(line, tmp_path, capsys):
    f = tmp_path / "run.cfg"
    f.write_text(f"epochs = 3\n{line}\n")
    assert cli.main(["train", "--print-config", "--config", str(f)]) == 2
    assert f"unknown config key {line.split()[0]!r}" in capsys.readouterr().err


_SHAPE = ["--hidden-mult", "2", "--temb-dim", "8", "--leaky-slope", "0.1"]
_EVAL_TIME = ["--seed", "0", "--synth-per-class", "4", "--clf-epochs", "3"]


@pytest.fixture(scope="module")
def shaped_run(tmp_path_factory):
    """A `--preset synthetic` run at a non-default network shape: its data
    dir, its generator file, a v1 copy of that file, and the eval line the
    library logged at the last epoch."""
    root = tmp_path_factory.mktemp("shaped")
    data, run = root / "data", root / "run"
    flags = _TINY + _FAST + _SHAPE + ["--eval-interval", "2", "--use-rl", "false"]
    assert cli.main(["gen-synthetic", "--preset", "synthetic", "--out", str(data)] + flags) == 0
    cfg = config.resolve_config(
        "synthetic", overrides={k[2:].replace("-", "_"): v for k, v in zip(flags[::2], flags[1::2])}
    )
    result = trainer.train(standardize(load_dataset(data)), None, cfg, out_dir=run)
    dims = result.generator.net.layer_dims
    v1 = struct.pack(f"<4sI4sI{len(dims)}I", b"RLVC", 1, GENERATOR_TAG, len(dims), *dims)
    (run / "v1.ckpt").write_bytes(v1 + result.generator.net.flat.tobytes())
    return data, run, result.reports[cfg.epochs - 1].format_line()


def test_cli_eval_of_the_final_checkpoint_prints_the_logged_row(shaped_run, capsys):
    data, run, logged = shaped_run
    assert cli.main(["eval", "--preset", "synthetic", "--data", str(data), "--generator",
                     str(run / "generator.ckpt")] + _EVAL_TIME) == 0
    assert capsys.readouterr().out == logged + "\n"


@pytest.mark.parametrize(
    "flags, ckpt, code, expected",
    [
        (["--preset", "synthetic"], "generator.ckpt", 0, None),  # no shape flags
        ([], "generator.ckpt", 0, None),  # no preset
        (["--preset", "synthetic", *_SHAPE, "--standardize"], "generator.ckpt", 0, None),
        (["--preset", "synthetic", "--diffusion-steps", "8"], "generator.ckpt", 2,
         "trained with diffusion_steps = 6; --diffusion-steps 8 disagrees"),
        (["--leaky-slope", "0.2"], "generator.ckpt", 2,
         "trained with leaky_slope = 0.1; --leaky-slope 0.2 disagrees"),
        (["--standardize", "false"], "generator.ckpt", 2,
         "trained with standardize = true; --standardize false disagrees"),
        (["--preset", "synthetic"], "v1.ckpt", 2, "unsupported checkpoint version 1"),
    ],
    ids=["no shape flags", "no preset", "agreeing flags", "other diffusion steps",
         "other slope", "other feature space", "v1 file"],
)
@pytest.mark.parametrize("command", ["eval", "synthesize"])
def test_cli_reads_the_generator_settings_from_the_file(shaped_run, tmp_path, capsys, command,
                                                        flags, ckpt, code, expected):
    data, run, logged = shaped_run
    out = ["--out", str(tmp_path / "synth.csv")] if command == "synthesize" else []
    argv = [command, "--data", str(data), "--generator", str(run / ckpt), *out]
    assert cli.main(argv + _EVAL_TIME + flags) == code
    stdout, stderr = capsys.readouterr()
    if code:
        assert expected in stderr and stdout == ""
    elif command == "eval":
        assert stdout == logged + "\n"


def test_cli_train_refuses_a_reward_file_from_the_other_feature_space(tmp_path, capsys):
    data, run = str(tmp_path / "data"), str(tmp_path / "run")
    assert cli.main(["gen-synthetic", "--out", data] + _TINY) == 0
    for fit, train in (("false", "true"), ("true", "false")):
        assert cli.main(["pretrain-reward", "--data", data, "--out", run,
                         "--standardize", fit] + _FAST) == 0
        capsys.readouterr()
        assert cli.main(["train", "--data", data, "--out", run, "--reward", f"{run}/reward.ckpt",
                         "--standardize", train] + _FAST) == 2
        err = capsys.readouterr().err
        assert f"was fit with standardize = {fit}; this run has standardize = {train}" in err
    assert cli.main(["train", "--data", data, "--out", run, "--reward", f"{run}/reward.ckpt",
                     "--standardize"] + _FAST) == 0


@pytest.mark.parametrize("flags, use_rl, use_cues", [
    (["--no-rl", "--use-rl", "true"], "true", "true"),
    (["--use-rl", "true", "--no-rl"], "false", "true"),
    (["--no-cues", "--use-cues"], "true", "true"),
    (["--use-cues", "--no-cues", "--no-rl"], "false", "false"),
])
def test_cli_no_rl_and_no_cues_are_forms_of_use_false_and_the_later_flag_wins(
        flags, use_rl, use_cues, capsys):
    assert cli.main(["train", "--print-config"] + flags) == 0
    lines = set(capsys.readouterr().out.splitlines())
    assert {f"use_rl = {use_rl}", f"use_cues = {use_cues}"} <= lines


@pytest.mark.parametrize("edit, shown", [
    (lambda text: text + "bogus = 1\n", "'bogus': '1'"),
    (lambda text: "", "{}"),
    (lambda text: text.replace("false", "maybe"), "'standardize': 'maybe'"),
])
def test_cli_train_refuses_a_reward_file_whose_settings_are_not_standardize_alone(
        edit, shown, tmp_path, capsys):
    data, run = str(tmp_path / "data"), tmp_path / "run"
    assert cli.main(["gen-synthetic", "--out", data] + _TINY) == 0
    assert cli.main(["pretrain-reward", "--data", data, "--out", str(run)] + _FAST) == 0
    path = run / "reward.ckpt"
    blob = path.read_bytes()
    text = b"standardize = false\n"
    at = blob.index(text)
    new = edit(text.decode()).encode()
    path.write_bytes(blob[: at - 4] + struct.pack("<I", len(new)) + new + blob[at + len(text):])
    capsys.readouterr()
    assert cli.main(["train", "--data", data, "--out", str(run), "--reward", str(path)]
                    + _FAST) == 2
    err = capsys.readouterr().err
    assert f"reward checkpoint {path} records" in err and shown in err
