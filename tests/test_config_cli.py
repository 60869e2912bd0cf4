"""Config precedence and the command-line pipeline, run in process."""

from __future__ import annotations

import dataclasses
import importlib.util
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

from rlvc import cli, config, gan, nets, trainer
from rlvc.data import (
    CACHE_NAME, ZslDataset, export_features, fingerprint, load_dataset, make_synthetic,
    save_dataset, standardize,
)
from rlvc.errors import ConfigurationError
from rlvc.evaluate import harmonic_mean, synthesize_unseen
from rlvc.gan import GENERATOR_TAG
from rlvc.nets import param_count, save_checkpoint
from rlvc.reward import REWARD_TAG, pretrain_reward
from rlvc.seeding import stream_rng


def test_defaults_pin_training_constants():
    cfg = config.Config()
    assert cfg.epochs == 20
    assert cfg.rl_start_epoch == 5
    assert cfg.lr_adv == 5e-4
    assert cfg.lr_rl == 5e-5
    assert cfg.lambda_pd == 5.0
    assert cfg.lambda_gp == 10.0
    assert cfg.adam_beta1 == 0.5
    assert cfg.adam_beta2 == 0.999
    assert (cfg.diffusion_steps, cfg.beta_min, cfg.beta_max) == (4, 0.1, 0.4)


@pytest.mark.parametrize(
    "name,epochs,rl_start,lam,per_class,shape",
    [
        ("cub", 500, 30, 20.0, 400, (150, 50, 2048, 312, 60)),
        ("sun", 300, 30, 1.0, 400, (645, 72, 2048, 102, 20)),
        ("awa2", 30, 7, 5.0, 4000, (40, 10, 2048, 85, 60)),
        ("synthetic", 40, 5, 5.0, 100, (20, 5, 32, 16, 60)),
    ],
)
def test_presets_pinned(name, epochs, rl_start, lam, per_class, shape, capsys):
    cfg = config.resolve_config(preset=name)
    assert cfg.epochs == epochs
    assert cfg.rl_start_epoch == rl_start
    assert cfg.lambda_pd == lam
    assert cfg.synth_per_class == per_class
    # the benchmark's shape, which gen-synthetic writes
    assert cli.main(["gen-synthetic", "--preset", name, "--print-config"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for key, value in zip(("n_seen", "n_unseen", "feat_dim", "sem_dim", "samples_per_class"),
                          shape):
        assert f"{key} = {value}" in lines


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
    with pytest.raises(ConfigurationError, match="adam_beta1"):
        config.parse_value("adam_beta1", "1.0")
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


def test_config_file_refuses_a_key_set_twice(tmp_path, capsys):
    f = tmp_path / "twice.cfg"
    f.write_text("epochs = 5\nseed = 1\n\n# again\nepochs = 7\n")
    with pytest.raises(ConfigurationError,
                       match=r"twice\.cfg:5: key 'epochs' is already set on line 1$"):
        config.load_config_file(str(f))
    assert cli.main(["train", "--print-config", "--config", str(f)]) == 2
    err = capsys.readouterr().err
    assert "'epochs'" in err and "line 1" in err and "twice.cfg:5" in err


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


def _flags(command: str, settings: dict) -> list[str]:
    """The flags of those of `settings` that `command` reads."""
    keys = {f.name for f in config.command_fields(command)}
    return [a for key, v in settings.items() if key in keys
            for a in ("--" + key.replace("_", "-"), v)]


def _settings(flags: list[str]) -> dict:
    """The Config keys and values of `--key value` flags."""
    return {k[2:].replace("-", "_"): v for k, v in zip(flags[::2], flags[1::2])}


_FAST_SETTINGS = {"epochs": "2", "rl_start_epoch": "1", "batch_size": "16",
                  "synth_per_class": "4", "clf_epochs": "3", "reward_epochs": "10"}
_FAST = {c: _flags(c, _FAST_SETTINGS) for c in cli._COMMANDS}  # each command's fast flags


def test_cli_no_command_is_usage_error(capsys):
    assert cli.main([]) == 1
    assert "usage error" in capsys.readouterr().err


# The flags of each command beyond those of the settings it reads.
_OWN_FLAGS = {
    "gen-synthetic": {"--out", "--force"},
    "pretrain-reward": {"--data", "--out"},
    "train": {"--data", "--out", "--reward", "--no-rl", "--no-cues"},
    "synthesize": {"--data", "--out", "--generator"},
    "eval": {"--data", "--generator"},
}


@pytest.mark.parametrize("argv", [["--help"]] + [[c, "--help"] for c in cli._COMMANDS])
def test_cli_help_is_the_whole_parsers(argv, capsys):
    with pytest.raises(SystemExit) as done:
        cli.main(argv)
    assert done.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: rlvc")
    if argv == ["--help"]:
        assert all(f"    {c}" in out and line in out for c, (_, line) in cli._COMMANDS.items())
        return
    command = argv[0]
    settings = {"--" + f.name.replace("_", "-") for f in config.command_fields(command)}
    listed = set(re.findall(r"^  (--[a-z0-9-]+)", out, flags=re.M))
    assert listed == settings | _OWN_FLAGS[command] | {"--config", "--preset", "--print-config"}


@pytest.mark.parametrize("argv", [
    ["bogus"],  # an unknown command
    ["eval", "--force"],  # another command's flag
    ["--seed", "1", "eval"],  # a flag before the command
    ["train", "--no-rl", "--bogus"],
])
def test_cli_bad_command_lines_say_what_the_whole_parser_says(argv, capsys):
    said = {
        "bogus": "argument COMMAND: invalid choice: 'bogus'",
        "eval --force": "unrecognized arguments: --force",
        "--seed 1 eval": "flags go after the command: --seed",
        "train --no-rl --bogus": "unrecognized arguments: --bogus",
    }
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith(f"usage error: {said[' '.join(argv)]}")


@pytest.mark.parametrize("argv", [
    ["eval", "--epochs", "3"],  # a setting eval does not read
    ["eval", "--checkpoint", "run/generator.ckpt"],  # not --checkpoint-interval
    ["eval", "--gen", "run/generator.ckpt"],  # not --generator
    ["eval", "--out", "run"],
])
def test_cli_eval_refuses_a_flag_it_would_ignore_or_abbreviate(argv, capsys):
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith(f"usage error: unrecognized arguments: {argv[1]}")


def test_cli_every_command_refuses_a_flag_for_a_setting_it_does_not_read(capsys):
    for command in cli._COMMANDS:
        keys = {f.name for f in config.command_fields(command)}
        for key in sorted({f.name for f in dataclasses.fields(config.Config)} - keys):
            flag = "--" + key.replace("_", "-")
            assert cli.main([command, "--print-config", flag, "1"]) == 1, (command, key)
            assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_cli_missing_out_flag(capsys):
    assert cli.main(["gen-synthetic"]) == 1
    assert "--out is required" in capsys.readouterr().err


def test_cli_unknown_flag():
    assert cli.main(["gen-synthetic", "--bogus", "1"]) == 1


def test_cli_bad_flag_value(tmp_path, capsys):
    code = cli.main(["gen-synthetic", "--out", str(tmp_path / "d"),
                     "--n-seen", "abc"])
    assert code == 2
    assert "n_seen" in capsys.readouterr().err


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
        ("train", "--diffusion-steps", "0"),
        ("train", "--beta-min", "0"),
        ("train", "--beta-max", "1.0"),
        ("train", "--beta-min", "0.5"),  # above the default beta_max 0.4
        ("train", "--lr-rl", "0"),
        ("train", "--standardize", "maybe"),
    ],
)
def test_cli_rejects_an_out_of_range_value_when_resolving(command, flag, value, capsys):
    assert cli.main([command, "--print-config", flag, value]) == 2
    err = capsys.readouterr().err
    assert "error" in err and flag[2:].replace("-", "_") in err  # the message names the setting


_FLOAT_FIELDS = [f for f in dataclasses.fields(config.Config) if isinstance(f.default, float)]


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("f", _FLOAT_FIELDS, ids=[f.name for f in _FLOAT_FIELDS])
def test_a_float_setting_must_be_finite_in_a_config_and_on_the_command_line(f, value, capsys):
    message = f"{f.name} must be finite, got {value}"
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        config.Config(**{f.name: float(value)})
    flag = f"--{f.name.replace('_', '-')}={value}"
    assert cli.main([f.metadata["commands"][0], "--print-config", flag]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# gen-synthetic, synthesize and eval read no boolean setting
@pytest.mark.parametrize("command", ["pretrain-reward", "train"])
def test_cli_a_bare_boolean_flag_means_true(command, capsys):
    assert cli.main([command, "--print-config", "--standardize", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert {"standardize = true", "seed = 3"} <= set(lines)


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
    at = ["--leaky-slope", slope]
    assert cli.main(["gen-synthetic", "--out", data] + _TINY) == 0
    assert cli.main(["train", "--data", data, "--out", run, "--no-rl"] + _FAST["train"] + at) == 0
    assert cli.main(["eval", "--data", data, "--generator", f"{run}/generator.ckpt"]
                    + _FAST["eval"]) == 0
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
    # in a fresh interpreter that inherits a count of 4 for each. The
    # package sets them, so a library caller's first import of any module
    # pins BLAS as the CLI's does.
    env = dict(os.environ, RLVC_THREADS=threads, **dict.fromkeys(_BLAS_VARS, "4"))
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    for module in ("rlvc.cli", "rlvc.trainer"):
        code = f"import os, {module}; print(*(os.environ[v] for v in {_BLAS_VARS!r}))"
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.split() == [want] * 3, module


def test_a_cli_run_loads_neither_numpy_ma_nor_logging(tmp_path):
    # np.unique imports numpy.ma on its first call, and logging is needed
    # only for the distillation loss's zero-norm warning. What a run loads
    # shows only in a fresh interpreter (pytest itself imports logging).
    runs = [
        ["gen-synthetic", "--out", "d"] + _TINY,
        ["pretrain-reward", "--data", "d", "--out", "o"] + _FAST["pretrain-reward"],
        ["train", "--data", "d", "--out", "o", "--reward", "o/reward.ckpt",
         "--eval-interval", "1"] + _FAST["train"],
        ["eval", "--data", "d", "--generator", "o/generator.ckpt"],
        ["synthesize", "--data", "d", "--generator", "o/generator.ckpt", "--out", "o/s.csv"],
    ]
    code = (f"import sys\nfrom rlvc import cli\nfor argv in {runs!r}:\n"
            f"    assert cli.main(argv) == 0, argv\n"
            f"print(*(m in sys.modules for m in ('numpy.ma', 'logging')))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False False"


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
    monkeypatch.setattr(nets, "physical_memory", lambda: need - 1)
    capsys.readouterr()
    code = cli.main(["train", "--data", data, "--out", str(run), "--no-rl"] + _FAST["train"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert f"{need:,} bytes" in err and f"{need - 1:,} bytes of physical memory" in err
    assert not (run / "metrics.csv").exists()
    monkeypatch.setattr(nets, "physical_memory", lambda: need)
    assert cli.main(["train", "--data", data, "--out", str(run), "--no-rl"] + _FAST["train"]) == 0
    assert (run / "metrics.csv").exists()


def test_cli_eval_and_synthesize_refuse_a_synthesis_larger_than_physical_memory(
        tmp_path, monkeypatch, capsys):
    data, run = str(tmp_path / "data"), str(tmp_path / "run")
    assert cli.main(["gen-synthetic", "--out", data] + _TINY) == 0
    assert cli.main(["train", "--data", data, "--out", run, "--no-rl"] + _FAST["train"]) == 0
    monkeypatch.setattr(nets, "physical_memory", lambda: 1000)
    trained = ["--data", data, "--generator", f"{run}/generator.ckpt", "--synth-per-class", "100"]
    synth = tmp_path / "synth.csv"
    for argv in (["eval", *trained], ["synthesize", *trained, "--out", str(synth)]):
        capsys.readouterr()
        assert cli.main(argv) == 2, argv[0]
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: synth_per_class = 100 ")
        assert "the 1,000 bytes of physical memory" in err
    assert f"needs a {8 * 2 * 100 * 8:,}-byte matrix" in err  # synthesize: 2 unseen classes, d = 8
    assert not synth.exists()


def test_cli_full_pipeline(tmp_path, capsys):
    data = str(tmp_path / "data")
    run = str(tmp_path / "run")
    synth = str(tmp_path / "synth.csv")

    assert cli.main(["gen-synthetic", "--out", data] + _TINY) == 0
    assert cli.main(["pretrain-reward", "--data", data, "--out", run]
                    + _FAST["pretrain-reward"]) == 0
    out = capsys.readouterr().out
    assert "train accuracy" in out

    code = cli.main(["train", "--data", data, "--out", run,
                     "--reward", f"{run}/reward.ckpt",
                     "--eval-interval", "2"] + _FAST["train"])
    assert code == 0
    out = capsys.readouterr().out
    assert "final eval" in out
    assert (tmp_path / "run" / "metrics.csv").exists()
    assert (tmp_path / "run" / "generator.ckpt").exists()

    assert cli.main(["synthesize", "--data", data, "--out", synth,
                     "--generator", f"{run}/generator.ckpt"] + _FAST["synthesize"]) == 0
    assert "8 synthesized rows" in capsys.readouterr().out
    text = (tmp_path / "synth.csv").read_text()
    assert text.startswith("# features n=8 d=8\n")

    assert cli.main(["eval", "--data", data,
                     "--generator", f"{run}/generator.ckpt"] + _FAST["eval"]) == 0
    line = capsys.readouterr().out.strip()
    parts = dict(kv.split("=") for kv in line.split())
    u, s, h = float(parts["u"]), float(parts["s"]), float(parts["h"])
    assert h == pytest.approx(harmonic_mean(s, u), abs=1e-5)
    assert 0.0 <= float(parts["acc"]) <= 1.0


def test_cli_and_library_train_write_the_same_metrics(tmp_path):
    # with these settings the logged eval numbers move with every head and
    # synthesis setting, so the CLI cannot pass the library other values
    settings = {**_settings(_TINY), "seed": "3", "n_unseen": "3", "epochs": "8",
                "rl_start_epoch": "1", "batch_size": "16", "eval_interval": "4",
                "synth_per_class": "4", "clf_epochs": "3", "clf_lr": "0.05",
                "reward_epochs": "10"}
    flags = {c: ["--preset", "synthetic", *_flags(c, settings)] for c in cli._COMMANDS}
    data, run = str(tmp_path / "data"), str(tmp_path / "cli")
    assert cli.main(["gen-synthetic", "--out", data] + flags["gen-synthetic"]) == 0
    assert cli.main(["pretrain-reward", "--data", data, "--out", run]
                    + flags["pretrain-reward"]) == 0
    assert cli.main(["train", "--data", data, "--out", run,
                     "--reward", f"{run}/reward.ckpt"] + flags["train"]) == 0

    cfg = config.resolve_config("synthetic", overrides=settings)
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
                     "--no-rl", "--no-cues"] + _FAST["train"])
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
                     "--no-rl", "--no-cues"] + _FAST["train"]) == 0
    capsys.readouterr()
    code = cli.main(["eval", "--data", data_b,
                     "--generator", f"{run}/generator.ckpt"] + _FAST["eval"])
    assert code == 2
    assert "do not match" in capsys.readouterr().err


def test_cli_synthesize_rebuilds_a_non_default_shape(tmp_path):
    shape = ["--hidden-mult", "2", "--temb-dim", "8", "--leaky-slope", "0.1"]
    cfg = config.resolve_config(
        overrides={**_settings(_TINY + shape), **_FAST_SETTINGS, "use_rl": "false"}
    )
    data, run = str(tmp_path / "data"), tmp_path / "run"
    assert cli.main(["gen-synthetic", "--out", data] + _TINY) == 0
    ds = load_dataset(data)
    result = trainer.train(ds, None, cfg, out_dir=run)
    assert result.generator.net.layer_dims == [8 + 4 + 8 + 8, 16, 16, 8]
    synth = tmp_path / "cli.csv"
    assert cli.main(["synthesize", "--data", data, "--out", str(synth),
                     "--generator", f"{run}/generator.ckpt"] + _FAST["synthesize"]) == 0
    feats, labels = synthesize_unseen(result.generator, ds.prototypes, ds.unseen_classes,
                                      cfg.synth_per_class, cfg.schedule(),
                                      stream_rng(cfg.seed, "eval", cfg.epochs - 1))
    export_features(feats, labels, tmp_path / "lib.csv")
    assert synth.read_bytes() == (tmp_path / "lib.csv").read_bytes()


@pytest.mark.parametrize("standardized", [True, False], ids=["standardized", "raw"])
def test_cli_synthesize_writes_the_dataset_units(tmp_path, standardized):
    space = ["--standardize", str(standardized).lower()]
    cfg = config.resolve_config(
        overrides={**_settings(_TINY + space), **_FAST_SETTINGS, "use_rl": "false"}
    )
    data, run = str(tmp_path / "data"), tmp_path / "run"
    assert cli.main(["gen-synthetic", "--out", data] + _TINY) == 0
    raw = load_dataset(data)
    ds = standardize(raw) if standardized else raw
    result = trainer.train(ds, None, cfg, out_dir=run)
    synth = tmp_path / "cli.csv"
    assert cli.main(["synthesize", "--data", data, "--out", str(synth),
                     "--generator", f"{run}/generator.ckpt"] + _FAST["synthesize"]) == 0
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
                     "--reward", str(run / "reward.ckpt")] + _FAST["train"])
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
            assert cli.main([*command, "--data", str(data)] + _FAST[command[0]]) == 2, (
                cache, command)
            assert f"error: dataset has no {missing} class" in capsys.readouterr().err
        (data / CACHE_NAME).unlink(missing_ok=True)


@pytest.mark.parametrize("flags", [["--cue-loss", "pd"], ["--raw-reward"], ["--ema-alpha", "0.9"]],
                         ids=["cue-loss", "raw-reward", "ema-alpha"])
def test_cli_refuses_the_removed_cue_loss_and_raw_reward_flags(flags, capsys):
    assert cli.main(["train", "--print-config", *flags]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["cue_loss = pd", "raw_reward = false", "ema_alpha = 0.9"])
def test_cli_refuses_a_config_file_naming_a_removed_key(line, tmp_path, capsys):
    f = tmp_path / "run.cfg"
    f.write_text(f"epochs = 3\n{line}\n")
    assert cli.main(["train", "--print-config", "--config", str(f)]) == 2
    assert f"unknown config key {line.split()[0]!r}" in capsys.readouterr().err


_SHAPE = ["--hidden-mult", "2", "--temb-dim", "8", "--leaky-slope", "0.1"]
_EVAL_TIME = {"seed": "0", "synth_per_class": "4", "clf_epochs": "3"}


@pytest.fixture(scope="module")
def shaped_run(tmp_path_factory):
    """A `--preset synthetic` run at a non-default network shape: its data
    dir, its generator file, a v1 copy of that file, and the eval line the
    library logged at the last epoch."""
    root = tmp_path_factory.mktemp("shaped")
    data, run = root / "data", root / "run"
    assert cli.main(["gen-synthetic", "--preset", "synthetic", "--out", str(data)] + _TINY) == 0
    cfg = config.resolve_config("synthetic", overrides={
        **_settings(_TINY + _SHAPE), **_FAST_SETTINGS, "eval_interval": "2", "use_rl": "false"})
    result = trainer.train(standardize(load_dataset(data)), None, cfg, out_dir=run)
    dims = result.generator.net.layer_dims
    v1 = struct.pack(f"<4sI4sI{len(dims)}I", b"RLVC", 1, GENERATOR_TAG, len(dims), *dims)
    (run / "v1.ckpt").write_bytes(v1 + result.generator.net.flat.tobytes())
    return data, run, result.reports[cfg.epochs - 1].format_line()


def test_cli_eval_of_the_final_checkpoint_prints_the_logged_row(shaped_run, capsys):
    data, run, logged = shaped_run
    assert cli.main(["eval", "--preset", "synthetic", "--data", str(data), "--generator",
                     str(run / "generator.ckpt")] + _flags("eval", _EVAL_TIME)) == 0
    assert capsys.readouterr().out == logged + "\n"


@pytest.mark.parametrize(
    "flags, ckpt, code, expected",
    [
        (["--preset", "synthetic"], "generator.ckpt", 0, None),
        ([], "generator.ckpt", 0, None),  # no preset
        (["--preset", "synthetic"], "v1.ckpt", 2, "unsupported checkpoint version 1"),
    ],
    ids=["preset", "no preset", "v1 file"],
)
@pytest.mark.parametrize("command", ["eval", "synthesize"])
def test_cli_reads_the_generator_settings_from_the_file(shaped_run, tmp_path, capsys, command,
                                                        flags, ckpt, code, expected):
    data, run, logged = shaped_run
    out = ["--out", str(tmp_path / "synth.csv")] if command == "synthesize" else []
    argv = [command, "--data", str(data), "--generator", str(run / ckpt), *out]
    assert cli.main(argv + _flags(command, _EVAL_TIME) + flags) == code
    stdout, stderr = capsys.readouterr()
    if code:
        assert expected in stderr and stdout == ""
    elif command == "eval":
        assert stdout == logged + "\n"


@pytest.mark.parametrize("key", gan.GENERATOR_KEYS)
@pytest.mark.parametrize("command", ["eval", "synthesize"])
def test_cli_takes_no_flag_for_a_setting_the_generator_file_records(shaped_run, capsys,
                                                                    command, key):
    # refused even at the file's own value; train takes the flag
    data, run, _ = shaped_run
    trained = config.resolve_config("synthetic", overrides=_settings(_SHAPE))
    flag, value = "--" + key.replace("_", "-"), config.format_config(trained, [key]).split()[-1]
    argv = [command, "--data", str(data), "--generator", str(run / "generator.ckpt"), flag, value]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith(f"usage error: unrecognized arguments: {flag}")
    assert cli.main(["train", "--print-config", flag, value]) == 0
    assert f"{key} = {value}" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("command", ["eval", "synthesize"])
def test_cli_print_config_given_a_generator_prints_the_settings_the_file_imposes(
        shaped_run, capsys, command):
    # The file records the synthetic preset's float32, T = 6, beta_max 0.9 and
    # standardize = true at _SHAPE's network; given no preset, the command
    # runs with those, and prints them after its own settings.
    data, run, _ = shaped_run
    argv = [command, "--print-config", "--data", str(data), "--seed", "5"]
    keys = [f.name for f in config.command_fields(command)]
    assert cli.main(argv) == 0  # no generator: the settings as resolved
    assert capsys.readouterr().out == config.format_config(config.Config(seed=5), keys)
    argv += ["--generator", str(run / "generator.ckpt")]
    assert cli.main(argv) == 0
    trained = config.resolve_config("synthetic", overrides={**_settings(_SHAPE), "seed": "5"})
    out = capsys.readouterr().out
    assert out == config.format_config(trained, keys + list(gan.GENERATOR_KEYS))
    assert {"dtype = float32", "diffusion_steps = 6", "standardize = true"} <= set(out.splitlines())


def test_cli_train_refuses_a_reward_file_from_the_other_feature_space(tmp_path, capsys):
    data, run = str(tmp_path / "data"), str(tmp_path / "run")
    assert cli.main(["gen-synthetic", "--out", data] + _TINY) == 0
    for fit, train in (("false", "true"), ("true", "false")):
        assert cli.main(["pretrain-reward", "--data", data, "--out", run,
                         "--standardize", fit] + _FAST["pretrain-reward"]) == 0
        capsys.readouterr()
        assert cli.main(["train", "--data", data, "--out", run, "--reward", f"{run}/reward.ckpt",
                         "--standardize", train] + _FAST["train"]) == 2
        err = capsys.readouterr().err
        assert f"was fit with standardize = {fit}; this run has standardize = {train}" in err
    assert cli.main(["train", "--data", data, "--out", run, "--reward", f"{run}/reward.ckpt",
                     "--standardize"] + _FAST["train"]) == 0


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
    assert cli.main(["pretrain-reward", "--data", data, "--out", str(run)]
                    + _FAST["pretrain-reward"]) == 0
    path = run / "reward.ckpt"
    blob = path.read_bytes()
    at = blob.index(b"standardize = false\n")  # the first line of the settings
    (size,) = struct.unpack("<I", blob[at - 4 : at])
    text = blob[at : at + size].decode()
    assert text == f"standardize = false\ndataset = {fingerprint(data)}\n"
    new = edit(text).encode()
    path.write_bytes(blob[: at - 4] + struct.pack("<I", len(new)) + new + blob[at + size :])
    capsys.readouterr()
    assert cli.main(["train", "--data", data, "--out", str(run), "--reward", str(path)]
                    + _FAST["train"]) == 2
    err = capsys.readouterr().err
    assert f"reward checkpoint {path} records" in err and shown in err


def test_cli_train_refuses_a_reward_file_fit_on_another_dataset(tmp_path, capsys):
    # seed 1's reward model, then a seed 2 dataset at the same shape: the
    # widths and classes agree, the rows do not
    first, second, run = (str(tmp_path / name) for name in ("data-1", "data-2", "run"))
    for data, seed in ((first, "1"), (second, "2")):
        assert cli.main(["gen-synthetic", "--out", data, "--seed", seed] + _TINY) == 0
    assert cli.main(["pretrain-reward", "--data", first, "--out", run]
                    + _FAST["pretrain-reward"]) == 0
    capsys.readouterr()
    reward = f"{run}/reward.ckpt"
    assert cli.main(["train", "--data", second, "--out", run, "--reward", reward]
                    + _FAST["train"]) == 2
    assert capsys.readouterr().err == (
        f"error: {reward} was fit on dataset {fingerprint(first)}; "
        f"this run's dataset is {fingerprint(second)}\n"
    )
    assert not os.path.exists(f"{run}/metrics.csv")
    assert cli.main(["train", "--data", first, "--out", run, "--reward", reward]
                    + _FAST["train"]) == 0


def test_cli_train_refuses_a_reward_file_that_records_no_dataset(tmp_path, capsys):
    data, run = str(tmp_path / "data"), tmp_path / "run"
    assert cli.main(["gen-synthetic", "--out", data] + _TINY) == 0
    ds = load_dataset(data)
    train_x, train_y = ds.train
    model = pretrain_reward(train_x, ds.seen_rows(train_y), len(ds.seen_classes),
                            config.Config(reward_epochs=2))
    run.mkdir()
    save_checkpoint(run / "reward.ckpt", REWARD_TAG, [model.feat_dim, model.n_classes],
                    np.concatenate([model.weight.ravel(), model.bias]), "standardize = false\n")
    assert cli.main(["train", "--data", data, "--out", str(run), "--reward",
                     str(run / "reward.ckpt")] + _FAST["train"]) == 2
    assert f"was fit on dataset (none recorded); this run's dataset is {ds.fingerprint}" in (
        capsys.readouterr().err)


def _pipeline_config(path, capsys) -> None:
    """Write to `path` the config file of a tiny pipeline that runs every
    part of training: `train --print-config`'s settings, then gen-synthetic's
    shape keys, which train does not read."""
    assert cli.main(["train", "--print-config", *_FAST["train"], "--eval-interval", "1"]) == 0
    path.write_text(capsys.readouterr().out
                    + "".join(f"{k} = {v}\n" for k, v in _settings(_TINY).items()))


def _pipeline(tmp_path, config_file) -> list[list[str]]:
    """The five commands of a pipeline in `tmp_path`, each given `config_file`."""
    data, run = str(tmp_path / "data"), str(tmp_path / "run")
    trained = ["--data", data, "--generator", f"{run}/generator.ckpt"]
    return [[*argv, "--config", str(config_file)] for argv in (
        ["gen-synthetic", "--out", data],
        ["pretrain-reward", "--data", data, "--out", run],
        ["train", "--data", data, "--reward", f"{run}/reward.ckpt", "--out", run],
        ["synthesize", *trained, "--out", f"{run}/synth.csv"],
        ["eval", *trained],
    )]


def test_one_config_file_serves_a_whole_pipeline(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    _pipeline_config(path, capsys)
    for argv in _pipeline(tmp_path, path):
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    cfg = config.resolve_config(config_path=str(path))
    assert (cfg.n_seen, cfg.epochs) == (4, 2)
    for command in cli._COMMANDS:
        assert cli.main([command, "--print-config", "--config", str(path)]) == 0
        keys = [f.name for f in config.command_fields(command)]
        assert capsys.readouterr().out == config.format_config(cfg, keys)


# How many setting flags each command takes: one for each setting it reads, but
# for those that synthesize and eval read from the generator file.
_READ_COUNTS = {"gen-synthetic": 11, "pretrain-reward": 7, "train": 27, "synthesize": 2,
                "eval": 7}


def test_each_command_takes_a_flag_for_exactly_the_settings_it_reads(tmp_path, monkeypatch,
                                                                    capsys):
    names = {f.name for f in dataclasses.fields(config.Config)}
    reads: set[str] = set()

    class Recording(config.Config):
        """A Config that notes each setting read from it once built, through
        a property or method too, but not by dataclasses.replace's copy."""

        def __init__(self, **values):
            super().__init__(**values)
            object.__setattr__(self, "_built", True)

        def __getattribute__(self, name):
            if (name in names and "_built" in object.__getattribute__(self, "__dict__")
                    and sys._getframe(1).f_globals["__name__"] != "dataclasses"):
                reads.add(name)
            return object.__getattribute__(self, name)

    path = tmp_path / "run.cfg"
    _pipeline_config(path, capsys)
    monkeypatch.setattr(config, "Config", Recording)
    for argv in _pipeline(tmp_path, path):
        reads.clear()
        assert cli.main(argv) == 0, argv
        flags = {f.name for f in config.command_fields(argv[0])}
        assert len(flags) == _READ_COUNTS[argv[0]]
        # synthesize and eval also read the settings the generator file records
        from_file = set(gan.GENERATOR_KEYS) if argv[0] in ("synthesize", "eval") else set()
        assert reads == flags | from_file, argv[0]


def _load(path: str, name: str):
    """The module of the script at `path`, imported as `name`."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_and_the_byte_check_command_lines_parse(tmp_path, monkeypatch, capsys):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))  # run.py's own imports
    run = _load(os.path.join(root, "perfbench", "run.py"), "perfbench_run")
    probe = _load(os.path.join(root, "tools", "probe.py"), "probe")
    assert probe.SYNTH_PER_CLASS == run.SWEEP_SYNTH_PER_CLASS  # `probe report` mirrors eval-sweep
    argvs = []
    for workload in run.WORKLOADS:
        p = run.Paths(str(tmp_path), workload, 1)
        specs = [*run.input_steps(workload, 1, p), run.pipeline_spec(workload, 1, p, 0)]
        argvs += [argv for spec in specs for _, argv in spec["stages"]]
    argvs += [[args[0], *probe.SYNTHETIC, "--seed", "0", *args[1:]] for _, args in probe.STEPS]
    parser = cli.build_parser()
    for argv in argvs:
        parser.parse_args(argv)
    train = next(a for a in argvs if a[0] == "train" and "--reward" in a)
    assert cli.main(train + ["--print-config"]) == 0
    printed = run.checks.parse_config(capsys.readouterr().out)
    assert {"epochs", "batch_size", "use_cues"} <= printed.keys()
    assert run.checks.train_batches(printed, 100) == 40 * 4  # the preset's 40 epochs of 32
