"""One frozen `Config` for the command line and the library.

Each setting is declared once below, with its default, help text, range
check and the commands that read it; each command takes a `--key` flag for
each setting it reads, and a value given as text is parsed by the type of
its default.

Precedence, lowest to highest: built-in defaults, preset, config file,
explicit command-line flags. Files hold one `key = value` per line; blank
lines and `#` comments are ignored; unknown keys are rejected. A file may set
any key, so one file serves every command of a pipeline.
"""

from __future__ import annotations

import math
from dataclasses import Field, dataclass, field, fields

from . import diffusion
from .errors import ConfigurationError
from .nets import exact_slope


def _parse_bool(s: str) -> bool:
    v = str(s).strip().lower()
    if v in ("true", "1", "yes", "on"):
        return True
    if v in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


# The commands that read a setting, by the part of a run it shapes. Those a generator
# file records (`gan.GENERATOR_KEYS`) are train's alone: synthesize and eval read the file.
_ALL = ("gen-synthetic", "pretrain-reward", "train", "synthesize", "eval")
_DATA = ("gen-synthetic",)
_REWARD = ("pretrain-reward",)
_TRAIN = ("train",)
_SPACE = ("pretrain-reward", "train")  # the commands that fit a model in a feature space
_SYNTH = ("train", "synthesize", "eval")  # the commands that synthesize unseen features
_HEADS = ("train", "eval")
_ADAM = ("pretrain-reward", "train", "eval")


def _key(commands: tuple, default, help_text: str, check=None):
    """A config field read by `commands`; `check` is an optional (predicate,
    rule text) pair."""
    return field(default=default,
                 metadata={"commands": commands, "help": help_text, "check": check})


def _at_least(lo):
    return (lambda v: v >= lo), f">= {lo}"


def _above(lo):
    return (lambda v: v > lo), f"> {lo}"


def _unit_interval():
    return (lambda v: 0.0 <= v < 1.0), "in [0, 1)"


@dataclass(frozen=True)
class Config:
    """Every setting of a run. Construction runs every range check, and
    refuses a non-finite float, so a Config that exists is valid; derive
    variants with dataclasses.replace."""

    seed: int = _key(_ALL, 0, "root seed; every random stream derives from it", _at_least(0))
    epochs: int = _key(_TRAIN, 20, "training epochs", _at_least(1))
    rl_start_epoch: int = _key(
        _TRAIN, 5, "first epoch (0-indexed) with policy-gradient updates", _at_least(0)
    )
    critic_steps: int = _key(_TRAIN, 1, "critic updates per minibatch", _at_least(1))
    batch_size: int = _key(_TRAIN, 32, "minibatch size", _at_least(1))
    lr_adv: float = _key(
        _TRAIN, 5e-4, "Adam rate for critics and the adversarial generator step", _above(0)
    )
    lr_rl: float = _key(_TRAIN, 5e-5, "Adam rate for the policy-gradient generator step", _above(0))
    lambda_pd: float = _key(_TRAIN, 5.0, "weight of the prototype-distillation term", _at_least(0))
    lambda_gp: float = _key(_TRAIN, 10.0, "gradient-penalty weight", _at_least(0))
    diffusion_steps: int = _key(_TRAIN, 4, "number of diffusion steps T", _at_least(1))
    beta_min: float = _key(_TRAIN, 0.1, "first diffusion beta")
    beta_max: float = _key(_TRAIN, 0.4, "last diffusion beta")
    synth_per_class: int = _key(
        _SYNTH, 100, "synthesized features per unseen class", _at_least(1)
    )
    eval_interval: int = _key(_TRAIN, 0, "epochs between evaluations (0 = never)", _at_least(0))
    checkpoint_interval: int = _key(
        _TRAIN, 0, "epochs between checkpoints (0 = end only)", _at_least(0)
    )
    use_rl: bool = _key(_TRAIN, True, "enable the policy-gradient phase")
    use_cues: bool = _key(_TRAIN, True, "enable the prototype-distillation term")
    hidden_mult: int = _key(
        _TRAIN, 4, "hidden width as a multiple of the feature dim", _at_least(1)
    )
    temb_dim: int = _key(_TRAIN, 16, "timestep embedding width", _at_least(0))
    leaky_slope: float = _key(
        _TRAIN, 0.2, "leaky-relu negative slope", (exact_slope, "in [0, 1] and not -0.0")
    )
    adam_beta1: float = _key(_ADAM, 0.5, "Adam beta1 (all optimizers)", _unit_interval())
    adam_beta2: float = _key(_ADAM, 0.999, "Adam beta2 (all optimizers)", _unit_interval())
    reward_epochs: int = _key(_REWARD, 50, "reward-model pretraining epochs", _at_least(1))
    reward_lr: float = _key(_REWARD, 0.01, "reward-model Adam rate", _above(0))
    reward_batch: int = _key(_REWARD, 128, "reward-model minibatch size", _at_least(1))
    clf_epochs: int = _key(_HEADS, 50, "evaluation-head training epochs", _at_least(1))
    clf_lr: float = _key(_HEADS, 0.001, "evaluation-head Adam rate", _above(0))
    clf_batch: int = _key(_HEADS, 128, "evaluation-head minibatch size", _at_least(1))
    standardize: bool = _key(_SPACE, False, "standardize features with train-split statistics")
    dtype: str = _key(
        _TRAIN, "float64",
        "precision of training and of the generator's synthesis: float64 or float32",
        ((lambda v: v in ("float64", "float32")), "float64 or float32"),
    )
    n_seen: int = _key(_DATA, 20, "synthetic benchmark: seen classes", _at_least(1))
    n_unseen: int = _key(_DATA, 5, "synthetic benchmark: unseen classes", _at_least(1))
    feat_dim: int = _key(_DATA, 32, "synthetic benchmark: visual feature dim", _at_least(1))
    sem_dim: int = _key(_DATA, 16, "synthetic benchmark: semantic prototype dim", _at_least(1))
    samples_per_class: int = _key(_DATA, 60, "synthetic benchmark: samples per class", _at_least(2))
    semantic_cluster_size: int = _key(
        _DATA, 5, "synthetic benchmark: classes per semantic cluster", _at_least(1)
    )
    semantic_jitter: float = _key(
        _DATA, 0.05, "synthetic benchmark: within-cluster prototype jitter", _at_least(0)
    )
    visual_separation: float = _key(
        _DATA, 6.0, "synthetic benchmark: min distance between class means", _above(0)
    )
    visual_sigma: float = _key(
        _DATA, 1.0, "synthetic benchmark: within-class feature noise", _at_least(0)
    )
    test_fraction: float = _key(
        _DATA, 0.2, "synthetic benchmark: held-out fraction per seen class",
        ((lambda v: 0.0 < v < 1.0), "in (0, 1)"),
    )

    def __post_init__(self):
        for f in fields(self):
            _check(f, getattr(self, f.name))
        if not 1 <= self.n_test < self.samples_per_class:
            raise ConfigurationError("test_fraction leaves an empty split")
        self.schedule()  # build_schedule's own rule checks the betas

    @property
    def n_test(self) -> int:
        """Synthetic benchmark: held-out rows per seen class."""
        return int(round(self.samples_per_class * self.test_fraction))

    def schedule(self) -> diffusion.DiffusionSchedule:
        return diffusion.build_schedule(self.diffusion_steps, self.beta_min, self.beta_max,
                                        self.dtype)


_FIELDS = {f.name: f for f in fields(Config)}


def command_fields(command: str) -> list[Field]:
    """The fields of the settings `command` reads, in declaration order."""
    return [f for f in _FIELDS.values() if command in f.metadata["commands"]]


def _check(f, value) -> None:
    """Refuse a non-finite value of a float setting, then any value outside
    the setting's range."""
    if isinstance(f.default, float) and not math.isfinite(value):
        raise ConfigurationError(f"{f.name} must be finite, got {value!r}")
    if f.metadata["check"] is None:
        return
    ok, rule = f.metadata["check"]
    if not ok(value):
        raise ConfigurationError(f"{f.name} must be {rule}, got {value!r}")


# The published presets carry each benchmark's schedule constants and its
# shape: the proposed splits' seen/unseen classes (Xian et al. 2017), 2048-d
# ResNet-101 features and the attribute width, which `gen-synthetic` writes.
PRESETS: dict[str, dict] = {
    "cub": {"epochs": 500, "rl_start_epoch": 30, "lambda_pd": 20.0, "synth_per_class": 400,
            "n_seen": 150, "n_unseen": 50, "feat_dim": 2048, "sem_dim": 312},
    # SUN has about 20 images per class
    "sun": {"epochs": 300, "rl_start_epoch": 30, "lambda_pd": 1.0, "synth_per_class": 400,
            "n_seen": 645, "n_unseen": 72, "feat_dim": 2048, "sem_dim": 102,
            "samples_per_class": 20},
    "awa2": {"epochs": 30, "rl_start_epoch": 7, "lambda_pd": 5.0, "synth_per_class": 4000,
             "n_seen": 40, "n_unseen": 10, "feat_dim": 2048, "sem_dim": 85},
    "synthetic": {
        "epochs": 40,
        "rl_start_epoch": 5,
        "lambda_pd": 5.0,
        "synth_per_class": 100,
        "eval_interval": 10,
        # a schedule ending near-pure-noise keeps the reverse chain's
        # starting point inside the training distribution
        "diffusion_steps": 6,
        "beta_max": 0.9,
        "standardize": True,
        # float32 training: its drift from float64 is inside the noise of
        # CZSL, H and the late reward (see README, "Precision")
        "dtype": "float32",
    },
}


def parse_value(key: str, raw) -> object:
    """Parse text by the type of the key's default, then check its range."""
    f = _FIELDS.get(key)
    if f is None:
        raise ConfigurationError(f"unknown config key {key!r}")
    value = raw
    if isinstance(raw, str):
        parser = _parse_bool if isinstance(f.default, bool) else type(f.default)
        try:
            value = parser(raw)
        except ValueError as e:
            raise ConfigurationError(f"config key {key!r}: {e}") from None
    _check(f, value)
    return value


def load_config_file(path) -> dict:
    """The file's settings; a key set on two lines is refused, naming both."""
    out, line_of = {}, {}
    with open(path, "r") as fh:
        for i, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigurationError(f"{path}:{i}: expected 'key = value'")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            if key in line_of:
                raise ConfigurationError(
                    f"{path}:{i}: key {key!r} is already set on line {line_of[key]}"
                )
            line_of[key] = i
            out[key] = parse_value(key, raw.strip())
    return out


def resolve_config(
    preset: str | None = None,
    config_path: str | None = None,
    overrides: dict | None = None,
) -> Config:
    values = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigurationError(
                f"unknown preset {preset!r}; choose from {sorted(PRESETS)}"
            )
        values.update(PRESETS[preset])
    if config_path is not None:
        values.update(load_config_file(config_path))
    for key, raw in (overrides or {}).items():
        values[key] = parse_value(key, raw)
    return Config(**values)


def format_config(cfg: Config, keys=None) -> str:
    """`key = value` lines of the given keys (default every key), sorted."""
    lines = []
    for key in sorted(_FIELDS if keys is None else keys):
        v = getattr(cfg, key)
        if isinstance(v, bool):
            v = "true" if v else "false"
        lines.append(f"{key} = {v}")
    return "\n".join(lines) + "\n"
