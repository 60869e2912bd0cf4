"""Correctness checks on the outputs of one pipeline run.

Each check returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import hashlib
import math
import re

EVAL_LINE = re.compile(
    r"acc=(?P<acc>\S+) u=(?P<u>\S+) s=(?P<s>\S+) h=(?P<h>\S+)"
)
LOSS_COLUMNS = ("critic_loss", "gen_adv_loss")
CUE_COLUMN = "pd_loss"


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def parse_config(text: str) -> dict[str, str]:
    """Parse the ``key = value`` lines that ``--print-config`` prints."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def parse_eval(stdout: str) -> dict[str, float] | None:
    """The acc/u/s/h figures of the last eval line in a command's output."""
    found = None
    for line in stdout.splitlines():
        m = EVAL_LINE.search(line)
        if m:
            found = m
    if found is None:
        return None
    try:
        return {k: float(v) for k, v in found.groupdict().items()}
    except ValueError:
        return None


def check_eval(figures: dict[str, float] | None, n_unseen: int) -> list[str]:
    """Each figure lies in [0, 1] and CZSL accuracy beats chance."""
    if figures is None:
        return ["eval output has no acc=/u=/s=/h= line"]
    errors = [
        f"eval {k}={v!r} outside [0, 1]" for k, v in figures.items() if not 0.0 <= v <= 1.0
    ]
    chance = 1.0 / n_unseen
    if not figures["acc"] > chance:
        errors.append(f"czsl acc {figures['acc']!r} not above chance {chance!r}")
    return errors


def read_metrics(path) -> tuple[list[str], list[list[str]]]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def check_metrics(header: list[str], rows: list[list[str]], epochs: int, use_cues: bool) -> list[str]:
    """One row per epoch, in order, with finite loss columns."""
    errors = []
    if len(rows) != epochs:
        errors.append(f"metrics.csv has {len(rows)} rows for {epochs} epochs")
    columns = LOSS_COLUMNS + ((CUE_COLUMN,) if use_cues else ())
    missing = [c for c in ("epoch",) + columns if c not in header]
    if missing:
        return errors + [f"metrics.csv lacks columns {missing}"]
    at = {c: header.index(c) for c in ("epoch",) + columns}
    for i, row in enumerate(rows):
        if len(row) != len(header):
            errors.append(f"metrics.csv row {i} has {len(row)} cells, header {len(header)}")
            continue
        if row[at["epoch"]] != str(i):
            errors.append(f"metrics.csv row {i} is epoch {row[at['epoch']]!r}")
        for c in columns:
            try:
                value = float(row[at[c]])
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                errors.append(f"metrics.csv epoch {i} {c}={row[at[c]]!r} not finite")
    return errors


def last_logged_acc(header: list[str], rows: list[list[str]]) -> float | None:
    """CZSL accuracy of the last row that training evaluated."""
    if "czsl_acc" not in header:
        return None
    col = header.index("czsl_acc")
    for row in reversed(rows):
        try:
            value = float(row[col])
        except (ValueError, IndexError):
            continue
        if math.isfinite(value):
            return value
    return None


def train_batches(config: dict[str, str], n_train: int) -> int:
    """Minibatches one ``train`` run makes: epochs x ceil(n_train / batch)."""
    return int(config["epochs"]) * -(-n_train // int(config["batch_size"]))
