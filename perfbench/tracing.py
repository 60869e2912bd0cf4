"""Out-of-tree tracing of the rlvc pipeline.

The tracer wraps public functions of the ``rlvc`` modules from outside (the
package itself is never edited), records one span per call and counts
``engine.Tensor`` constructions. Spans stay in memory as
``[name, start, end, parent, tensors_at_start, tensors_at_end]`` and are
written out once, after the traced pipeline ends. Every patched attribute is
put back by ``Tracer.restore``; ``Tracer.leftover_wrappers`` then finds any
binding to a wrapper that restoring could not reach.

This module imports nothing from numpy or rlvc, so tests can drive it with
stand-in modules.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
import weakref

# (module, attribute) pairs that get a span per call. "Class.method" wraps the
# method on the class, which covers every instance and every local import of
# the class (reward.pretrain_reward imports AdamState inside its body).
# Function targets are replaced under every name they are bound to in any
# loaded rlvc module, so ``from .evaluate import full_report`` in trainer.py is
# covered too.
TARGETS = (
    ("data", "load_dataset"),
    ("data", "standardize"),
    ("nets", "load_checkpoint"),
    ("nets", "save_checkpoint"),
    ("nets", "AdamState.step"),
    ("engine", "grad"),
    ("engine", "backward"),
    ("gan", "critic_x0_loss"),
    ("gan", "critic_xt_loss"),
    ("gan", "generator_adv_terms"),
    ("gan", "Generator.synthesize"),
    ("reward", "pretrain_reward"),
    ("reward", "class_log_probs"),
    ("reward", "rl_loss"),
    ("cues", "cue_loss"),
    ("diffusion", "forward_noise"),
    ("diffusion", "forward_transition"),
    ("diffusion", "posterior_sample"),
    ("evaluate", "full_report"),
    ("evaluate", "synthesize_unseen"),
    ("evaluate", "train_head"),
    ("evaluate", "macro_accuracy"),
    ("trainer", "train"),
)

ADAM_STEP = "nets.AdamState.step"
# trainer.train builds its three optimizers in this order: critics, generator
# adversarial step, generator policy-gradient step (same parameters, own lr).
TRAIN_OPTIMIZER_ROLES = ("critic", "gen_adv", "gen_rl")
# Optimizers built inside these spans train a linear softmax model.
HEAD_SPANS = ("evaluate.train_head", "reward.pretrain_reward")
ADAM_ROLES = TRAIN_OPTIMIZER_ROLES + ("head",)

TRAIN = "trainer.train"
REPORT = "evaluate.full_report"

SPAN_NAMES = tuple(f"{mod}.{attr}" for mod, attr in TARGETS) + tuple(
    f"{ADAM_STEP}.{role}" for role in ADAM_ROLES
)

# Every per-layer metric the traced run prints, with its unit.
PER_LAYER_METRICS = (
    (("cli.import_s", "s"),)
    + tuple(
        (f"{name}.{field}", unit)
        for name in SPAN_NAMES
        for field, unit in (("calls", "count"), ("ms", "ms"), ("self_s", "s"))
    )
    + (
        ("engine.tensors_per_batch", "count"),
        ("engine.tensors_per_report", "count"),
        ("trainer.self_ms_per_batch", "ms"),
        ("trace.pipeline_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.spans", "count"),
        ("trace.missing_targets", "count"),
    )
)


class Tracer:
    """Span recorder that patches functions in place and can undo it."""

    def __init__(self):
        self.spans: list[list] = []
        self.tensors = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}  # id -> every wrapper ever installed
        self._roles: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._optimizers_in_span: dict[int, int] = {}

    # -- recording -------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        spans = self.spans
        stack = self._stack
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.tensors, 0]
        stack.append(len(spans))
        spans.append(record)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            record[5] = self.tensors
            stack.pop()

    def _wrapped(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return wrapper

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        self._wrappers[id(value)] = value
        setattr(owner, attr, value)

    def install(self, modules: dict, scan=None) -> None:
        """Wrap TARGETS in ``modules`` (short name -> module object).

        ``scan`` lists the modules searched for other bindings of a wrapped
        function; by default every loaded module of the rlvc package.
        """
        if scan is None:
            scan = rlvc_modules()
        for mod_name, attr in TARGETS:
            name = f"{mod_name}.{attr}"
            module = modules.get(mod_name)
            cls_name, _, meth = attr.rpartition(".")
            owner = getattr(module, cls_name, None) if cls_name else module
            if owner is None or meth not in vars(owner):
                self.missing.append(name)
                continue
            original = vars(owner)[meth]
            if name == ADAM_STEP:
                self._install_adam(owner, original)
            elif cls_name:
                self._patch(owner, meth, self._wrapped(name, original))
            else:
                wrapper = self._wrapped(name, original)
                for m in scan:
                    for alias, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, alias, wrapper)
        engine = modules.get("engine")
        tensor = getattr(engine, "Tensor", None)
        if tensor is None or "__init__" not in vars(tensor):
            self.missing.append("engine.Tensor.__init__")
        else:
            self._patch(tensor, "__init__", self._counting_init(vars(tensor)["__init__"]))

    def _counting_init(self, init):
        @functools.wraps(init)
        def counting_init(obj, *args, **kwargs):
            self.tensors += 1
            init(obj, *args, **kwargs)

        return counting_init

    def _install_adam(self, cls, step) -> None:
        init = vars(cls)["__init__"]

        @functools.wraps(init)
        def tagging_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            self._roles[obj] = self._optimizer_role()

        @functools.wraps(step)
        def role_step(obj, *args, **kwargs):
            name = f"{ADAM_STEP}.{self._roles.get(obj, 'other')}"
            return self.span(name, step, obj, *args, **kwargs)

        self._patch(cls, "__init__", tagging_init)
        self._patch(cls, "step", role_step)

    def _optimizer_role(self) -> str:
        for idx in reversed(self._stack):
            name = self.spans[idx][0]
            if name in HEAD_SPANS:
                return "head"
            if name == TRAIN:
                k = self._optimizers_in_span.get(idx, 0)
                self._optimizers_in_span[idx] = k + 1
                return TRAIN_OPTIMIZER_ROLES[k] if k < len(TRAIN_OPTIMIZER_ROLES) else "other"
        return "other"

    def restore(self) -> None:
        """Undo every patch."""
        patches, self._patches = self._patches, []
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    def leftover_wrappers(self, scan=None) -> list[str]:
        """Attributes of the scanned modules, or of their classes, that are
        still a wrapper. Restoring only undoes the patches it made, so this
        catches a wrapper bound under a new name while the tracer was in,
        such as a module imported mid-run with ``from .evaluate import
        full_report``. ``scan`` defaults to every loaded rlvc module."""
        found = []
        for m in scan if scan is not None else rlvc_modules():
            for attr, value in vars(m).items():
                if id(value) in self._wrappers:
                    found.append(f"{m.__name__}.{attr}")
                if isinstance(value, type):
                    found += [f"{m.__name__}.{attr}.{k}" for k, v in vars(value).items()
                              if id(v) in self._wrappers]
        return found

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "tensors_start", "tensors_end"],
                       "spans": self.spans}, fh)


def rlvc_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "rlvc" or n.startswith("rlvc.")]


# -- span-tree arithmetic ------------------------------------------------


def self_times(spans) -> list[float]:
    """Per span: its duration minus the durations of its direct children.

    Spans come from one thread, so children of a span never overlap and
    their union is their sum.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def _has_ancestor(spans, idx: int, name: str) -> bool:
    p = spans[idx][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


def layer_metrics(spans, train_batches: int) -> dict[str, float]:
    """Per-layer figures of one traced pipeline (no tracer-level extras).

    ``train_batches`` is the number of training minibatches the pipeline ran,
    used for the per-batch figures (0 when nothing was trained).
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)
    by_name[ADAM_STEP] = [i for n, ids in by_name.items() if n.startswith(ADAM_STEP + ".") for i in ids]

    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        ids = by_name.get(name, [])
        out[f"{name}.calls"] = len(ids)
        out[f"{name}.ms"] = statistics.median((spans[i][2] - spans[i][1]) * 1e3 for i in ids) if ids else 0.0
        out[f"{name}.self_s"] = float(sum(selfs[i] for i in ids))

    def tensors(i):
        return spans[i][5] - spans[i][4]

    trains = by_name.get(TRAIN, [])
    reports = by_name.get(REPORT, [])
    train_tensors = sum(tensors(i) for i in trains) - sum(
        tensors(i) for i in reports if _has_ancestor(spans, i, TRAIN)
    )
    per_batch = train_batches if train_batches > 0 else None
    out["engine.tensors_per_batch"] = train_tensors / per_batch if per_batch else 0.0
    out["engine.tensors_per_report"] = sum(tensors(i) for i in reports) / len(reports) if reports else 0.0
    out["trainer.self_ms_per_batch"] = (
        sum(selfs[i] for i in trains) * 1e3 / per_batch if per_batch else 0.0
    )
    return out


def span_errors(spans) -> list[str]:
    """Faults of a span tree: a span that ends before it starts, a child that
    starts before its parent or lies outside it, or a negative self time
    (children that overlap). A tree the tracer recorded has none of these."""
    errors = []
    for i, s in enumerate(spans):
        if s[2] < s[1]:
            errors.append(f"span {i} ({s[0]}) ends before it starts")
        p = s[3]
        if p >= i or (p >= 0 and not spans[p][1] <= s[1] <= s[2] <= spans[p][2]):
            errors.append(f"span {i} ({s[0]}) lies outside its parent {p}")
    for i, t in enumerate(self_times(spans)):
        if t < -1e-9:
            errors.append(f"span {i} ({spans[i][0]}) has self time {t!r} s")
    return errors
