"""Evaluation heads, harmonic mean, and iterative unseen synthesis."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rlvc import diffusion, engine, evaluate, nets, reward
from rlvc.config import Config
from rlvc.data import ZslDataset
from rlvc.errors import ConfigurationError, UsageError
from rlvc.evaluate import (
    EvalReport,
    harmonic_mean,
    macro_accuracy,
    synthesize_unseen,
    train_head,
)
from rlvc.gan import Generator
from rlvc.nets import SoftmaxClassifier

from conftest import make_separable


@pytest.mark.parametrize(
    "s,u,expected",
    [
        (80.9, 81.4, 81.2),
        (59.6, 55.6, 57.6),
        (78.4, 82.4, 80.4),
    ],
)
def test_harmonic_mean_reference_values(s, u, expected):
    assert harmonic_mean(s, u) == pytest.approx(expected, abs=0.1)


def test_harmonic_mean_edge_cases():
    assert harmonic_mean(0.0, 0.0) == 0.0
    assert harmonic_mean(50.0, 0.0) == 0.0
    assert harmonic_mean(0.42, 0.42) == pytest.approx(0.42, abs=1e-15)
    with pytest.raises(UsageError):
        harmonic_mean(-0.1, 0.5)


@given(
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=0.0, max_value=100.0),
)
def test_harmonic_mean_below_arithmetic(s, u):
    h = harmonic_mean(s, u)
    assert 0.0 <= h <= (s + u) / 2.0 + 1e-12
    assert h <= max(s, u) + 1e-12


def _zero_head(class_ids, feat_dim: int) -> SoftmaxClassifier:
    """A head whose logits tie everywhere, so it predicts its first class."""
    n = len(class_ids)
    return SoftmaxClassifier(np.zeros((n, feat_dim)), np.zeros(n), class_ids)


def test_macro_vs_micro_on_imbalanced_classes():
    # 90 rows of class 0 all right, 10 rows of class 1 all wrong:
    # micro would say 0.9, macro must say 0.5
    labels = np.array([0] * 90 + [1] * 10)
    assert macro_accuracy(_zero_head([0, 1], 2), np.zeros((100, 2)), labels) == 0.5


def test_macro_accuracy_empty_rejected():
    head = _zero_head([0, 1], 2)
    with pytest.raises(UsageError):
        macro_accuracy(head, np.zeros((0, 2)), np.zeros(0, dtype=int))


def test_macro_accuracy_label_outside_head():
    head = _zero_head([0, 1], 2)
    with pytest.raises(ConfigurationError, match="outside head"):
        macro_accuracy(head, np.zeros((1, 2)), np.array([5]))


def test_head_duplicate_ids_rejected():
    with pytest.raises(ConfigurationError, match="^duplicate class ids in head$"):
        _zero_head([3, 3], 2)
    with pytest.raises(ConfigurationError, match="^duplicate class ids in head$"):
        train_head(np.zeros((2, 2)), np.array([3, 7]), [7, 3, 7], Config(clf_epochs=1),
                   np.random.default_rng(0))
    with pytest.raises(ConfigurationError, match="^class ids must be sorted$"):
        _zero_head([7, 3], 2)


def test_a_head_is_read_only():
    head = train_head(np.eye(2), np.array([4, 9]), [4, 9], Config(clf_epochs=1),
                      np.random.default_rng(0))
    for array in (head.weight, head.bias, head.class_ids):
        with pytest.raises(ValueError):
            array[0] = 1


def test_train_head_separable_reaches_perfect():
    x, y = make_separable(n_per_class=30, d=6, n_classes=3, seed=4)
    head = train_head(x, y, [0, 1, 2], Config(clf_epochs=30),
                      np.random.default_rng(0))
    assert macro_accuracy(head, x, y) == 1.0


def test_train_head_memorizes_singletons():
    x = np.eye(4) * 7.0
    y = np.arange(4)
    head = train_head(x, y, [0, 1, 2, 3], Config(clf_epochs=200),
                      np.random.default_rng(1))
    assert macro_accuracy(head, x, y) == 1.0


def test_train_head_and_macro_accuracy_refuse_a_label_count_other_than_the_row_count():
    # train_head once trained on the first 10 of 12 labels; macro_accuracy
    # raised numpy's IndexError
    x, y = make_separable(n_per_class=6, d=3, n_classes=2, seed=1)
    head = train_head(x, y, [0, 1], Config(clf_epochs=2), np.random.default_rng(0))
    for labels in (y[:10], np.concatenate([y, y[:2]])):
        with pytest.raises(UsageError, match=f"^train_head: {labels.size} labels for 12 feature rows$"):
            train_head(x, labels, [0, 1], Config(clf_epochs=2), np.random.default_rng(0))
        with pytest.raises(UsageError, match=f"^macro_accuracy: {labels.size} labels for 12 "):
            macro_accuracy(head, x, labels)


def test_train_head_unknown_label_rejected():
    with pytest.raises(ConfigurationError, match="outside head"):
        train_head(np.zeros((2, 3)), np.array([0, 9]), [0, 1],
                   Config(), np.random.default_rng(0))


def test_train_head_maps_labels_to_rows_of_the_sorted_class_ids(monkeypatch):
    fitted = []

    def recording_fit(features, rows, n_classes, *args):
        fitted.append(rows)
        return np.zeros((n_classes, features.shape[1])), np.zeros(n_classes)

    monkeypatch.setattr(evaluate, "fit_linear_softmax", recording_fit)
    labels = np.array([7, 3, 11, 3, 20, 7])
    head = train_head(np.zeros((6, 2)), labels, [11, 20, 3, 7], Config(), np.random.default_rng(0))
    assert head.class_ids.tolist() == [3, 7, 11, 20]
    assert fitted[0].tolist() == [1, 0, 2, 0, 3, 1]
    assert head.class_ids[fitted[0]].tolist() == labels.tolist()


@pytest.mark.parametrize("labels, first", [([3, 5, 2], 5), ([1, 3], 1), ([7, 25, 3], 25)])
def test_unknown_label_names_the_first_one(labels, first):
    # below every class id, in a gap between two, and above every one; the
    # training map and the reward name the first in order, the test map the
    # first of the sorted classes present
    x = np.zeros((len(labels), 2))
    with pytest.raises(ConfigurationError, match=f"^training label {first} outside head classes$"):
        train_head(x, np.array(labels), [3, 7, 11], Config(), np.random.default_rng(0))
    head = _zero_head([3, 7, 11], 2)
    with pytest.raises(ConfigurationError, match=f"^test label {min(set(labels) - {3, 7, 11})} outside"):
        macro_accuracy(head, x, np.array(labels))
    with pytest.raises(UsageError, match=f"^class index {first} outside the reward model's class set$"):
        reward.class_log_probs(head, x, labels)
    roles = np.array(["seen" if c in (3, 7, 11) else "unseen" for c in range(30)], dtype=object)
    ds = ZslDataset(np.zeros((1, 2)), [3], ["train"], np.zeros((30, 2)), roles)
    with pytest.raises(ConfigurationError, match=f"^label {first} is not a seen class$"):
        ds.seen_rows(labels)


def test_untrained_head_near_chance():
    # zero weights predict the first class everywhere; with balanced
    # classes macro accuracy is exactly 1/C
    x, y = make_separable(n_per_class=25, d=5, n_classes=5, seed=2)
    head = _zero_head(range(5), 5)
    assert macro_accuracy(head, x, y) == pytest.approx(0.2, abs=1e-12)


def test_head_preserves_noncontiguous_ids():
    x = np.array([[5.0, 0.0], [0.0, 5.0], [5.1, 0.1], [0.1, 5.1]])
    y = np.array([2, 9, 2, 9])
    head = train_head(x, y, [2, 9], Config(clf_epochs=40),
                      np.random.default_rng(3))
    np.testing.assert_array_equal(np.unique(head.predict(x)), [2, 9])
    assert macro_accuracy(head, x, y) == 1.0


def _tiny_gen(d=3, d_z=2):
    return Generator(d, d_z, Config(hidden_mult=1, temb_dim=4), np.random.default_rng(0))


def test_synthesize_unseen_shapes_and_determinism():
    gen = _tiny_gen()
    protos = np.random.default_rng(0).normal(size=(4, 2))
    sched = diffusion.build_schedule(4, 0.1, 0.4)
    x1, y1 = synthesize_unseen(gen, protos, [1, 3], 5, sched,
                               np.random.default_rng(9))
    x2, y2 = synthesize_unseen(gen, protos, [1, 3], 5, sched,
                               np.random.default_rng(9))
    assert x1.shape == (10, 3)
    np.testing.assert_array_equal(y1, [1] * 5 + [3] * 5)
    assert np.all(np.isfinite(x1))
    assert x1.tobytes() == x2.tobytes()
    np.testing.assert_array_equal(y1, y2)


def test_synthesize_unseen_builds_no_tensor(monkeypatch):
    gen = _tiny_gen()
    built = []
    init = engine.Tensor.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(engine.Tensor, "__init__", counting_init)
    synthesize_unseen(gen, np.ones((4, 2)), [1, 3], 5, diffusion.build_schedule(4, 0.1, 0.4),
                      np.random.default_rng(9))
    assert len(built) == 0


def _per_step_chain(gen, prototypes, classes, n, sched, rng):
    """The chain as fresh arrays per step: a `gen.synthesize` call, then,
    but at t = 0, a `diffusion.posterior_sample` call, each allocating its
    results, all in the generator's dtype."""
    feats = []
    for c in classes:
        z = np.tile(prototypes[c], (n, 1))
        x = rng.standard_normal((n, gen.feat_dim), gen.dtype)
        for t in range(sched.timesteps - 1, -1, -1):
            eps = rng.standard_normal((n, gen.feat_dim), gen.dtype)
            x0_pred = gen.synthesize(eps, z, x, t + 1)[0]
            if t > 0:
                x = diffusion.posterior_sample(x0_pred, x, t, sched, rng)
        feats.append(x0_pred)
    return np.concatenate(feats)


@pytest.mark.parametrize("steps", [1, 3, 6])
def test_each_class_chain_makes_one_posterior_draw_fewer_than_its_steps(steps, monkeypatch):
    # The last step's prediction is the result: a t = 0 draw would be discarded.
    config = Config(hidden_mult=1, temb_dim=4, diffusion_steps=steps)
    gen = Generator(3, 2, config, np.random.default_rng(0))
    protos, classes, n = np.ones((4, 2)), [1, 3], 5
    calls = []
    sample = diffusion.posterior_sample

    def counting(x0_hat, x_next, t, *args, **kwargs):
        calls.append(t)
        return sample(x0_hat, x_next, t, *args, **kwargs)

    monkeypatch.setattr(diffusion, "posterior_sample", counting)
    rng = np.random.default_rng(9)
    synthesize_unseen(gen, protos, classes, n, config.schedule(), rng)
    assert calls == list(range(steps - 1, 0, -1)) * len(classes)
    # per class: x_T, a generator noise block per step, a posterior block per draw
    blocks = len(classes) * (1 + steps + steps - 1)
    expected = np.random.default_rng(9)
    expected.standard_normal((blocks * n, 3))
    assert rng.bit_generator.state == expected.bit_generator.state


@pytest.mark.parametrize("steps", [1, 3, 6])
@pytest.mark.parametrize("n", [1, 7, 400])
@pytest.mark.parametrize("temb_dim, slope", [(0, 0.0), (16, 1.0), (16, 0.2)])
def test_buffered_chain_gives_the_bytes_of_a_per_step_chain(steps, n, temb_dim, slope):
    config = Config(hidden_mult=2, temb_dim=temb_dim, leaky_slope=slope, diffusion_steps=steps)
    gen = Generator(5, 3, config, np.random.default_rng(4))
    protos = np.random.default_rng(5).normal(size=(4, 3))
    sched = config.schedule()
    rng, oracle_rng = np.random.default_rng(6), np.random.default_rng(6)
    x, y = synthesize_unseen(gen, protos, [2, 0, 3], n, sched, rng)
    assert x.tobytes() == _per_step_chain(gen, protos, [2, 0, 3], n, sched, oracle_rng).tobytes()
    np.testing.assert_array_equal(y, np.repeat([2, 0, 3], n))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state  # the same draws


@pytest.mark.parametrize("steps", [1, 6])
def test_a_float32_chain_gives_the_widened_bytes_of_a_float32_per_step_chain(steps):
    config = Config(hidden_mult=2, temb_dim=16, diffusion_steps=steps, dtype="float32")
    gen = Generator(5, 3, config, np.random.default_rng(4))
    protos = np.random.default_rng(5).normal(size=(4, 3))
    sched = config.schedule()
    rng, oracle_rng = np.random.default_rng(6), np.random.default_rng(6)
    x, _ = synthesize_unseen(gen, protos, [2, 0, 3], 7, sched, rng)
    chain = _per_step_chain(gen, protos, [2, 0, 3], 7, sched, oracle_rng)
    assert x.dtype == np.float64 and chain.dtype == np.float32
    assert x.tobytes() == chain.astype(np.float64).tobytes()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    with pytest.raises(UsageError, match="float64 schedule for a float32 generator"):
        synthesize_unseen(gen, protos, [2], 7, Config(diffusion_steps=steps).schedule(), rng)


def test_synthesis_peak_memory_does_not_grow_with_the_chain_length():
    def peak(steps):
        config = Config(hidden_mult=4, temb_dim=16, diffusion_steps=steps)
        gen = Generator(32, 16, config, np.random.default_rng(0))
        protos, sched = np.ones((5, 16)), config.schedule()
        tracemalloc.start()
        try:
            synthesize_unseen(gen, protos, range(5), 400, sched, np.random.default_rng(1))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(6) <= peak(2) + 16_384  # a step's few small index arrays, not a state


def test_synthesize_unseen_writes_into_out():
    gen = _tiny_gen()
    protos = np.random.default_rng(0).normal(size=(4, 2))
    sched = diffusion.build_schedule(4, 0.1, 0.4)
    x, y = synthesize_unseen(gen, protos, [1, 3], 5, sched, np.random.default_rng(9))
    host = np.full((12, 3), 7.0)
    got, got_y = synthesize_unseen(gen, protos, [1, 3], 5, sched, np.random.default_rng(9),
                                   out=host[2:])
    assert np.shares_memory(got, host) and got.tobytes() == x.tobytes()
    assert host[:2].tolist() == [[7.0] * 3] * 2
    np.testing.assert_array_equal(got_y, y)
    for bad in (np.empty((9, 3)), np.empty((10, 3), dtype=np.float32)):
        with pytest.raises(UsageError, match="out is"):
            synthesize_unseen(gen, protos, [1, 3], 5, sched, np.random.default_rng(9), out=bad)


def test_full_report_holds_one_copy_of_the_synthesized_rows():
    # 40 unseen classes x 400 rows x 32-d: the synthesized block (4.1 MB)
    # dwarfs the 200 train rows, the networks and the chain's step arrays. The
    # report's peak stays below the GZSL matrix plus one more block; a
    # report that synthesizes into its own array and then concatenates
    # holds the block twice and reads about 10.5 MB against 8.2 MB.
    n_seen, n_unseen, d, n_train, n_synth = 4, 40, 32, 50, 400
    rng = np.random.default_rng(0)
    labels = np.concatenate([np.repeat(np.arange(n_seen), n_train + 2),
                             np.repeat(np.arange(n_seen, n_seen + n_unseen), 2)])
    splits = np.array((["train"] * n_train + ["test_seen"] * 2) * n_seen
                      + ["test_unseen"] * 2 * n_unseen, dtype=object)
    roles = np.array(["seen"] * n_seen + ["unseen"] * n_unseen, dtype=object)
    ds = ZslDataset(rng.normal(size=(labels.size, d)), labels, splits,
                    rng.normal(size=(n_seen + n_unseen, 8)), roles)
    ds.validate()
    cfg = Config(hidden_mult=1, temb_dim=4, diffusion_steps=2, synth_per_class=n_synth,
                 clf_epochs=1)
    gen = Generator(d, 8, cfg, np.random.default_rng(0))
    tracemalloc.start()
    try:
        evaluate.full_report(gen, ds, cfg, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = n_unseen * n_synth * d * 8
    assert peak < n_seen * n_train * d * 8 + 2 * block


def test_synthesize_unseen_rejects_empty_budget():
    gen = _tiny_gen()
    sched = diffusion.build_schedule(4, 0.1, 0.4)
    with pytest.raises(UsageError):
        synthesize_unseen(gen, np.zeros((2, 2)), [0], 0, sched,
                          np.random.default_rng(0))


def test_synthesis_larger_than_physical_memory_is_refused_before_it_draws(tiny_ds, monkeypatch):
    gen = _tiny_gen(d=3, d_z=2)
    cfg = Config(diffusion_steps=3, beta_min=0.1, beta_max=0.4, synth_per_class=6, clf_epochs=5)
    unseen, n_train = tiny_ds.unseen_classes, int(np.count_nonzero(tiny_ds.splits == "train"))
    calls = (  # each with the bytes of the float64 matrix it allocates first
        (8 * (n_train + 6 * len(unseen)) * 3,
         lambda rng: evaluate.full_report(gen, tiny_ds, cfg, rng)),
        (8 * 6 * len(unseen) * 3,
         lambda rng: synthesize_unseen(gen, tiny_ds.prototypes, unseen, 6, cfg.schedule(), rng)),
    )
    for need, call in calls:
        monkeypatch.setattr(nets, "physical_memory", lambda: need - 1)
        rng = np.random.default_rng(0)
        message = f"synth_per_class = 6 needs a {need:,}-byte matrix .* the {need - 1:,} bytes"
        with pytest.raises(ConfigurationError, match=message):
            call(rng)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state
        monkeypatch.setattr(nets, "physical_memory", lambda: need)
        call(rng)


def _head_classes(tiny_ds, monkeypatch) -> list[list[int]]:
    """The class ids of each head that full_report trains, in order."""
    seen = []

    def recording_train_head(features, labels, class_ids, config, rng):
        seen.append(np.asarray(class_ids).tolist())
        return train_head(features, labels, class_ids, config, rng)

    monkeypatch.setattr(evaluate, "train_head", recording_train_head)
    cfg = Config(diffusion_steps=3, beta_min=0.1, beta_max=0.4,
                 synth_per_class=6, clf_epochs=5)
    evaluate.full_report(_tiny_gen(d=3, d_z=2), tiny_ds, cfg, np.random.default_rng(0))
    return seen


def test_czsl_head_covers_only_unseen(tiny_ds, monkeypatch):
    assert _head_classes(tiny_ds, monkeypatch)[0] == [2]


def test_gzsl_head_covers_union(tiny_ds, monkeypatch):
    assert _head_classes(tiny_ds, monkeypatch)[1] == [0, 1, 2]


def test_full_report_smoke(tiny_ds):
    gen = _tiny_gen(d=3, d_z=2)
    cfg = Config(diffusion_steps=3, beta_min=0.1, beta_max=0.4,
                 synth_per_class=6, clf_epochs=5)
    report = evaluate.full_report(gen, tiny_ds, config=cfg,
                                  rng=np.random.default_rng(0))
    for value in (report.czsl_acc, report.gzsl_u, report.gzsl_s, report.gzsl_h):
        assert 0.0 <= value <= 1.0
    assert report.gzsl_h == pytest.approx(
        harmonic_mean(report.gzsl_s, report.gzsl_u), abs=1e-12
    )
    line = report.format_line()
    for key in ("acc=", "u=", "s=", "h="):
        assert key in line


def test_format_line_round_trips_values():
    report = EvalReport(czsl_acc=0.5, gzsl_u=0.25, gzsl_s=0.75, gzsl_h=0.375)
    assert report.format_line() == "acc=0.500000 u=0.250000 s=0.750000 h=0.375000"
