"""Dataset container, on-disk format, synthetic benchmark, seeding streams."""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

from rlvc import data as datamod
from rlvc.data import (
    ZslDataset,
    _assign_clusters,
    export_features,
    load_dataset,
    load_features,
    make_synthetic,
    save_dataset,
    standardize,
)
from rlvc.config import Config
from rlvc.errors import ConfigurationError, UsageError
from rlvc.seeding import stream_rng

from conftest import tiny_dataset


def test_fixture_round_trip_bitwise(tmp_path, tiny_ds):
    save_dataset(tiny_ds, tmp_path / "ds")
    loaded = load_dataset(tmp_path / "ds")
    assert loaded.features.tobytes() == tiny_ds.features.tobytes()
    assert loaded.prototypes.tobytes() == tiny_ds.prototypes.tobytes()
    np.testing.assert_array_equal(loaded.labels, tiny_ds.labels)
    np.testing.assert_array_equal(loaded.splits, tiny_ds.splits)
    np.testing.assert_array_equal(loaded.roles, tiny_ds.roles)


def test_split_accessors(tiny_ds):
    train_x, train_y = tiny_ds.train
    assert train_x.shape == (4, 3)
    np.testing.assert_array_equal(np.unique(train_y), [0, 1])
    np.testing.assert_array_equal(tiny_ds.seen_classes, [0, 1])
    np.testing.assert_array_equal(tiny_ds.unseen_classes, [2])
    assert tiny_ds.test_unseen[0].shape == (1, 3)


def _write_fixture(tmp_path):
    path = tmp_path / "ds"
    save_dataset(tiny_dataset(), path)
    return path


def _edit(path, name, old, new):
    f = path / name
    text = f.read_text()
    assert old in text
    f.write_text(text.replace(old, new, 1))


_CORRUPTIONS = [
    ("labels.csv", "0,train", "2,train"),  # train row with unseen label
    ("labels.csv", "2,test_unseen", "0,test_unseen"),  # unseen split, seen label
    ("labels.csv", "1,train", "7,train"),  # label outside prototype table
    ("labels.csv", "0,test_seen", "2,test_seen"),  # seen split, unseen label
    ("labels.csv", "0,train", "0,validation"),  # unknown split tag
    ("classes.csv", "1,seen", "1,sideways"),  # unknown role
    ("classes.csv", "2,unseen", "5,unseen"),  # id not contiguous
    ("features.csv", "10.5", "10.5,9.9"),  # ragged feature row
    ("features.csv", "10.5", "ten"),  # non-numeric cell
    ("prototypes.csv", "0.7,0.7\n", ""),  # prototype count != class count
    ("labels.csv", "0,test_seen\n", ""),  # label rows != feature rows
]


@pytest.mark.parametrize("name,old,new", _CORRUPTIONS)
def test_loader_rejects_single_field_corruption(tmp_path, name, old, new):
    path = _write_fixture(tmp_path)
    _edit(path, name, old, new)
    with pytest.raises(ConfigurationError):
        load_dataset(path)


@pytest.mark.parametrize("name,old,new", _CORRUPTIONS)
def test_loader_rejects_single_field_corruption_with_a_warm_cache(tmp_path, name, old, new):
    # the cache of the intact files must not stand in for the edited ones:
    # the edit is refused with the message a parse without a cache gives
    warm, cold = _write_fixture(tmp_path / "warm"), _write_fixture(tmp_path / "cold")
    load_dataset(warm)
    assert (warm / datamod.CACHE_NAME).is_file()
    messages = []
    for path in (warm, cold):
        _edit(path, name, old, new)
        with pytest.raises(ConfigurationError) as e:
            load_dataset(path)
        messages.append(str(e.value))
    assert messages[0] == messages[1]


def test_loader_rejects_duplicate_class_id(tmp_path):
    path = _write_fixture(tmp_path)
    f = path / "classes.csv"
    f.write_text(f.read_text() + "2,unseen\n")
    with pytest.raises(ConfigurationError):
        load_dataset(path)


def test_loader_rejects_missing_file(tmp_path):
    path = _write_fixture(tmp_path)
    (path / "classes.csv").unlink()
    with pytest.raises(FileNotFoundError):
        load_dataset(path)


def test_loader_reports_offending_row(tmp_path):
    path = _write_fixture(tmp_path)
    _edit(path, "labels.csv", "0,train", "2,train")
    with pytest.raises(ConfigurationError, match="row 0"):
        load_dataset(path)


def test_save_dataset_writes_these_bytes(tmp_path):
    save_dataset(tiny_dataset(), tmp_path)
    want = {
        "features.csv": b"10.0,0.0,0.0\n10.5,0.2,-0.1\n0.0,10.0,0.0\n"
                        b"0.1,10.4,0.3\n10.2,-0.3,0.1\n-0.2,0.1,10.0\n",
        "labels.csv": b"0,train\n0,train\n1,train\n1,train\n0,test_seen\n2,test_unseen\n",
        "prototypes.csv": b"1.0,0.0\n0.0,1.0\n0.7,0.7\n",
        "classes.csv": b"0,seen\n1,seen\n2,unseen\n",
    }
    assert {n: (tmp_path / n).read_bytes() for n in datamod.DATASET_FILES} == want


def test_loader_skips_blank_lines_and_counts_them_in_row_numbers(tmp_path):
    path = _write_fixture(tmp_path)
    _edit(path, "features.csv", "0.0,10.0,0.0\n", "0.0,10.0,0.0\n\n")
    np.testing.assert_array_equal(load_dataset(path).features, tiny_dataset().features)
    _edit(path, "features.csv", "0.1,10.4,0.3", "0.1,ten,0.3")  # line 4, after the blank
    with pytest.raises(ConfigurationError, match=r"^features\.csv row 4: .*'ten'"):
        load_dataset(path)


def test_loader_rejects_a_comment_line_in_a_dataset_file(tmp_path):
    path = _write_fixture(tmp_path)
    _edit(path, "features.csv", "10.0,0.0,0.0\n", "# note\n10.0,0.0,0.0\n")
    with pytest.raises(ConfigurationError, match=r"^features\.csv row 0: "):
        load_dataset(path)


@pytest.mark.parametrize("name,old", [("classes.csv", "1,seen"), ("labels.csv", "1,train")])
def test_loader_names_the_file_and_row_of_a_three_cell_row(tmp_path, name, old):
    path = _write_fixture(tmp_path)
    _edit(path, name, old, old + ",x")
    with pytest.raises(ConfigurationError, match=rf"^{name} row \d: expected 2 cells, got 3$"):
        load_dataset(path)


def test_loader_names_the_row_of_an_unknown_role_or_duplicate_class_id(tmp_path):
    path = _write_fixture(tmp_path)
    _edit(path, "classes.csv", "1,seen", "1,sideways")
    with pytest.raises(ConfigurationError, match=r"^classes\.csv row 1: unknown role 'sideways'$"):
        load_dataset(path)
    _edit(path, "classes.csv", "1,sideways", "0,seen")
    with pytest.raises(ConfigurationError, match=r"^classes\.csv row 1: duplicate class id 0$"):
        load_dataset(path)


def _synthetic_dir(path):
    save_dataset(make_synthetic(Config(n_seen=6, n_unseen=3, feat_dim=8, sem_dim=4,
                                       samples_per_class=10, semantic_cluster_size=3)), path)
    return path


def _count_parses(monkeypatch) -> list:
    """The files `_read_rows` reads from here on, by name."""
    read, real = [], datamod._read_rows
    monkeypatch.setattr(datamod, "_read_rows",
                        lambda path, what, *a, **k: read.append(what) or real(path, what, *a, **k))
    return read


def test_a_cache_hit_gives_the_parsed_arrays_without_parsing(tmp_path, monkeypatch):
    path = _synthetic_dir(tmp_path)
    assert not (path / datamod.CACHE_NAME).exists()  # save_dataset writes no cache
    read = _count_parses(monkeypatch)
    parsed = load_dataset(path)
    assert sorted(read) == sorted(datamod.DATASET_FILES)
    assert (path / datamod.CACHE_NAME).is_file()
    read.clear()
    hit = load_dataset(path)
    assert read == []
    for field in ("features", "labels", "prototypes"):
        a, b = getattr(hit, field), getattr(parsed, field)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    for field in ("splits", "roles"):
        a, b = getattr(hit, field), getattr(parsed, field)
        assert a.dtype == object and a.tolist() == b.tolist()


def _replace_in_cache(cache, **arrays):
    with np.load(cache) as npz:
        stored = dict(npz)
    stored.update(arrays)
    with open(cache, "wb") as fh:
        np.savez(fh, **stored)


@pytest.mark.parametrize("damage", ["truncated", "garbage", "stale", "bad split code",
                                    "bad role code", "bad shape"])
def test_a_damaged_cache_is_parsed_past_and_rewritten(tmp_path, monkeypatch, damage):
    path = _synthetic_dir(tmp_path)
    parsed = load_dataset(path)
    cache = path / datamod.CACHE_NAME
    good = cache.read_bytes()
    if damage == "truncated":
        cache.write_bytes(good[: len(good) // 2])
    elif damage == "garbage":
        cache.write_bytes(b"not a cache\n" * 100)
    elif damage == "stale":
        _replace_in_cache(cache, fingerprint=np.array("0" * 64))
    elif damage == "bad split code":
        _replace_in_cache(cache, splits=np.full(parsed.labels.size, 3, dtype=np.uint8))
    elif damage == "bad role code":
        _replace_in_cache(cache, roles=np.full(parsed.n_classes, 2, dtype=np.uint8))
    else:
        _replace_in_cache(cache, labels=parsed.labels[:-1])
    read = _count_parses(monkeypatch)
    loaded = load_dataset(path)
    assert sorted(read) == sorted(datamod.DATASET_FILES)
    assert loaded.features.tobytes() == parsed.features.tobytes()
    assert loaded.splits.tolist() == parsed.splits.tolist()
    assert cache.read_bytes() == good


def test_a_directory_that_cannot_take_the_cache_still_loads(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise PermissionError(f"read-only: {dst}")

    path = _write_fixture(tmp_path)
    monkeypatch.setattr(datamod.os, "replace", refuse)
    for _ in range(2):
        loaded = load_dataset(path)
        assert loaded.features.tobytes() == tiny_dataset().features.tobytes()
    assert sorted(p.name for p in path.iterdir()) == sorted(datamod.DATASET_FILES)


def test_the_cache_bytes_depend_only_on_the_dataset(tmp_path):
    caches = []
    for name in ("a", "b"):
        path = _synthetic_dir(tmp_path / name)
        load_dataset(path)
        caches.append((path / datamod.CACHE_NAME).read_bytes())
    assert caches[0] == caches[1]


def test_the_fingerprint_follows_every_byte_and_its_file(tmp_path):
    path = _write_fixture(tmp_path)
    key = datamod.fingerprint(path)
    assert key == datamod.fingerprint(path) and len(key) == 64
    _edit(path, "classes.csv", "2,unseen", "2,unseen ")
    assert datamod.fingerprint(path) != key
    # the same bytes split differently between two files
    moved = tmp_path / "moved"
    moved.mkdir()
    for name in datamod.DATASET_FILES:
        (moved / name).write_bytes((path / name).read_bytes())
    first = (moved / "features.csv").read_bytes()
    tail = first.splitlines(keepends=True)[-1]
    (moved / "features.csv").write_bytes(first[: -len(tail)])
    (moved / "labels.csv").write_bytes(tail + (path / "labels.csv").read_bytes())
    assert datamod.fingerprint(moved) != datamod.fingerprint(path)


def test_a_loaded_dataset_carries_its_fingerprint_parsed_cached_and_standardized(tmp_path):
    path = _write_fixture(tmp_path)
    key = datamod.fingerprint(path)
    parsed, cached = load_dataset(path), load_dataset(path)
    assert (path / datamod.CACHE_NAME).is_file()
    assert parsed.fingerprint == cached.fingerprint == standardize(cached).fingerprint == key
    assert tiny_dataset().fingerprint is None


def test_seen_rows_index_the_sorted_seen_ids():
    roles = np.array(["unseen", "seen", "seen", "unseen", "seen"], dtype=object)
    ds = ZslDataset(np.zeros((1, 1)), [1], ["train"], np.zeros((5, 1)), roles)
    np.testing.assert_array_equal(ds.seen_rows([4, 1, 2, 4, 1]), [2, 0, 1, 2, 0])


def test_validate_requires_train_coverage(tiny_ds):
    splits = tiny_ds.splits.copy()
    splits[(tiny_ds.labels == 1) & (splits == "train")] = "test_seen"
    broken = ZslDataset(tiny_ds.features, tiny_ds.labels, splits, tiny_ds.prototypes, tiny_ds.roles)
    with pytest.raises(ConfigurationError, match="no training samples"):
        broken.validate()


_EMPTY = {"features": np.zeros((0, 3)), "labels": [], "splits": []}
_NONFINITE_PROTOTYPE = {"prototypes": [[1.0, 0.0], [0.0, np.inf], [0.7, 0.7]]}
_UNSEEN_WITHOUT_ROWS = {"prototypes": np.ones((4, 2)),
                        "roles": ["seen", "seen", "unseen", "unseen"]}


@pytest.mark.parametrize("fields, message", [
    (_EMPTY, r"^features must be a nonempty \(N, d\) matrix$"),
    ({"features": np.float64(1.0)}, r"^features must be a nonempty \(N, d\) matrix$"),
    ({"prototypes": np.float64(1.0)}, r"^prototypes must be a \(C, d_z\) matrix$"),
    ({"prototypes": np.ones(3)}, r"^prototypes must be a \(C, d_z\) matrix$"),
    (_NONFINITE_PROTOTYPE, "^non-finite prototype value$"),
    ({"roles": ["seen", "seen"]}, "^roles length != prototype rows$"),
    ({"roles": ["seen", "seen", "held-out"]}, "^unknown class role 'held-out'$"),
    (_UNSEEN_WITHOUT_ROWS, "^unseen class 3 has no test samples$"),
], ids=["empty", "0-d features", "0-d prototypes", "1-d prototypes", "nonfinite-prototype",
        "roles-length", "unknown-role", "unseen-without-rows"])
def test_validate_refuses_a_dataset_held_in_memory(fields, message):
    tiny_dataset().validate()
    with pytest.raises(ConfigurationError, match=message):
        dataclasses.replace(tiny_dataset(), **fields).validate()


def test_loader_names_a_bad_class_id_and_an_empty_matrix_file(tmp_path):
    path = _write_fixture(tmp_path)
    _edit(path, "labels.csv", "1,train", "one,train")
    with pytest.raises(ConfigurationError, match=r"^labels.csv row 2: bad class id 'one'$"):
        load_dataset(path)
    path = _write_fixture(tmp_path / "again")
    (path / "prototypes.csv").write_text("\n")
    with pytest.raises(ConfigurationError, match="^prototypes.csv: no rows$"):
        load_dataset(path)
    assert datamod._class_id(" 7") == 7


def _first_split_fault(ds):
    """The per-row loop over labels and splits, as the reference for the
    mask `validate` uses."""
    seen = set(ds.seen_classes.tolist())
    for i, (y, s) in enumerate(zip(ds.labels, ds.splits)):
        is_seen = int(y) in seen
        if s == "train" and not is_seen:
            return f"labels row {i}: train sample of unseen class {y}"
        if s == "test_seen" and not is_seen:
            return f"labels row {i}: test_seen sample of unseen class {y}"
        if s == "test_unseen" and is_seen:
            return f"labels row {i}: test_unseen sample of seen class {y}"
    return None


def test_validate_names_the_first_split_fault_as_a_row_loop_does(tiny_ds):
    faults = 0
    for i, j in itertools.product(range(6), repeat=2):
        for yi, yj in itertools.product(range(3), repeat=2):
            labels = tiny_ds.labels.copy()
            labels[i], labels[j] = yi, yj
            ds = ZslDataset(tiny_ds.features, labels, tiny_ds.splits, tiny_ds.prototypes,
                            tiny_ds.roles)
            want = _first_split_fault(ds)
            if want is not None:
                faults += 1
                with pytest.raises(ConfigurationError) as e:
                    ds.validate()
                assert str(e.value) == want
    assert faults > 100


def test_export_features_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    mat = rng.normal(size=(7, 3)) * 1e3
    labels = rng.integers(0, 4, size=7)
    path = tmp_path / "feats.csv"
    export_features(mat, labels, path)
    got, got_labels = load_features(path)
    np.testing.assert_allclose(got, mat, atol=1e-15, rtol=0)
    assert got.tobytes() == mat.tobytes()  # repr round-trip is exact
    np.testing.assert_array_equal(got_labels, labels)


def test_export_features_refuses_a_label_count_other_than_the_row_count(tmp_path):
    path = tmp_path / "feats.csv"
    with pytest.raises(ConfigurationError, match="row/label count mismatch"):
        export_features(np.zeros((3, 2)), [0, 1], path)
    assert not path.exists()


def test_export_features_empty_and_literal(tmp_path):
    path = tmp_path / "empty.csv"
    export_features(np.zeros((0, 4)), np.zeros(0, dtype=int), path)
    assert path.read_text() == "# features n=0 d=4\n"
    got, labels = load_features(path)
    assert got.shape[0] == 0 and labels.shape[0] == 0

    lit = tmp_path / "one.csv"
    export_features(np.array([[3.5]]), np.array([9]), lit)
    assert "9,3.5\n" in lit.read_text()


def test_load_features_rejects_a_ragged_file(tmp_path):
    path = tmp_path / "feats.csv"
    path.write_text("# features n=2 d=2\n0,1.0,2.0\n1,3.0,4.0,5.0\n")
    with pytest.raises(ConfigurationError, match="row 2"):
        load_features(path)


def test_load_features_rejects_a_truncated_file(tmp_path):
    path = tmp_path / "feats.csv"
    export_features(np.arange(6.0).reshape(3, 2), np.array([0, 1, 2]), path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    with pytest.raises(ConfigurationError, match="the header gives 3 rows, the file holds 2"):
        load_features(path)


def test_load_features_keeps_the_width_of_an_empty_export(tmp_path):
    path = tmp_path / "empty.csv"
    export_features(np.zeros((0, 4)), np.zeros(0, dtype=int), path)
    got, labels = load_features(path)
    assert got.shape == (0, 4) and got.dtype == np.float64
    assert labels.shape == (0,) and labels.dtype == np.int64


@pytest.mark.parametrize("text,match", [
    ("0,1.0,2.0\n", "header"),
    ("", "header"),
    ("# features n=1 d=3\n0,1.0,2.0\n", "row 1: expected 4 cells, got 3"),
    ("# features n=1 d=2\n0,1.0,2.0\n1,3.0,4.0\n", "the header gives 1 rows, the file holds 2"),
])
def test_load_features_checks_the_rows_against_the_header(tmp_path, text, match):
    path = tmp_path / "feats.csv"
    path.write_text(text)
    with pytest.raises(ConfigurationError, match=match):
        load_features(path)


def test_make_synthetic_bitwise_deterministic():
    spec = Config(n_seen=6, n_unseen=2, feat_dim=8, sem_dim=4,
                  samples_per_class=10, semantic_cluster_size=4, seed=7)
    a = make_synthetic(spec)
    b = make_synthetic(spec)
    assert a.features.tobytes() == b.features.tobytes()
    assert a.prototypes.tobytes() == b.prototypes.tobytes()
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.splits, b.splits)


def test_make_synthetic_train_row_count():
    ds = make_synthetic(Config(samples_per_class=40))
    assert int(np.sum(ds.splits == "train")) == 20 * 40 * 8 // 10


def test_make_synthetic_mean_separation_exhaustive():
    # zero visual noise makes every sample equal its class mean, so the
    # placement floor can be scanned exactly
    spec = Config(samples_per_class=5, visual_sigma=0.0, seed=3)
    ds = make_synthetic(spec)
    means = np.stack([ds.features[ds.labels == c][0] for c in range(ds.n_classes)])
    for i in range(ds.n_classes):
        for j in range(i + 1, ds.n_classes):
            assert np.linalg.norm(means[i] - means[j]) >= spec.visual_separation


def test_make_synthetic_zero_jitter_collapses_clusters():
    spec = Config(semantic_jitter=0.0, samples_per_class=5, seed=1)
    ds = make_synthetic(spec)
    unique = np.unique(ds.prototypes, axis=0)
    assert unique.shape[0] == 5  # 25 classes / cluster size 5


def test_make_synthetic_sample_means_converge():
    spec = Config(
        n_seen=16, n_unseen=4, feat_dim=8, sem_dim=4,
        samples_per_class=10_000, semantic_cluster_size=5, seed=11,
    )
    noisy = make_synthetic(spec)
    exact = make_synthetic(
        Config(
            n_seen=16, n_unseen=4, feat_dim=8, sem_dim=4,
            samples_per_class=10_000, semantic_cluster_size=5, seed=11,
            visual_sigma=0.0,
        )
    )
    bound = 5.0 * spec.visual_sigma / np.sqrt(10_000)
    for c in range(20):
        mean_c = noisy.features[noisy.labels == c].mean(axis=0)
        true_c = exact.features[exact.labels == c][0]
        assert np.all(np.abs(mean_c - true_c) < bound)


def test_make_synthetic_rejection_exhaustion():
    # 62 classes on a one-dimensional semantic line cannot hold the
    # pairwise floor, so placement runs out of rounds
    spec = Config(n_seen=60, n_unseen=2, sem_dim=1,
                  semantic_cluster_size=1, samples_per_class=5)
    with pytest.raises(ConfigurationError, match="separation"):
        make_synthetic(spec)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_seen=0),
        dict(n_unseen=0),
        dict(feat_dim=0),
        dict(samples_per_class=1),
        dict(semantic_cluster_size=0),
        dict(semantic_jitter=-0.1),
        dict(visual_separation=0.0),
        dict(test_fraction=0.0),
        dict(test_fraction=1.0),
        dict(samples_per_class=3, test_fraction=0.01),  # empty test split
    ],
)
def test_synthetic_spec_validation(kwargs):
    with pytest.raises(ConfigurationError):
        Config(**kwargs)


def test_assign_clusters_capacities_and_pairing():
    cluster_of = _assign_clusters(20, 5, 5, 5)
    assert cluster_of.shape == (25,)
    counts = np.bincount(cluster_of, minlength=5)
    np.testing.assert_array_equal(counts, [5, 5, 5, 5, 5])
    # unseen classes 20..24 land in adjacent pairs
    assert cluster_of[20] == cluster_of[21]
    assert cluster_of[22] == cluster_of[23]
    assert cluster_of[20] != cluster_of[22]
    # every unseen-hosting cluster also hosts seen anchors
    for k in set(cluster_of[20:]):
        assert np.any(cluster_of[:20] == k)


def test_assign_clusters_truncated_final():
    cluster_of = _assign_clusters(5, 2, 3, 3)  # 7 classes, capacities 3,3,1
    counts = np.bincount(cluster_of, minlength=3)
    np.testing.assert_array_equal(counts, [3, 3, 1])


def test_standardize_uses_train_stats_only(tiny_ds):
    std = standardize(tiny_ds)
    train_x, _ = std.train
    np.testing.assert_allclose(train_x.mean(axis=0), np.zeros(3), atol=1e-12)
    np.testing.assert_allclose(train_x.std(axis=0), np.ones(3), atol=1e-12)
    # test rows use the train statistics, not their own
    raw_train, _ = tiny_ds.train
    mu, sd = raw_train.mean(axis=0), raw_train.std(axis=0)
    np.testing.assert_allclose(
        std.test_unseen[0], (tiny_ds.test_unseen[0] - mu) / sd, atol=1e-12
    )


def test_standardize_constant_coordinate_guard():
    feats = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0], [1.5, 5.0]])
    ds = ZslDataset(
        feats,
        np.array([0, 0, 1, 1]),
        np.array(["train"] * 3 + ["test_unseen"], dtype=object),
        np.array([[0.0], [1.0]]),
        np.array(["seen", "unseen"], dtype=object),
    )
    std = standardize(ds)
    assert np.all(np.isfinite(std.features))
    np.testing.assert_array_equal(std.features[:, 1], np.zeros(4))


def test_stream_rng_determinism_and_independence():
    a = stream_rng(3, "train").standard_normal(4)
    b = stream_rng(3, "train").standard_normal(4)
    np.testing.assert_array_equal(a, b)
    c = stream_rng(3, "rl").standard_normal(4)
    assert not np.array_equal(a, c)
    d = stream_rng(3, "eval", 7).standard_normal(4)
    e = stream_rng(3, "eval", 8).standard_normal(4)
    assert not np.array_equal(d, e)
    with pytest.raises(UsageError):
        stream_rng(0, "nonsense")


def test_dataset_rejects_nonfinite():
    ds = tiny_dataset()
    ds.features[0, 0] = np.nan
    with pytest.raises(ConfigurationError, match="non-finite"):
        ds.validate()
    assert datamod.SPLIT_TAGS == ("train", "test_seen", "test_unseen")
