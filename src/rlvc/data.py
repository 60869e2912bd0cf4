"""Dataset container, the four-file on-disk format, and the synthetic benchmark.

On disk a dataset is a directory of four comma-separated text files
(`DATASET_FILES`), LF line endings, no header rows:

  features.csv    N rows x d feature reals
  labels.csv      N rows: class id, split tag (train | test_seen | test_unseen)
  prototypes.csv  C rows x d_z semantic reals; row index == class id
  classes.csv     C rows: class id, role (seen | unseen)

Reals are written in repr form (shortest round-trip), so reload is exact.
Every file, and the features file `export_features` writes, is read by one
row reader and written by one row writer; a malformed line is reported as
"<file> row <i>", i the 0-based line number. The features file's
`# features n=... d=...` header fixes its shape, and its reader checks the
rows against it.

`load_dataset` keeps the arrays it parsed in `CACHE_NAME` inside the
dataset directory, stored under the directory's `fingerprint`, and a later
load whose four files hash to the same fingerprint reads the arrays from
there instead of parsing the text again. Any edit to a csv changes the
fingerprint, so the cache can never stand in for a different dataset; a
cache that is stale, damaged or unwritable only costs a parse.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import os
import re
import zipfile
from dataclasses import dataclass

import numpy as np

from .config import Config
from .errors import ConfigurationError
from .nets import label_rows
from .seeding import stream_rng

DATASET_FILES = ("features.csv", "labels.csv", "prototypes.csv", "classes.csv")
SPLIT_TAGS = ("train", "test_seen", "test_unseen")
ROLES = ("seen", "unseen")
CACHE_NAME = ".rlvc-dataset.npz"


@dataclass
class ZslDataset:
    features: np.ndarray  # (N, d)
    labels: np.ndarray  # (N,) int class ids
    splits: np.ndarray  # (N,) strings from SPLIT_TAGS
    prototypes: np.ndarray  # (C, d_z), row index == class id
    roles: np.ndarray  # (C,) strings from ROLES
    # the `fingerprint` of the directory the rows were loaded from, kept by
    # `standardize`; None for a dataset built in memory
    fingerprint: str | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.splits = np.asarray(self.splits, dtype=object)
        self.prototypes = np.asarray(self.prototypes, dtype=np.float64)
        self.roles = np.asarray(self.roles, dtype=object)

    @property
    def n_classes(self) -> int:
        return self.prototypes.shape[0]

    @property
    def feat_dim(self) -> int:
        return self.features.shape[1]

    @property
    def sem_dim(self) -> int:
        return self.prototypes.shape[1]

    @property
    def seen_classes(self) -> np.ndarray:
        return np.flatnonzero(self.roles == "seen")

    @property
    def unseen_classes(self) -> np.ndarray:
        return np.flatnonzero(self.roles == "unseen")

    def _split(self, tag: str) -> tuple[np.ndarray, np.ndarray]:
        mask = self.splits == tag
        return self.features[mask], self.labels[mask]

    @property
    def train(self) -> tuple[np.ndarray, np.ndarray]:
        return self._split("train")

    @property
    def test_seen(self) -> tuple[np.ndarray, np.ndarray]:
        return self._split("test_seen")

    @property
    def test_unseen(self) -> tuple[np.ndarray, np.ndarray]:
        return self._split("test_unseen")

    def seen_rows(self, labels) -> np.ndarray:
        """Each seen-class label's row among the sorted seen ids: row i is
        seen class `seen_classes[i]`, as in the reward model and the mined
        prototypes. `validate` guarantees that every train and test_seen
        label is a seen class; any other label is refused."""
        return label_rows(self.seen_classes, labels, "label {} is not a seen class")

    def validate(self) -> None:
        if self.features.ndim != 2 or self.features.shape[0] == 0:
            raise ConfigurationError("features must be a nonempty (N, d) matrix")
        if self.prototypes.ndim != 2:
            raise ConfigurationError("prototypes must be a (C, d_z) matrix")
        n, c = self.features.shape[0], self.n_classes
        if self.labels.shape != (n,) or self.splits.shape != (n,):
            raise ConfigurationError("labels/splits length != feature rows")
        if not np.all(np.isfinite(self.features)):
            raise ConfigurationError("non-finite feature value")
        if not np.all(np.isfinite(self.prototypes)):
            raise ConfigurationError("non-finite prototype value")
        if self.roles.shape != (c,):
            raise ConfigurationError("roles length != prototype rows")
        bad = [r for r in self.roles if r not in ROLES]
        if bad:
            raise ConfigurationError(f"unknown class role {bad[0]!r}")
        for role in ROLES:
            if role not in self.roles:
                raise ConfigurationError(f"dataset has no {role} class")
        bad = [s for s in self.splits if s not in SPLIT_TAGS]
        if bad:
            raise ConfigurationError(f"unknown split tag {bad[0]!r}")
        if np.any(self.labels < 0) or np.any(self.labels >= c):
            row = int(np.flatnonzero((self.labels < 0) | (self.labels >= c))[0])
            raise ConfigurationError(
                f"labels row {row}: class id {self.labels[row]} outside 0..{c - 1}"
            )
        # a train or test_seen row must be of a seen class, a test_unseen row not
        is_seen = np.isin(self.labels, self.seen_classes)
        bad = np.flatnonzero((self.splits == "test_unseen") == is_seen)
        if bad.size:
            i = int(bad[0])
            kind = "seen" if is_seen[i] else "unseen"
            raise ConfigurationError(
                f"labels row {i}: {self.splits[i]} sample of {kind} class {self.labels[i]}"
            )
        train_labels = set(self.train[1].tolist())
        for c_id in self.seen_classes:
            if int(c_id) not in train_labels:
                raise ConfigurationError(f"seen class {int(c_id)} has no training samples")
        unseen_labels = set(self.test_unseen[1].tolist())
        for c_id in self.unseen_classes:
            if int(c_id) not in unseen_labels:
                raise ConfigurationError(f"unseen class {int(c_id)} has no test samples")


def _write_rows(path, rows) -> None:
    """Write each row's text cells joined by commas, one LF-ended line each."""
    with open(path, "w", newline="\n") as fh:
        fh.writelines(",".join(cells) + "\n" for cells in rows)


def _real_rows(matrix: np.ndarray):
    """The rows of a real matrix as repr cells."""
    return (map(repr, row) for row in matrix.tolist())


def _read_rows(path, what: str, parse, width: int | None = None,
               comment: str | None = None) -> list:
    """`parse(cells)` for each nonblank line of `path` split on commas, in
    order. Every line must have `width` cells, or as many as the first line
    when `width` is None; lines starting with `comment` are skipped. A wrong
    cell count or a ValueError from `parse` raises ConfigurationError
    "{what} row {i}: ...", i the 0-based line number."""
    rows = []
    with open(path, "r") as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line or (comment is not None and line.startswith(comment)):
                continue
            cells = line.split(",")
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise ConfigurationError(f"{what} row {i}: expected {width} cells, got {len(cells)}")
            try:
                rows.append(parse(cells))
            except ValueError as e:
                raise ConfigurationError(f"{what} row {i}: {e}") from None
    return rows


def _reals(cells) -> list:
    return list(map(float, cells))


def _class_id(cell: str) -> int:
    try:
        return int(cell)
    except ValueError:
        raise ValueError(f"bad class id {cell!r}") from None


def _read_matrix(path, what: str) -> np.ndarray:
    rows = _read_rows(path, what, _reals)
    if not rows:
        raise ConfigurationError(f"{what}: no rows")
    return np.asarray(rows, dtype=np.float64)


def save_dataset(ds: ZslDataset, dirpath) -> None:
    ds.validate()
    os.makedirs(dirpath, exist_ok=True)
    features, labels, prototypes, classes = (os.path.join(dirpath, n) for n in DATASET_FILES)
    _write_rows(features, _real_rows(ds.features))
    _write_rows(prototypes, _real_rows(ds.prototypes))
    _write_rows(labels, ((str(int(y)), s) for y, s in zip(ds.labels, ds.splits)))
    _write_rows(classes, ((str(c), r) for c, r in enumerate(ds.roles)))


def fingerprint(dirpath) -> str:
    """The dataset's content key, in hex: one sha256 over each of the
    DATASET_FILES in order, its name and the sha256 of its bytes. Hashing
    each file apart keeps bytes moved from the end of one file to the start
    of the next from giving the same key."""
    digest = hashlib.sha256()
    for name in DATASET_FILES:
        part = hashlib.sha256()
        with open(os.path.join(dirpath, name), "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                part.update(chunk)
        digest.update(name.encode() + b"\0" + part.digest())
    return digest.hexdigest()


def load_dataset(dirpath) -> ZslDataset:
    """Read and fully validate a dataset directory; any broken invariant is
    rejected with a row-level diagnostic. The arrays come from the directory's
    cache when it was stored under the files' fingerprint; otherwise the csv
    files are parsed and the cache is (re)written. The dataset carries the
    files' fingerprint."""
    for name in DATASET_FILES:
        if not os.path.isfile(os.path.join(dirpath, name)):
            raise FileNotFoundError(f"missing {name} in {dirpath}")
    key = fingerprint(dirpath)
    cache = os.path.join(dirpath, CACHE_NAME)
    ds = _read_cache(cache, key)
    if ds is None:
        ds = _parse_dataset(dirpath)
        _write_cache(cache, key, ds)
    ds.fingerprint = key
    return ds


def _read_cache(path, key: str) -> ZslDataset | None:
    """The validated dataset stored at `path` under `key`; None when the file
    is absent, holds another key, or is unreadable or invalid in any way."""
    try:
        with np.load(path, allow_pickle=False) as npz:
            if str(npz["fingerprint"]) != key:
                return None
            ds = ZslDataset(npz["features"], npz["labels"],
                            np.array(SPLIT_TAGS, dtype=object)[npz["splits"]],
                            npz["prototypes"], np.array(ROLES, dtype=object)[npz["roles"]])
        ds.validate()
    except (OSError, ValueError, KeyError, IndexError, EOFError, zipfile.BadZipFile,
            ConfigurationError):
        return None
    return ds


def _write_cache(path, key: str, ds: ZslDataset) -> None:
    """Store `ds` at `path` under `key`: written to a temporary file, then
    renamed over `path`. A directory that cannot take the file (read-only,
    full) is left uncached."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, fingerprint=np.array(key), features=ds.features, labels=ds.labels,
                     splits=_codes(ds.splits, SPLIT_TAGS), prototypes=ds.prototypes,
                     roles=_codes(ds.roles, ROLES))
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(tmp)


def _codes(values: np.ndarray, tags: tuple) -> np.ndarray:
    """Each value's index in `tags`, as uint8."""
    return np.array([tags.index(v) for v in values], dtype=np.uint8)


def _parse_dataset(dirpath) -> ZslDataset:
    """Parse and validate the four csv files of a dataset directory."""
    features_csv, labels_csv, prototypes_csv, classes_csv = (
        os.path.join(dirpath, n) for n in DATASET_FILES
    )
    features = _read_matrix(features_csv, "features.csv")
    prototypes = _read_matrix(prototypes_csv, "prototypes.csv")

    roles_by_id: dict[int, str] = {}

    def add_role(cells) -> None:
        c, role = _class_id(cells[0]), cells[1].strip()
        if role not in ROLES:
            raise ValueError(f"unknown role {role!r}")
        if c in roles_by_id:
            raise ValueError(f"duplicate class id {c}")
        roles_by_id[c] = role

    _read_rows(classes_csv, "classes.csv", add_role, width=2)
    c_count = prototypes.shape[0]
    if sorted(roles_by_id) != list(range(c_count)):
        raise ConfigurationError(
            f"classes.csv ids must be exactly 0..{c_count - 1} (prototype row index is the class id)"
        )
    roles = [roles_by_id[c] for c in range(c_count)]

    rows = _read_rows(labels_csv, "labels.csv",
                      lambda cells: (_class_id(cells[0]), cells[1].strip()), width=2)
    if len(rows) != features.shape[0]:
        raise ConfigurationError(
            f"labels.csv has {len(rows)} rows but features.csv has {features.shape[0]}"
        )
    labels, splits = zip(*rows)
    ds = ZslDataset(features, labels, splits, prototypes, roles)
    ds.validate()
    return ds


_FEATURES_HEADER = re.compile(r"# features n=(\d+) d=(\d+)")


def export_features(matrix: np.ndarray, labels, path) -> None:
    """Write features with their class ids: one '#' header line, then rows of
    'class id, d reals'. An empty matrix yields a header-only file."""
    matrix = np.asarray(matrix, dtype=np.float64)
    labels = np.asarray(labels).reshape(-1)
    if matrix.shape[0] != labels.shape[0]:
        raise ConfigurationError("export_features: row/label count mismatch")
    d = matrix.shape[1] if matrix.ndim == 2 else 0
    header = [f"# features n={matrix.shape[0]} d={d}"]
    rows = ((str(int(y)), *cells) for y, cells in zip(labels, _real_rows(matrix)))
    _write_rows(path, itertools.chain([header], rows))


def load_features(path) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of export_features. The header fixes the shape: a file whose
    rows do not number n, or hold d reals each, raises ConfigurationError,
    and a header-only file reloads as (0, d)."""
    with open(path, "r") as fh:
        head = _FEATURES_HEADER.fullmatch(fh.readline().strip())
    if head is None:
        raise ConfigurationError(f"{path}: first line is not a '# features n=<rows> d=<width>' header")
    n, d = int(head[1]), int(head[2])
    rows = _read_rows(path, str(path), lambda cells: (int(cells[0]), _reals(cells[1:])),
                      width=d + 1, comment="#")
    if len(rows) != n:
        raise ConfigurationError(f"{path}: the header gives {n} rows, the file holds {len(rows)}")
    labels = np.array([y for y, _ in rows], dtype=np.int64)
    return np.array([x for _, x in rows], dtype=np.float64).reshape(n, d), labels


_REJECTION_ROUNDS = 500


def _assign_clusters(n_seen: int, n_unseen: int, n_clusters: int, size: int) -> np.ndarray:
    """Deterministic class -> cluster map.

    Unseen classes go first, in adjacent pairs cycling over clusters, so
    pairs of unseen classes share a cluster whenever n_unseen >= 2; seen
    classes then fill the remaining capacity cyclically. Cluster capacities
    are `size` except the final cluster, which absorbs the remainder.
    """
    c_total = n_seen + n_unseen
    cap = np.full(n_clusters, size)
    cap[-1] = c_total - size * (n_clusters - 1)
    cluster_of = np.empty(c_total, dtype=np.int64)

    def place(class_id: int, start: int) -> int:
        k = start
        while cap[k % n_clusters] == 0:
            k += 1
        cluster_of[class_id] = k % n_clusters
        cap[k % n_clusters] -= 1
        return k

    for i in range(n_unseen):
        place(n_seen + i, i // 2)
    k = 0
    for c in range(n_seen):
        k = place(c, k) + 1
    return cluster_of


def make_synthetic(config: Config) -> ZslDataset:
    """Deterministic synthetic benchmark; same config -> bitwise-same dataset.

    Classes fall into semantic clusters of semantic_cluster_size (the final
    cluster may be truncated). Unseen classes are placed in adjacent pairs
    so that some unseen classes share a cluster, and seen classes fill the
    remaining capacity cyclically, so every cluster that holds unseen
    classes also holds seen anchors. Within a cluster, prototypes are a
    shared cluster vector plus a jitter of magnitude semantic_jitter, so
    cluster members are nearly indistinguishable to a conditioner that
    ignores fine semantic differences. Visual class means are an exact
    fixed linear lift of the prototypes, rejection-tested until all
    pairwise distances reach visual_separation; exact linearity plus the
    seen anchors keep unseen means recoverable from seen supervision even
    though the jitter constraints are tiny. Seen classes are the low ids;
    unseen classes contribute test rows only.
    """
    rng = stream_rng(config.seed, "data")
    c_total = config.n_seen + config.n_unseen
    n_clusters = -(-c_total // config.semantic_cluster_size)
    cluster_of = _assign_clusters(config.n_seen, config.n_unseen, n_clusters,
                                  config.semantic_cluster_size)

    # The lift scale makes within-cluster jitter differences map to roughly
    # 2.5x the separation floor, so rejection passes quickly and the
    # semantic -> visual relation stays learnable from seen classes alone.
    # Cluster centers sit a few jitter radii apart: far enough that clusters
    # are distinct, close enough that sloppy conditioning confuses them.
    eff_jitter = max(config.semantic_jitter, 0.02)
    lift_scale = 2.5 * config.visual_separation / (2.0 * eff_jitter)
    cluster_sigma = 2.0 * eff_jitter

    means = prototypes = None
    for _ in range(_REJECTION_ROUNDS):
        clusters = rng.normal(0.0, cluster_sigma, size=(n_clusters, config.sem_dim))
        dirs = rng.normal(size=(c_total, config.sem_dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        protos = clusters[cluster_of] + config.semantic_jitter * dirs
        # means track the prototypes but are pushed at least the floor
        # apart, so jitter below the floor (including 0) keeps classes
        # visually separable while their prototypes stay ambiguous
        placed = clusters[cluster_of] + eff_jitter * dirs
        lift = rng.normal(size=(config.feat_dim, config.sem_dim)) * (
            lift_scale / np.sqrt(config.sem_dim)
        )
        candidate = placed @ lift.T
        diffs = candidate[:, None, :] - candidate[None, :, :]
        dist = np.sqrt(np.sum(diffs * diffs, axis=2))
        np.fill_diagonal(dist, np.inf)
        if dist.min() >= config.visual_separation:
            means, prototypes = candidate, protos
            break
    if means is None:
        raise ConfigurationError(
            "could not place visual means at the requested separation; "
            "increase feat_dim or lower visual_separation"
        )

    n_test = config.n_test
    feats, labels, splits = [], [], []
    for c in range(c_total):
        x = means[c] + config.visual_sigma * rng.standard_normal(
            (config.samples_per_class, config.feat_dim)
        )
        feats.append(x)
        labels.extend([c] * config.samples_per_class)
        if c < config.n_seen:
            tags = ["train"] * (config.samples_per_class - n_test) + ["test_seen"] * n_test
        else:
            tags = ["test_unseen"] * config.samples_per_class
        splits.extend(tags)

    roles = np.asarray(
        ["seen"] * config.n_seen + ["unseen"] * config.n_unseen, dtype=object
    )
    ds = ZslDataset(
        np.concatenate(feats, axis=0),
        np.asarray(labels),
        np.asarray(splits, dtype=object),
        prototypes,
        roles,
    )
    ds.validate()
    return ds


def train_stats(ds: ZslDataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate train-split mean and std (a zero std taken as 1):
    `standardize` maps x to (x - mu) / sd, and x * sd + mu maps it back."""
    train_x, _ = ds.train
    sd = train_x.std(axis=0)
    return train_x.mean(axis=0), np.where(sd > 0, sd, 1.0)


def standardize(ds: ZslDataset) -> ZslDataset:
    """Per-coordinate standardization using train-split statistics only; the
    result keeps the dataset's fingerprint."""
    mu, sd = train_stats(ds)
    return ZslDataset(
        (ds.features - mu) / sd, ds.labels, ds.splits, ds.prototypes, ds.roles, ds.fingerprint
    )
