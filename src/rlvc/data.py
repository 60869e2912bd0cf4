"""Dataset container, the four-file on-disk format, and the synthetic benchmark.

On disk a dataset is a directory of four comma-separated text files, LF line
endings, no header rows in the matrix files:

  features.csv    N rows x d feature reals
  labels.csv      N rows: class id, split tag (train | test_seen | test_unseen)
  prototypes.csv  C rows x d_z semantic reals; row index == class id
  classes.csv     C rows: class id, role (seen | unseen)

Reals are written in repr form (shortest round-trip), so reload is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Config
from .errors import ConfigurationError
from .seeding import stream_rng

SPLIT_TAGS = ("train", "test_seen", "test_unseen")
ROLES = ("seen", "unseen")


@dataclass
class ZslDataset:
    features: np.ndarray  # (N, d)
    labels: np.ndarray  # (N,) int class ids
    splits: np.ndarray  # (N,) strings from SPLIT_TAGS
    prototypes: np.ndarray  # (C, d_z), row index == class id
    roles: np.ndarray  # (C,) strings from ROLES

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

    def validate(self) -> None:
        n, c = self.features.shape[0], self.n_classes
        if self.features.ndim != 2 or n == 0:
            raise ConfigurationError("features must be a nonempty (N, d) matrix")
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
        bad = [s for s in self.splits if s not in SPLIT_TAGS]
        if bad:
            raise ConfigurationError(f"unknown split tag {bad[0]!r}")
        if np.any(self.labels < 0) or np.any(self.labels >= c):
            row = int(np.flatnonzero((self.labels < 0) | (self.labels >= c))[0])
            raise ConfigurationError(
                f"labels row {row}: class id {self.labels[row]} outside 0..{c - 1}"
            )
        seen = set(self.seen_classes.tolist())
        for i, (y, s) in enumerate(zip(self.labels, self.splits)):
            is_seen = int(y) in seen
            if s == "train" and not is_seen:
                raise ConfigurationError(f"labels row {i}: train sample of unseen class {y}")
            if s == "test_seen" and not is_seen:
                raise ConfigurationError(f"labels row {i}: test_seen sample of unseen class {y}")
            if s == "test_unseen" and is_seen:
                raise ConfigurationError(f"labels row {i}: test_unseen sample of seen class {y}")
        train_labels = set(self.train[1].tolist())
        for c_id in self.seen_classes:
            if int(c_id) not in train_labels:
                raise ConfigurationError(f"seen class {int(c_id)} has no training samples")
        unseen_labels = set(self.test_unseen[1].tolist())
        for c_id in self.unseen_classes:
            if int(c_id) not in unseen_labels:
                raise ConfigurationError(f"unseen class {int(c_id)} has no test samples")


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_matrix(path, matrix: np.ndarray) -> None:
    with open(path, "w", newline="\n") as fh:
        for row in matrix:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _read_matrix(path, what: str) -> np.ndarray:
    rows, width = [], None
    with open(path, "r") as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise ConfigurationError(f"{what} row {i}: expected {width} cells, got {len(cells)}")
            try:
                rows.append([float(c) for c in cells])
            except ValueError as e:
                raise ConfigurationError(f"{what} row {i}: {e}") from None
    if not rows:
        raise ConfigurationError(f"{what}: no rows")
    return np.asarray(rows, dtype=np.float64)


def save_dataset(ds: ZslDataset, dirpath) -> None:
    import os

    ds.validate()
    os.makedirs(dirpath, exist_ok=True)
    _write_matrix(os.path.join(dirpath, "features.csv"), ds.features)
    _write_matrix(os.path.join(dirpath, "prototypes.csv"), ds.prototypes)
    with open(os.path.join(dirpath, "labels.csv"), "w", newline="\n") as fh:
        for y, s in zip(ds.labels, ds.splits):
            fh.write(f"{int(y)},{s}\n")
    with open(os.path.join(dirpath, "classes.csv"), "w", newline="\n") as fh:
        for c, r in enumerate(ds.roles):
            fh.write(f"{c},{r}\n")


def load_dataset(dirpath) -> ZslDataset:
    """Read and fully validate a dataset directory; any broken invariant is
    rejected with a row-level diagnostic."""
    import os

    for name in ("features.csv", "labels.csv", "prototypes.csv", "classes.csv"):
        if not os.path.isfile(os.path.join(dirpath, name)):
            raise FileNotFoundError(f"missing {name} in {dirpath}")
    features = _read_matrix(os.path.join(dirpath, "features.csv"), "features.csv")
    prototypes = _read_matrix(os.path.join(dirpath, "prototypes.csv"), "prototypes.csv")

    roles_by_id: dict[int, str] = {}
    with open(os.path.join(dirpath, "classes.csv"), "r") as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != 2:
                raise ConfigurationError(f"classes.csv row {i}: expected 'id,role'")
            try:
                c = int(cells[0])
            except ValueError:
                raise ConfigurationError(f"classes.csv row {i}: bad class id {cells[0]!r}") from None
            role = cells[1].strip()
            if role not in ROLES:
                raise ConfigurationError(f"classes.csv row {i}: unknown role {role!r}")
            if c in roles_by_id:
                raise ConfigurationError(f"classes.csv row {i}: duplicate class id {c}")
            roles_by_id[c] = role
    c_count = prototypes.shape[0]
    if sorted(roles_by_id) != list(range(c_count)):
        raise ConfigurationError(
            f"classes.csv ids must be exactly 0..{c_count - 1} (prototype row index is the class id)"
        )
    roles = np.asarray([roles_by_id[c] for c in range(c_count)], dtype=object)

    labels, splits = [], []
    with open(os.path.join(dirpath, "labels.csv"), "r") as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != 2:
                raise ConfigurationError(f"labels.csv row {i}: expected 'id,split'")
            try:
                labels.append(int(cells[0]))
            except ValueError:
                raise ConfigurationError(f"labels.csv row {i}: bad class id {cells[0]!r}") from None
            splits.append(cells[1].strip())
    if len(labels) != features.shape[0]:
        raise ConfigurationError(
            f"labels.csv has {len(labels)} rows but features.csv has {features.shape[0]}"
        )
    ds = ZslDataset(features, np.asarray(labels), np.asarray(splits, dtype=object), prototypes, roles)
    ds.validate()
    return ds


def export_features(matrix: np.ndarray, labels, path) -> None:
    """Write features with their class ids: one '#' header line, then rows of
    'class id, d reals'. An empty matrix yields a header-only file."""
    matrix = np.asarray(matrix, dtype=np.float64)
    labels = np.asarray(labels).reshape(-1)
    if matrix.shape[0] != labels.shape[0]:
        raise ConfigurationError("export_features: row/label count mismatch")
    d = matrix.shape[1] if matrix.ndim == 2 else 0
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# features n={matrix.shape[0]} d={d}\n")
        for y, row in zip(labels, matrix):
            fh.write(",".join([str(int(y))] + [_fmt(v) for v in row]) + "\n")


def load_features(path) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of export_features."""
    rows, labels = [], []
    with open(path, "r") as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cells = line.split(",")
            try:
                labels.append(int(cells[0]))
                rows.append([float(c) for c in cells[1:]])
            except ValueError as e:
                raise ConfigurationError(f"{path} row {i}: {e}") from None
    if not rows:
        return np.zeros((0, 0)), np.zeros(0, dtype=np.int64)
    return np.asarray(rows, dtype=np.float64), np.asarray(labels, dtype=np.int64)


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


def standardize(ds: ZslDataset) -> ZslDataset:
    """Per-coordinate standardization using train-split statistics only."""
    train_x, _ = ds.train
    mu = train_x.mean(axis=0)
    sd = train_x.std(axis=0)
    sd = np.where(sd > 0, sd, 1.0)
    return ZslDataset(
        (ds.features - mu) / sd, ds.labels, ds.splits, ds.prototypes, ds.roles
    )
