"""Synthetic classification datasets, long-tail imbalancing, CSV round trip.

Generators are pure functions of their spec (seed included).  Imbalance
only removes samples; it never edits features or labels.  Test splits
are stratified so evaluation stays balanced even when training data is
long-tailed.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .numutil import index_rows, write_csv

GENERATORS = ("gaussian_mixture", "concentric_rings", "csv_file")
IMBALANCE_PROFILES = ("step", "exponential")


@dataclass
class Dataset:
    """Column-oriented sample container; immutable by convention."""

    ids: np.ndarray
    X: np.ndarray
    y: np.ndarray
    n_classes: int
    class_means: np.ndarray | None = None

    def __len__(self) -> int:
        return self.ids.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def take(self, indices) -> "Dataset":
        """Row subset by positional indices; shares the id space."""
        idx = np.asarray(indices)
        return Dataset(self.ids[idx], self.X[idx], self.y[idx], self.n_classes, self.class_means)

    @cached_property
    def _id_index(self) -> tuple[np.ndarray, np.ndarray]:
        """(ids in sorted order, their row positions), built on first use;
        ValueError names the first repeated id."""
        order = np.argsort(self.ids, kind="stable")
        sorted_ids = self.ids[order]
        repeated = sorted_ids[1:][sorted_ids[1:] == sorted_ids[:-1]]
        if repeated.size:
            raise ValueError(f"repeated sample id {repeated[0]}")
        return sorted_ids, order

    def by_ids(self, wanted) -> "Dataset":
        """Row subset by sample ids, in the order given; KeyError names the
        first id not in the dataset, ValueError the first that is not an
        integer."""
        sorted_ids, order = self._id_index
        w = index_rows(wanted, "id")
        at = np.searchsorted(sorted_ids, w)
        found = at < len(sorted_ids)
        found[found] = sorted_ids[at[found]] == w[found]
        if not found.all():
            raise KeyError(int(w[~found][0]))
        return self.take(order[at])

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.y, minlength=self.n_classes)


@dataclass
class ImbalanceSpec:
    ratio: float = 1.0
    profile: str = "step"
    minor_classes: list[int] | None = None

    def __post_init__(self):
        if not 1 <= self.ratio < np.inf:
            raise ValueError("imbalance ratio must be >= 1 and finite")
        if self.profile not in IMBALANCE_PROFILES:
            raise ValueError(f"imbalance profile must be one of {IMBALANCE_PROFILES}")
        if self.profile == "exponential" and self.minor_classes is not None:
            raise ValueError("minor_classes applies to profile 'step', not 'exponential'")
        if self.minor_classes is not None and len(self.minor_classes) == 0:
            raise ValueError("minor_classes is empty: name a class, or leave the key out")
        for i, c in enumerate(self.minor_classes or ()):
            if c in self.minor_classes[:i]:
                raise ValueError(f"repeated minor class {c}")

    def minor_classes_for(self, n_classes: int) -> list[int]:
        """Classes this spec cuts in a dataset of ``n_classes`` classes (a
        CSV's label range, not ``DatasetSpec.n_classes``): none at ratio 1,
        else the named ones, else the upper half of the class range for
        step and every class but 0 for exponential."""
        if self.ratio <= 1:
            return []
        if self.minor_classes is not None:
            return [int(c) for c in self.minor_classes]
        if self.profile == "step":
            return list(range(n_classes // 2, n_classes))
        return list(range(1, n_classes))


@dataclass
class DatasetSpec:
    generator: str = "gaussian_mixture"
    n_classes: int = 10
    dim: int = 8
    per_class: int = 100
    radius: float = 3.0
    noise: float = 1.0
    imbalance: ImbalanceSpec = field(default_factory=ImbalanceSpec)
    test_fraction: float = 0.25
    seed: int = 0
    csv_path: str | None = None

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise ValueError(f"generator must be one of {GENERATORS}")
        if not 0 < self.test_fraction < 1:
            raise ValueError("test_fraction must be in (0, 1)")
        if not (0 <= self.radius < np.inf and 0 <= self.noise < np.inf):
            raise ValueError("radius and noise must be finite and nonnegative")
        if self.generator == "csv_file" and not self.csv_path:
            raise ValueError("csv_file generator requires csv_path")
        if self.generator == "concentric_rings" and self.dim != 2:
            raise ValueError("concentric_rings is defined for dim = 2")
        if self.generator == "gaussian_mixture" and self.dim < 2:
            raise ValueError("gaussian_mixture needs dim >= 2")
        if self.generator != "csv_file":
            if self.n_classes < 2:
                raise ValueError("n_classes must be >= 2")
            if self.per_class < 1:
                raise ValueError("per_class must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


def gen_gaussian_mixture(spec: DatasetSpec) -> Dataset:
    """Isotropic Gaussian blobs with means on a seeded random sphere."""
    rng = np.random.default_rng(spec.seed)
    dirs = rng.normal(size=(spec.n_classes, spec.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    means = spec.radius * dirs
    X = np.concatenate(
        [means[c] + spec.noise * rng.normal(size=(spec.per_class, spec.dim)) for c in range(spec.n_classes)]
    )
    y = np.repeat(np.arange(spec.n_classes), spec.per_class)
    ids = np.arange(len(y), dtype=np.int64)
    return Dataset(ids, X, y.astype(np.int64), spec.n_classes, class_means=means)


def gen_concentric_rings(spec: DatasetSpec) -> Dataset:
    """Class c sits on radius (c+1)*radius with Gaussian radial noise."""
    rng = np.random.default_rng(spec.seed)
    parts = []
    for c in range(spec.n_classes):
        theta = rng.uniform(0.0, 2.0 * np.pi, size=spec.per_class)
        r = (c + 1) * spec.radius + spec.noise * rng.normal(size=spec.per_class)
        parts.append(np.column_stack([r * np.cos(theta), r * np.sin(theta)]))
    X = np.concatenate(parts)
    y = np.repeat(np.arange(spec.n_classes), spec.per_class)
    ids = np.arange(len(y), dtype=np.int64)
    return Dataset(ids, X, y.astype(np.int64), spec.n_classes)


def nearest_mean_predict(X: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Assign each row to the closest class mean (Euclidean)."""
    d2 = ((X[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


def apply_imbalance(ds: Dataset, spec: ImbalanceSpec, seed: int = 0) -> Dataset:
    """Down-sample classes to the long-tailed profile of ``spec``.

    step: classes in ``spec.minor_classes`` (default: the upper half of
    the class range) are cut to floor(N_max / ratio); the rest keep all
    samples.  exponential: class c is cut to N_max * ratio**(-c/(C-1)),
    and naming ``minor_classes`` is an error of the spec.  A named minor
    class outside ``ds``'s class range is a ValueError, at any ratio; at
    ratio 1, ``ds`` itself is returned.
    Removal is seeded-random without replacement; original row order is
    preserved among survivors.
    """
    for c in spec.minor_classes or ():
        if not 0 <= c < ds.n_classes:
            raise ValueError(f"minor class {c} out of range for {ds.n_classes} classes")
    if spec.ratio == 1:
        return ds
    counts = ds.class_counts()
    n_max = int(counts.max())
    C, ratio = ds.n_classes, spec.ratio
    if spec.profile == "step":
        minor = set(spec.minor_classes_for(C))
        targets = [int(n_max // ratio) if c in minor else int(counts[c]) for c in range(C)]
    else:
        targets = [int(n_max * ratio ** (-c / (C - 1)) + 1e-9) for c in range(C)]
    if any(t < 1 for t in targets):
        raise ValueError(f"ratio {ratio} empties a class (targets {targets})")

    rng = np.random.default_rng(seed)
    keep = np.zeros(len(ds), dtype=bool)
    for c in range(C):
        idx = np.flatnonzero(ds.y == c)
        t = min(targets[c], idx.size)
        keep[rng.choice(idx, size=t, replace=False)] = True
    return ds.take(np.flatnonzero(keep))


def split(ds: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Stratified train/test split; disjoint, union preserving.  A class of
    two or more samples puts at least one on each side, so a dataset with
    no such class is a ValueError: its test side would be empty."""
    if not 0 < test_fraction < 1:
        raise ValueError("test_fraction must be in (0, 1)")
    if ds.class_counts().max(initial=0) < 2:
        raise ValueError("no class has two samples, so the test split would be empty")
    rng = np.random.default_rng(seed)
    test_mask = np.zeros(len(ds), dtype=bool)
    for c in range(ds.n_classes):
        idx = np.flatnonzero(ds.y == c)
        if idx.size == 0:
            continue
        if idx.size < 2:
            warnings.warn(f"class {c} has a single sample; keeping it in train")
            continue
        n_test = int(np.floor(idx.size * test_fraction + 0.5))
        n_test = min(max(n_test, 1), idx.size - 1)
        test_mask[rng.choice(idx, size=n_test, replace=False)] = True
    return ds.take(np.flatnonzero(~test_mask)), ds.take(np.flatnonzero(test_mask))


def build_dataset(spec: DatasetSpec) -> tuple[Dataset, Dataset]:
    """Generate, split, then imbalance the training side only."""
    if spec.generator == "gaussian_mixture":
        full = gen_gaussian_mixture(spec)
    elif spec.generator == "concentric_rings":
        full = gen_concentric_rings(spec)
    else:
        full = load_csv(spec.csv_path)
    train, test = split(full, spec.test_fraction, spec.seed)
    return apply_imbalance(train, spec.imbalance, seed=spec.seed), test


def save_csv(ds: Dataset, path) -> None:
    """Write ``id,feature_0,...,feature_{d-1},label`` rows."""
    write_csv(
        path,
        ["id"] + [f"feature_{j}" for j in range(ds.dim)] + ["label"],
        [[i, *x, c] for i, x, c in
         zip(ds.ids.tolist(), ds.X.astype(np.float64).tolist(), ds.y.tolist())],
    )


def load_csv(path) -> Dataset:
    """Read a dataset written by save_csv; lossless round trip.

    Malformed rows, non-finite features and repeated sample ids raise
    ValueError naming the 1-based line number; labels must cover
    ``0..max`` with no gap and at least two classes.
    """
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if len(header) < 3 or header[0] != "id" or header[-1] != "label":
            raise ValueError(f"{path} line 1: header must be id,feature_*,label")
        dim = len(header) - 2
        expected = [f"feature_{j}" for j in range(dim)]
        if header[1:-1] != expected:
            raise ValueError(f"{path} line 1: feature columns must be {expected}")
        ids, feats, labels = [], [], []
        first_line: dict[int, int] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != dim + 2:
                raise ValueError(f"{path} line {lineno}: expected {dim + 2} fields, got {len(row)}")
            try:
                ids.append(int(row[0]))
                feats.append([float(v) for v in row[1:-1]])
                labels.append(int(row[-1]))
            except ValueError as e:
                raise ValueError(f"{path} line {lineno}: {e}") from None
            if not all(map(math.isfinite, feats[-1])):
                raise ValueError(f"{path} line {lineno}: non-finite feature")
            if first_line.setdefault(ids[-1], lineno) != lineno:
                raise ValueError(f"{path} line {lineno}: repeated sample id {ids[-1]}"
                                 f" (first on line {first_line[ids[-1]]})")
    if not ids:
        raise ValueError(f"{path}: no data rows")
    y = np.array(labels, dtype=np.int64)
    if y.min() < 0:
        raise ValueError(f"{path}: negative class label")
    missing = np.setdiff1d(np.arange(y.max() + 1), y)
    if missing.size:
        raise ValueError(f"{path}: labels skip class {missing[0]} of 0..{y.max()}")
    if y.max() < 1:
        raise ValueError(f"{path}: labels cover one class; at least two are needed")
    return Dataset(
        np.array(ids, dtype=np.int64),
        np.array(feats, dtype=np.float64),
        y,
        n_classes=int(y.max()) + 1,
    )
