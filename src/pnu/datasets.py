"""Data sources for the three-sample protocol.

Training data always arrives as three independent sets: positives drawn
from the positive class-conditional, negatives from the negative one, and
unlabeled points from the mixture with known positive-class prior ``pi``.
This module generates that triple from a 2-D Gaussian pair (the synthetic
task), or resamples it from a labeled benchmark pool loaded from CSV.

Unlabeled draws are made by flipping a pi-coin per point and then sampling
the matching class; the latent labels are discarded before the triple is
returned.  Every sampler is deterministic given its seed.
"""

from __future__ import annotations

import csv
import hashlib
import logging
import math
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

#: Class-conditional means of the synthetic task: N(+mu, I) vs N(-mu, I)
#: with mu = (1, 1)/sqrt(2), i.e. unit-norm means at distance 2.
GAUSSIAN_MEAN = np.full(2, 1.0 / math.sqrt(2.0))

HOLDOUT_CAP = 10_000


class InsufficientDataError(ValueError):
    """A resampling request exhausted one class of the labeled pool."""


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SampleTriple:
    """Independent positive / negative / unlabeled samples with known prior."""

    x_pos: np.ndarray
    x_neg: np.ndarray
    x_unl: np.ndarray
    pi: float

    def __post_init__(self) -> None:
        sets = {}
        for name in ("x_pos", "x_neg", "x_unl"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 2:
                raise ValueError(f"{name} must be a 2-D matrix, got ndim={arr.ndim}")
            sets[name] = _readonly(arr)
            object.__setattr__(self, name, sets[name])
        dims = {a.shape[1] for a in sets.values() if a.shape[0] > 0}
        if len(dims) > 1:
            raise ValueError(f"sample sets disagree on feature dimension: {sorted(dims)}")
        if not 0.0 < self.pi < 1.0:
            raise ValueError(f"class prior pi must be strictly inside (0, 1), got {self.pi}")

    @property
    def d(self) -> int:
        for arr in (self.x_pos, self.x_neg, self.x_unl):
            if arr.shape[0] > 0:
                return arr.shape[1]
        return self.x_pos.shape[1]

    @property
    def n_pos(self) -> int:
        return self.x_pos.shape[0]

    @property
    def n_neg(self) -> int:
        return self.x_neg.shape[0]

    @property
    def n_unl(self) -> int:
        return self.x_unl.shape[0]

    def fingerprint(self) -> str:
        """Content hash used to assert shared-sample fairness across modes."""
        h = hashlib.sha256()
        for arr in (self.x_pos, self.x_neg, self.x_unl):
            h.update(np.ascontiguousarray(arr).tobytes())
            h.update(str(arr.shape).encode())
        h.update(repr(self.pi).encode())
        return h.hexdigest()


@dataclass(frozen=True)
class LabeledPool:
    """Labeled rows backing benchmark resampling and holdout evaluation."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        feats = _readonly(np.asarray(self.features, dtype=float))
        labels = np.asarray(self.labels)
        if feats.ndim != 2:
            raise ValueError(f"features must be a 2-D matrix, got ndim={feats.ndim}")
        if labels.shape != (feats.shape[0],):
            raise ValueError("labels must be a vector with one entry per feature row")
        if not np.all(np.isin(labels, (-1, 1))):
            raise ValueError("labels must contain only +1 and -1")
        labels = labels.astype(int)
        labels.setflags(write=False)
        if feats.shape[0] < 2 or len(np.unique(labels)) < 2:
            raise ValueError("pool needs at least two rows with both classes present")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def p_ratio(self) -> float:
        return float(np.mean(self.labels == 1))

    def pos_indices(self) -> np.ndarray:
        return np.flatnonzero(self.labels == 1)

    def neg_indices(self) -> np.ndarray:
        return np.flatnonzero(self.labels == -1)


def _mixture_draw(rng: np.random.Generator, n: int, pi: float):
    """Draw n mixture points; returns (points, latent +-1 labels)."""
    latent = np.where(rng.random(n) < pi, 1, -1)
    x = rng.standard_normal((n, 2)) + latent[:, None] * GAUSSIAN_MEAN
    return x, latent


def gen_gaussian_artificial(n_pos: int, n_neg: int, n_unl: int, pi: float, seed) -> SampleTriple:
    """Synthetic triple from the two unit-variance Gaussians at distance 2.

    Positives come from N(+(1,1)/sqrt(2), I), negatives from the mirrored
    mean, and each unlabeled point from the pi-mixture of the two (latent
    label discarded).  Bit-identical output for a fixed seed.
    """
    if not 0.0 < pi < 1.0:
        raise ValueError(f"class prior pi must be strictly inside (0, 1), got {pi}")
    for name, n in (("n_pos", n_pos), ("n_neg", n_neg), ("n_unl", n_unl)):
        if n < 0:
            raise ValueError(f"{name} must be non-negative, got {n}")
    rng = np.random.default_rng(seed)
    x_pos = rng.standard_normal((n_pos, 2)) + GAUSSIAN_MEAN
    x_neg = rng.standard_normal((n_neg, 2)) - GAUSSIAN_MEAN
    x_unl, _ = _mixture_draw(rng, n_unl, pi)
    return SampleTriple(x_pos=x_pos, x_neg=x_neg, x_unl=x_unl, pi=pi)


def gen_gaussian_labeled(n: int, pi: float, seed):
    """n labeled mixture draws, returned as (features, labels in {+1,-1})."""
    if not 0.0 < pi < 1.0:
        raise ValueError(f"class prior pi must be strictly inside (0, 1), got {pi}")
    rng = np.random.default_rng(seed)
    return _mixture_draw(rng, n, pi)


def _map_label_values(values: list[str]):
    """Map the two distinct raw label strings to -1/+1.

    Numeric labels map by order (smaller -> -1), so {0,1} becomes {-1,+1}
    with 0 -> -1; non-numeric labels map lexicographically.
    """
    distinct = sorted(set(values))
    if len(distinct) != 2:
        raise ValueError(
            f"label column must contain exactly two distinct values, got {len(distinct)}: "
            f"{distinct[:5]}"
        )
    try:
        ordered = sorted(distinct, key=float)
    except ValueError:
        ordered = distinct
    return {ordered[0]: -1, ordered[1]: 1}


def load_csv(path, label_column) -> LabeledPool:
    """Load a labeled pool from a headered, comma-separated UTF-8 file.

    ``label_column`` selects the label field by header name or by integer
    index.  Every feature cell must be a finite number.  Features are
    standardized per column to zero mean and unit variance over the full
    pool (constant columns are left centered), so downstream kernel-width
    grids are dataset-independent.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if isinstance(label_column, str) and label_column in header:
            label_idx = header.index(label_column)
        else:
            try:
                label_idx = int(label_column)
            except (TypeError, ValueError):
                raise ValueError(
                    f"{path}: label column {label_column!r} not found in header {header}"
                ) from None
            if not -len(header) <= label_idx < len(header):
                raise ValueError(f"{path}: label column index {label_idx} out of range")
            label_idx %= len(header)
        if len(header) < 2:
            raise ValueError(f"{path}: no feature column besides the label")

        rows, raw_labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
            raw_labels.append(row[label_idx].strip())
            feats = row[:label_idx] + row[label_idx + 1 :]
            try:
                values = [float(v) for v in feats]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric feature value ({exc})") from None
            if not all(map(math.isfinite, values)):
                bad = next(v for v, f in zip(feats, values) if not math.isfinite(f))
                raise ValueError(f"{path}:{lineno}: non-finite feature value {bad.strip()!r}")
            rows.append(values)

    if not rows:
        raise ValueError(f"{path}: no data rows")
    mapping = _map_label_values(raw_labels)
    labels = np.array([mapping[v] for v in raw_labels], dtype=int)
    feats = np.asarray(rows, dtype=float)

    mean = feats.mean(axis=0)
    std = feats.std(axis=0)
    std[std == 0.0] = 1.0
    feats = (feats - mean) / std

    pool = LabeledPool(features=feats, labels=labels)
    log.info(
        "loaded %s: %d rows, %d features, P ratio %.3f", path, pool.size, pool.dim, pool.p_ratio
    )
    return pool


@dataclass(frozen=True)
class _DrawInfo:
    """Bookkeeping for one pool resampling (index-level, test support)."""

    pos_idx: np.ndarray
    neg_idx: np.ndarray
    unl_idx: np.ndarray
    unl_latent: np.ndarray
    holdout_idx: np.ndarray


def _sample_triple_with_info(pool: LabeledPool, n_pos: int, n_neg: int, n_unl: int,
                             pi: float, seed):
    if not 0.0 < pi < 1.0:
        raise ValueError(f"class prior pi must be strictly inside (0, 1), got {pi}")
    rng = np.random.default_rng(seed)
    pos_stream = rng.permutation(pool.pos_indices())
    neg_stream = rng.permutation(pool.neg_indices())
    flips = np.where(rng.random(n_unl) < pi, 1, -1)

    need_pos = n_pos + int(np.sum(flips == 1))
    need_neg = n_neg + int(np.sum(flips == -1))
    if need_pos > pos_stream.size:
        raise InsufficientDataError(
            f"positive class exhausted: draw needs {need_pos} rows, pool has {pos_stream.size}"
        )
    if need_neg > neg_stream.size:
        raise InsufficientDataError(
            f"negative class exhausted: draw needs {need_neg} rows, pool has {neg_stream.size}"
        )

    pos_idx = pos_stream[:n_pos]
    neg_idx = neg_stream[:n_neg]
    unl_idx = np.empty(n_unl, dtype=pos_stream.dtype)
    unl_idx[flips == 1] = pos_stream[n_pos:need_pos]
    unl_idx[flips == -1] = neg_stream[n_neg:need_neg]

    used = np.concatenate([pos_idx, neg_idx, unl_idx])
    remaining = np.setdiff1d(np.arange(pool.size), used, assume_unique=False)
    if remaining.size > HOLDOUT_CAP:
        remaining = rng.choice(remaining, size=HOLDOUT_CAP, replace=False)
    holdout_idx = np.sort(remaining)

    triple = SampleTriple(
        x_pos=pool.features[pos_idx],
        x_neg=pool.features[neg_idx],
        x_unl=pool.features[unl_idx],
        pi=pi,
    )
    holdout = LabeledPool(features=pool.features[holdout_idx], labels=pool.labels[holdout_idx])
    info = _DrawInfo(pos_idx=pos_idx, neg_idx=neg_idx, unl_idx=unl_idx,
                     unl_latent=flips, holdout_idx=holdout_idx)
    return triple, holdout, info


def sample_triple_from_pool(pool: LabeledPool, n_pos: int, n_neg: int, n_unl: int,
                            pi: float, seed) -> tuple[SampleTriple, LabeledPool]:
    """Resample a disjoint training triple plus holdout from a labeled pool.

    Positives and negatives are drawn without replacement from their
    classes; each unlabeled row is drawn by flipping a pi-coin and taking
    the next unused row of the matching class (the flip is then
    discarded).  The holdout is everything left over, uniformly subsampled
    to at most 10^4 rows.  Raises InsufficientDataError naming the
    exhausted class when the pool cannot satisfy the draw.
    """
    triple, holdout, _ = _sample_triple_with_info(pool, n_pos, n_neg, n_unl, pi, seed)
    return triple, holdout
