"""Data sources for the three-sample protocol.

Training data always arrives as three independent sets: positives drawn
from the positive class-conditional, negatives from the negative one, and
unlabeled points from the mixture with known positive-class prior ``pi``.
This module generates that triple from a 2-D Gaussian pair (the synthetic
task), or resamples it from a labeled benchmark pool loaded from CSV.

Unlabeled draws are made by flipping a pi-coin per point and then sampling
the matching class; the latent labels are discarded before the triple is
returned.  Every sampler is deterministic given its seed.

The input-contract rules every module checks its arguments with live here,
once each: ``_check_count`` for integer counts, ``_check_real`` for finite
reals in (0, high), with ``_check_pi`` the prior's case and ``_check_width``
the kernel width's (about 1.055e-154 to 3.471e152), ``_as_matrix`` for
matrices of finite feature rows, and ``_check_labels`` for one +1 or -1
label per row.  Each raises ValueError naming the field.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

#: Class-conditional means of the synthetic task: N(+mu, I) vs N(-mu, I)
#: with mu = (1, 1)/sqrt(2), i.e. unit-norm means at distance 2.
GAUSSIAN_MEAN = np.full(2, 1.0 / math.sqrt(2.0))

HOLDOUT_CAP = 10_000


class InsufficientDataError(ValueError):
    """A resampling request exhausted one class of the labeled pool."""


def _check_count(n, name: str, least: int = 1, like=None):
    """n itself if it is an integer of at least ``least`` (numpy integers pass, bools do not).

    A scalar must also be at most float64's largest value, so that it converts to a float.
    With an array ``like``, n must be an integer array of its shape, every entry >= least.
    """
    if isinstance(like, np.ndarray):
        ok = isinstance(n, np.ndarray) and n.dtype.kind in "iu" and n.shape == like.shape
        ok = ok and n.min() >= least
    else:
        ok = isinstance(n, numbers.Integral) and not isinstance(n, bool)
        if ok and n > sys.float_info.max:
            raise ValueError(f"{name} must be at most {sys.float_info.max:.4g}, the largest "
                             f"float64, got a {int(n).bit_length()}-bit integer")
        ok = ok and n >= least
    if not ok:
        want = {0: "a non-negative integer", 1: "a positive integer count"}.get(
            least, f"an integer of at least {least}")
        raise ValueError(f"{name} must be {want}, got {n!r}")
    return n


def _check_real(x, name: str, high: float = math.inf, arrays: bool = False):
    """x itself if it is a real number in (0, high): finite, not a bool, NaN fails.

    With ``arrays``, a numpy float array passes when it is non-empty and every entry does.
    """
    if arrays and isinstance(x, np.ndarray):
        ok = x.dtype.kind == "f" and x.size > 0 and bool(np.all((x > 0.0) & (x < high)))
    else:
        ok = isinstance(x, numbers.Real) and not isinstance(x, bool)
        ok = ok and 0.0 < x < high
    if not ok:
        want = "finite and positive" if high == math.inf else f"strictly inside (0, {high:g})"
        raise ValueError(f"{name} must be {want}, got {x!r}")
    return x


def _check_pi(pi, arrays: bool = False):
    return _check_real(pi, "class prior pi", 1.0, arrays)


def _check_width(width, name: str):
    """A kernel width: a finite positive real with 2*width^2 in [float64 min, float64 max / 746].

    Below about 1.055e-154 the kernel's divisor 2*width^2 is subnormal or
    zero, and the kernel would divide by zero.  Above about 3.471e152 a
    squared distance that overflows float64 could belong to a kernel value
    far from 0; up to it, such a distance's true value exp(-x) has
    x >= 746, which float64 rounds to exactly 0.
    """
    _check_real(width, name)
    if not sys.float_info.min <= 2.0 * float(width) * float(width) <= sys.float_info.max / 746:
        low, high = (math.sqrt(x / 2.0) for x in (sys.float_info.min, sys.float_info.max / 746))
        raise ValueError(f"{name} must lie in [{low:.4g}, {high:.4g}] so that 2*width^2 is a "
                         f"normal float64 and overflowing distances map to 0, got {width!r}")
    return width


def _as_matrix(x, name: str) -> np.ndarray:
    """x as a float matrix of finite feature rows; any other ndim, NaN or inf raises ValueError."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a matrix of feature rows, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite, got a non-finite entry (NaN or inf)")
    return arr


def _check_labels(labels, rows: int) -> np.ndarray:
    """The ``labels == 1`` mask of a vector of one +1 or -1 label per feature row."""
    labels = np.asarray(labels)
    if labels.shape != (rows,):
        raise ValueError("labels must be a vector with one entry per feature row")
    pos = labels == 1
    if not np.all(pos | (labels == -1)):
        raise ValueError("labels must contain only +1 and -1")
    return pos


def _readonly(arr: np.ndarray) -> np.ndarray:
    """A frozen C-ordered float copy; the caller's own array stays writable."""
    arr = np.array(arr, dtype=float, order="C")
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
            sets[name] = _readonly(_as_matrix(getattr(self, name), name))
            object.__setattr__(self, name, sets[name])
        dims = {a.shape[1] for a in sets.values() if a.shape[0] > 0}
        if len(dims) > 1:
            raise ValueError(f"sample sets disagree on feature dimension: {sorted(dims)}")
        _check_pi(self.pi)

    @property
    def n_pos(self) -> int:
        return self.x_pos.shape[0]

    @property
    def n_neg(self) -> int:
        return self.x_neg.shape[0]

    @property
    def n_unl(self) -> int:
        return self.x_unl.shape[0]


@dataclass(frozen=True)
class LabeledPool:
    """Labeled rows backing benchmark resampling and holdout evaluation."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        feats = _readonly(_as_matrix(self.features, "features"))
        positive = _check_labels(self.labels, feats.shape[0])
        if positive.all() or not positive.any():
            raise ValueError("pool needs at least two rows with both classes present")
        labels = _signs(positive)
        labels.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return self.features.shape[0]


def _signs(mask: np.ndarray) -> np.ndarray:
    """+1 where ``mask`` holds and -1 elsewhere: np.where(mask, 1, -1)'s values and dtype.

    Made in place from the mask's int copy, about four times as fast as that
    np.where with scalar operands.
    """
    labels = mask.astype(int)
    labels *= 2
    labels -= 1
    return labels


def _mixture_draw(rng: np.random.Generator, n: int, pi: float):
    """Draw n mixture points; returns (points, latent +-1 labels as int64).

    The stream is read as n uniforms, for the pi-coins, then an (n, 2)
    standard normal block.  The class mean is added into the normals in
    place, one coordinate at a time, with the uniforms' buffer reused for
    ``latent * GAUSSIAN_MEAN[j]``: each point is z + (+-m) exactly as if
    the mean offsets were built as their own (n, 2) array, and the only
    row-sized arrays made are the uniforms, the coins' bool mask and the
    two returned.
    """
    u = rng.random(n)
    x = rng.standard_normal((n, 2))
    latent = _signs(u < pi)
    for j, m in enumerate(GAUSSIAN_MEAN):
        np.multiply(latent, m, out=u)
        x[:, j] += u
    return x, latent


def _check_sizes(pi, n_pos, n_neg, n_unl) -> None:
    """A triple draw's prior and its three set sizes, each a non-negative integer."""
    _check_pi(pi)
    for name, n in (("n_pos", n_pos), ("n_neg", n_neg), ("n_unl", n_unl)):
        _check_count(n, name, least=0)


def gen_gaussian_artificial(n_pos: int, n_neg: int, n_unl: int, pi: float, seed) -> SampleTriple:
    """Synthetic triple from the two unit-variance Gaussians at distance 2.

    Positives come from N(+(1,1)/sqrt(2), I), negatives from the mirrored
    mean, and each unlabeled point from the pi-mixture of the two (latent
    label discarded).  Bit-identical output for a fixed seed.
    """
    _check_sizes(pi, n_pos, n_neg, n_unl)
    rng = np.random.default_rng(seed)
    x_pos = rng.standard_normal((n_pos, 2))
    x_pos += GAUSSIAN_MEAN
    x_neg = rng.standard_normal((n_neg, 2))
    x_neg -= GAUSSIAN_MEAN
    x_unl, _ = _mixture_draw(rng, n_unl, pi)
    return SampleTriple(x_pos=x_pos, x_neg=x_neg, x_unl=x_unl, pi=pi)


def gen_gaussian_labeled(n: int, pi: float, seed):
    """n labeled mixture draws, returned as (features, labels in {+1,-1})."""
    _check_pi(pi)
    _check_count(n, "n", least=0)
    rng = np.random.default_rng(seed)
    return _mixture_draw(rng, n, pi)


def _map_label_values(path, values: list[str]):
    """Map the two distinct raw label strings of the file at ``path`` to -1/+1.

    Numeric labels map by order (smaller -> -1), so {0,1} becomes {-1,+1}
    with 0 -> -1; non-numeric labels map lexicographically.
    """
    distinct = sorted(set(values))
    if len(distinct) != 2:
        raise ValueError(
            f"{path}: label column must contain exactly two distinct values, "
            f"got {len(distinct)}: {distinct[:5]}"
        )
    try:
        ordered = sorted(distinct, key=float)
    except ValueError:
        ordered = distinct
    return {ordered[0]: -1, ordered[1]: 1}


def _parse_columns(rows: list, width: int, label_idx: int):
    """(labels, features) of CSV rows, parsed a column at a time; None if any row is bad.

    A row is bad when ``_parse_lines`` would reject it; the floats are the ones
    it parses.
    """
    if any(len(row) != width for row in rows):
        return None
    columns = list(zip(*rows))
    labels = [cell.strip() for cell in columns.pop(label_idx)]
    try:
        feats = np.array([list(map(float, column)) for column in columns]).T
    except ValueError:
        return None
    if not all(labels) or not np.isfinite(feats).all():
        return None
    # C order, as row-wise parsing gives: the column sums of standardization
    # run in another order over a transposed array.
    return labels, np.ascontiguousarray(feats)


def _parse_lines(path, records: list, width: int, label_idx: int):
    """(labels, features) of CSV records, parsed line by line.

    Blank records are skipped.  The first bad line raises ValueError naming
    ``path`` and its line: a wrong field count, an empty label, a feature
    that is not a number or is not finite.
    """
    rows, labels = [], []
    for lineno, row in enumerate(records, start=2):
        if not row:
            continue
        if len(row) != width:
            raise ValueError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
        label = row[label_idx].strip()
        if not label:
            raise ValueError(f"{path}:{lineno}: empty label")
        labels.append(label)
        feats = row[:label_idx] + row[label_idx + 1 :]
        try:
            values = [float(v) for v in feats]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: non-numeric feature value ({exc})") from None
        if not all(map(math.isfinite, values)):
            bad = next(v for v, f in zip(feats, values) if not math.isfinite(f))
            raise ValueError(f"{path}:{lineno}: non-finite feature value {bad.strip()!r}")
        rows.append(values)
    return labels, np.asarray(rows, dtype=float)


def load_csv(path, label_column) -> LabeledPool:
    """Load a labeled pool from a headered, comma-separated UTF-8 file.

    A leading byte-order mark is dropped; bytes that are not UTF-8 raise
    ValueError naming ``path``.

    ``label_column`` selects the label field by header name or by integer
    index.  Every label cell must be non-blank and the label column must
    hold exactly two distinct values.  Every feature cell must be a finite
    number, small enough that its column's variance is finite in float64.
    The first bad line raises ValueError naming ``path`` and the line.
    Features are standardized per column to zero mean and unit variance
    over the full pool (constant columns are left centered), so downstream
    kernel-width grids are dataset-independent.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
        reader = csv.reader(io.StringIO(text, newline=""))
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

        records = list(reader)
    rows = [row for row in records if row]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    raw_labels, feats = (_parse_columns(rows, len(header), label_idx)
                         or _parse_lines(path, records, len(header), label_idx))
    mapping = _map_label_values(path, raw_labels)
    labels = np.array([mapping[v] for v in raw_labels], dtype=int)

    try:
        with np.errstate(over="raise"):
            mean = feats.mean(axis=0)
            std = feats.std(axis=0)
            std[std == 0.0] = 1.0
            feats = (feats - mean) / std
    except FloatingPointError:
        raise ValueError(
            f"{path}: feature values too large to standardize in float64 "
            f"(largest |value| {np.abs(feats).max():.3g})"
        ) from None

    return LabeledPool(features=feats, labels=labels)


def sample_triple_from_pool(pool: LabeledPool, n_pos: int, n_neg: int, n_unl: int,
                            pi: float, seed) -> tuple[SampleTriple, LabeledPool]:
    """Resample a disjoint training triple plus holdout from a labeled pool.

    Positives and negatives are drawn without replacement from their
    classes; each unlabeled row is drawn by flipping a pi-coin and taking
    the next unused row of the matching class (the flip is then
    discarded).  The holdout is everything left over, uniformly subsampled
    to at most 10^4 rows.  Raises InsufficientDataError naming the
    exhausted class when the pool cannot satisfy the draw, and naming the
    holdout, its row count and the class it lacks when the rows left over
    do not hold both classes.
    """
    _check_sizes(pi, n_pos, n_neg, n_unl)
    rng = np.random.default_rng(seed)
    pos_stream = rng.permutation(np.flatnonzero(pool.labels == 1))
    neg_stream = rng.permutation(np.flatnonzero(pool.labels == -1))
    to_pos = rng.random(n_unl) < pi

    heads = int(np.count_nonzero(to_pos))
    need_pos, need_neg = n_pos + heads, n_neg + n_unl - heads
    for name, need, stream in (("positive", need_pos, pos_stream),
                               ("negative", need_neg, neg_stream)):
        if need > stream.size:
            raise InsufficientDataError(
                f"{name} class exhausted: draw needs {need} rows, pool has {stream.size}")

    pos_idx = pos_stream[:n_pos]
    neg_idx = neg_stream[:n_neg]
    unl_idx = np.empty(n_unl, dtype=pos_stream.dtype)
    unl_idx[to_pos] = pos_stream[n_pos:need_pos]
    unl_idx[~to_pos] = neg_stream[n_neg:need_neg]

    used = np.concatenate([pos_idx, neg_idx, unl_idx])
    remaining = np.setdiff1d(np.arange(pool.size), used, assume_unique=False)
    if remaining.size > HOLDOUT_CAP:
        remaining = rng.choice(remaining, size=HOLDOUT_CAP, replace=False)
    holdout_idx = np.sort(remaining)
    held = pool.labels[holdout_idx]
    for name, label in (("positive", 1), ("negative", -1)):
        if not np.any(held == label):
            raise InsufficientDataError(
                f"holdout too small: {holdout_idx.size} row(s) left after the draw, "
                f"none of the {name} class"
            )

    triple = SampleTriple(
        x_pos=pool.features[pos_idx],
        x_neg=pool.features[neg_idx],
        x_unl=pool.features[unl_idx],
        pi=pi,
    )
    holdout = LabeledPool(features=pool.features[holdout_idx], labels=pool.labels[holdout_idx])
    return triple, holdout
