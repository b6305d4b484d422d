"""Real-valued decision functions: linear scores over raw or kernel features.

A ``DecisionModel`` is a weight vector plus bias applied either to the raw
input or to a Gaussian empirical kernel map, i.e. the vector of kernel
values against a fixed anchor set of training points.  Models are immutable
value objects; prediction is pure.

The kernel path works on row blocks: squared distances are accumulated one
coordinate at a time into a (rows x anchors) buffer, and a kernel model
scores its inputs block by block, so memory stays bounded by one block
however many rows are scored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .datasets import _as_matrix, _check_width, _readonly

# Cap on rows x anchors per block, shared by the kernel map and kernel
# scoring: 2**16 float64 entries (512 KiB) keep a block's distance buffer
# cache-resident, and memory stays flat in the number of rows scored.
_BLOCK_ELEMENTS = 1 << 16


def _rows_per_block(n_anchors: int) -> int:
    return max(1, _BLOCK_ELEMENTS // max(1, n_anchors))


def _kernel_block(anchors: np.ndarray, width: float, rows: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
    """Gaussian kernel values of one block of rows, written to ``out``; no input checks.

    Squared distances are accumulated one coordinate at a time from
    explicit differences, left to right, so a row equal to an anchor maps
    to exactly 1.0 at that coordinate in any dimension.  A distance, or its
    quotient by 2*width^2, too large for float64 becomes inf, and its kernel
    value exp(-inf) = 0 is exact at every accepted width (``_check_width``),
    so that overflow is not reported.
    """
    with np.errstate(over="ignore"):
        sq = np.square(rows[:, 0, None] - anchors[None, :, 0])
        for j in range(1, anchors.shape[1]):
            sq += np.square(rows[:, j, None] - anchors[None, :, j])
        sq /= -(2.0 * width * width)
    return np.exp(sq, out=out)


def _as_anchors(anchors) -> np.ndarray:
    """Anchor rows as a float matrix of at least one feature column."""
    anchors = _as_matrix(anchors, "anchors")
    if anchors.shape[1] == 0:
        raise ValueError("anchors must have at least one feature column, got 0")
    return anchors


def kernel_map(anchors, width: float, x) -> np.ndarray:
    """Gaussian kernel values of x against each anchor.

    Coordinate j is ``exp(-||x - anchor_j||^2 / (2 * width^2))``.  Takes a
    matrix of rows and returns one mapped row per input row, computed one
    block of rows at a time (see ``_kernel_block``).
    """
    _check_width(width, "kernel width")
    anchors = _as_anchors(anchors)
    xm = _as_matrix(x, "x")
    if xm.shape[1] != anchors.shape[1]:
        raise ValueError(
            f"feature dimension {xm.shape[1]} does not match anchor dimension {anchors.shape[1]}"
        )
    block = _rows_per_block(anchors.shape[0])
    out = np.empty((xm.shape[0], anchors.shape[0]))
    for start in range(0, xm.shape[0], block):
        chunk = xm[start : start + block]
        _kernel_block(anchors, width, chunk, out[start : start + len(chunk)])
    return out


@dataclass(frozen=True)
class EmpiricalKernelMap:
    """Feature expansion onto Gaussian kernel values against fixed anchors."""

    anchors: np.ndarray
    width: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "anchors", _readonly(_as_anchors(self.anchors)))
        _check_width(self.width, "kernel width")

    @property
    def output_dim(self) -> int:
        return self.anchors.shape[0]

    @property
    def input_dim(self) -> int:
        return self.anchors.shape[1]

    def __call__(self, x) -> np.ndarray:
        return kernel_map(self.anchors, self.width, x)


@dataclass(frozen=True)
class DecisionModel:
    """Linear score ``<w, map(x)> + b`` with an identity or kernel map."""

    weights: np.ndarray
    bias: float
    feature_map: Optional[EmpiricalKernelMap] = None

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=float).ravel()  # a copy: never the caller's array
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", float(self.bias))
        for name in ("weights", "bias"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"DecisionModel {name!r} must be finite, got a NaN or inf")
        if self.feature_map is not None and w.size != self.feature_map.output_dim:
            raise ValueError(
                f"weight dimension {w.size} does not match kernel map output "
                f"dimension {self.feature_map.output_dim}"
            )

    @property
    def input_dim(self) -> int:
        return self.feature_map.input_dim if self.feature_map else self.weights.size

    def decision_values(self, x) -> np.ndarray:
        """Scores for a matrix of input rows, one per row.

        A kernel model maps and scores one block of rows at a time, so the
        full (rows x anchors) feature matrix is never formed.
        """
        xm = _as_matrix(x, "x")
        if xm.shape[1] != self.input_dim:
            raise ValueError(
                f"input dimension {xm.shape[1]} does not match model dimension {self.input_dim}"
            )
        if self.feature_map is None:
            return xm @ self.weights + self.bias
        fmap = self.feature_map
        block = _rows_per_block(fmap.output_dim)
        mapped = np.empty((min(block, xm.shape[0]), fmap.output_dim))
        scores = np.empty(xm.shape[0])
        for start in range(0, xm.shape[0], block):
            rows = xm[start : start + block]
            z = _kernel_block(fmap.anchors, fmap.width, rows, mapped[: len(rows)])
            scores[start : start + len(rows)] = z @ self.weights
        scores += self.bias
        return scores
