"""Real-valued decision functions: linear scores over raw or kernel features.

A ``DecisionModel`` is a weight vector plus bias applied either to the raw
input or to a Gaussian empirical kernel map, i.e. the vector of kernel
values against a fixed anchor set of training points.  Models are immutable
value objects; prediction is pure.

The kernel path works on row blocks: squared distances are accumulated one
coordinate at a time into caller-owned (rows x anchors) buffers, and a
kernel model scores its inputs block by block, so memory stays bounded by
two blocks per CPU used however many rows are scored.  A long input's
blocks are dealt over the CPUs this process may use, the calling thread
scoring one share; the blocks and each block's arithmetic are the same
however many CPUs there are, so the results are the same bits.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .datasets import _as_matrix, _check_width, _readonly

# Cap on rows x anchors per block, shared by the kernel map and kernel
# scoring: 2**16 float64 entries (512 KiB) keep a block's distance buffer
# cache-resident, and memory stays flat in the number of rows scored.
_BLOCK_ELEMENTS = 1 << 16


#: Row blocks per worker below which no helper thread starts.  On a 2-CPU
#: host, helpers on the 2-4-block holdouts of a 4,000-row CSV pool raised
#: the benchmark's peak RSS from 51.9 to 53.9 MiB in 4 of 4 paired runs and
#: saved no time, while the benchmark's 1e5-row kernel holdouts, hundreds
#: of blocks each, ran a third faster end to end.
_MIN_BLOCKS_PER_WORKER = 8


def _rows_per_block(n_anchors: int) -> int:
    return max(1, _BLOCK_ELEMENTS // max(1, n_anchors))


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _kernel_block(anchors_t: np.ndarray, width: float, rows: np.ndarray,
                  out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Gaussian kernel values of one block of rows, written to ``out``; no input checks.

    ``anchors_t`` is the transposed anchor matrix, C-contiguous, so each
    coordinate's anchor values are one contiguous vector.  ``out`` and
    ``scratch`` are (rows x anchors) buffers; ``scratch`` ends
    up holding the exponents.  Squared distances are accumulated one
    coordinate at a time from explicit differences, left to right, so a row
    equal to an anchor maps to exactly 1.0 at that coordinate in any
    dimension.  A distance, or its quotient by 2*width^2, too large for
    float64 becomes inf, and its kernel value exp(-inf) = 0 is exact at
    every accepted width (``_check_width``), so that overflow is not
    reported.
    """
    sq, diff = scratch, out  # ``out`` holds each coordinate's terms until the exp
    with np.errstate(over="ignore"):
        np.subtract(rows[:, 0, None], anchors_t[0], out=sq)
        np.square(sq, out=sq)
        for j in range(1, anchors_t.shape[0]):
            np.subtract(rows[:, j, None], anchors_t[j], out=diff)
            np.square(diff, out=diff)
            np.add(sq, diff, out=sq)
        np.divide(sq, -(2.0 * width * width), out=sq)
    return np.exp(sq, out=out)


def _blockwise(anchors: np.ndarray, width: float, xm: np.ndarray,
               weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Kernel map of ``xm``'s rows, or with ``weights`` its scores without a bias.

    The rows go in blocks of ``_rows_per_block`` through ``_kernel_block``,
    and a block's scores are one matvec of its mapped rows.  The blocks are
    dealt in turn over up to one worker per usable CPU, at least
    ``_MIN_BLOCKS_PER_WORKER`` blocks each.  The calling thread scores share
    0 and allocates every worker's buffers; helpers run as futures, so a
    helper's exception reaches the caller, and all are joined before the
    call returns or raises.
    """
    n_rows, n_anchors = xm.shape[0], anchors.shape[0]
    anchors_t = np.ascontiguousarray(anchors.T)
    block = _rows_per_block(n_anchors)
    starts = range(0, n_rows, block)
    workers = max(1, min(_usable_cpus(), len(starts) // _MIN_BLOCKS_PER_WORKER))
    result = np.empty((n_rows, n_anchors) if weights is None else n_rows)
    shape = (min(block, n_rows), n_anchors)
    buffers = [(np.empty(shape), None if weights is None else np.empty(shape))
               for _ in range(workers)]

    def run_share(share: int) -> None:
        scratch, mapped = buffers[share]
        for start in starts[share::workers]:
            rows = xm[start : start + block]
            n = len(rows)
            if weights is None:
                _kernel_block(anchors_t, width, rows, result[start : start + n], scratch[:n])
            else:
                z = _kernel_block(anchors_t, width, rows, mapped[:n], scratch[:n])
                np.matmul(z, weights, out=result[start : start + n])

    if workers == 1:
        run_share(0)
        return result
    with ThreadPoolExecutor(max_workers=workers - 1) as helpers:
        shares = [helpers.submit(run_share, share) for share in range(1, workers)]
        run_share(0)
        for share in shares:
            share.result()
    return result


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
    block of rows at a time (see ``_blockwise``).
    """
    _check_width(width, "kernel width")
    anchors = _as_anchors(anchors)
    xm = _as_matrix(x, "x")
    if xm.shape[1] != anchors.shape[1]:
        raise ValueError(
            f"feature dimension {xm.shape[1]} does not match anchor dimension {anchors.shape[1]}"
        )
    return _blockwise(anchors, width, xm)


@dataclass(frozen=True)
class EmpiricalKernelMap:
    """Feature expansion onto Gaussian kernel values against fixed anchors."""

    anchors: np.ndarray
    width: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "anchors", _readonly(_as_anchors(self.anchors)))
        _check_width(self.width, "kernel width")

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
        if self.feature_map is not None and w.size != self.feature_map.anchors.shape[0]:
            raise ValueError(
                f"weight dimension {w.size} does not match kernel map output "
                f"dimension {self.feature_map.anchors.shape[0]}"
            )

    @property
    def input_dim(self) -> int:
        return self.feature_map.anchors.shape[1] if self.feature_map else self.weights.size

    def decision_values(self, x) -> np.ndarray:
        """Scores for a matrix of input rows, one per row.

        A kernel model maps and scores one block of rows at a time, on every
        usable CPU for a long input (see ``_blockwise``), so the full
        (rows x anchors) feature matrix is never formed.
        """
        xm = _as_matrix(x, "x")
        if xm.shape[1] != self.input_dim:
            raise ValueError(
                f"input dimension {xm.shape[1]} does not match model dimension {self.input_dim}"
            )
        if self.feature_map is None:
            scores = xm @ self.weights
        else:
            fmap = self.feature_map
            scores = _blockwise(fmap.anchors, fmap.width, xm, self.weights)
        scores += self.bias
        return scores
