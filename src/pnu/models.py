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

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Cap on rows x anchors per block, shared by the kernel map and kernel
# scoring: 2**16 float64 entries (512 KiB) keep a block's distance buffer
# cache-resident, and memory stays flat in the number of rows scored.
_BLOCK_ELEMENTS = 1 << 16


def _rows_per_block(n_anchors: int) -> int:
    return max(1, _BLOCK_ELEMENTS // max(1, n_anchors))


def _as_matrix(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValueError(f"expected a vector or matrix of features, got ndim={arr.ndim}")
    return arr


def kernel_map(anchors, width: float, x) -> np.ndarray:
    """Gaussian kernel values of x against each anchor.

    Coordinate j is ``exp(-||x - anchor_j||^2 / (2 * width^2))``.  Accepts a
    single feature vector (returns a 1-D vector) or a matrix of rows
    (returns one mapped row per input row).  Squared distances are
    accumulated one coordinate at a time from explicit differences, left to
    right, so an input equal to an anchor maps to exactly 1.0 at that
    coordinate in any dimension.
    """
    if not width > 0:
        raise ValueError(f"kernel width must be positive, got {width}")
    anchors = _as_matrix(anchors)
    single = np.ndim(x) == 1
    xm = _as_matrix(x)
    if xm.shape[1] != anchors.shape[1]:
        raise ValueError(
            f"feature dimension {xm.shape[1]} does not match anchor dimension {anchors.shape[1]}"
        )
    denom = 2.0 * width * width
    n_a, d = anchors.shape
    block = _rows_per_block(n_a)
    out = np.empty((xm.shape[0], n_a))
    for start in range(0, xm.shape[0], block):
        chunk = xm[start : start + block]
        sq = np.square(chunk[:, 0, None] - anchors[None, :, 0])
        for j in range(1, d):
            sq += np.square(chunk[:, j, None] - anchors[None, :, j])
        sq /= -denom
        np.exp(sq, out=out[start : start + len(chunk)])
    return out[0] if single else out


@dataclass(frozen=True)
class EmpiricalKernelMap:
    """Feature expansion onto Gaussian kernel values against fixed anchors."""

    anchors: np.ndarray
    width: float

    def __post_init__(self) -> None:
        anchors = _as_matrix(self.anchors)
        anchors.setflags(write=False)
        object.__setattr__(self, "anchors", anchors)
        if not self.width > 0:
            raise ValueError(f"kernel width must be positive, got {self.width}")

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
        w = np.asarray(self.weights, dtype=float).ravel()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", float(self.bias))
        if self.feature_map is not None and w.size != self.feature_map.output_dim:
            raise ValueError(
                f"weight dimension {w.size} does not match kernel map output "
                f"dimension {self.feature_map.output_dim}"
            )

    @property
    def input_dim(self) -> int:
        return self.feature_map.input_dim if self.feature_map else self.weights.size

    def decision_values(self, x) -> np.ndarray:
        """Scores for a feature vector or a matrix of input rows.

        A kernel model maps and scores one block of rows at a time, so the
        full (rows x anchors) feature matrix is never formed.
        """
        xm = _as_matrix(x)
        if xm.shape[1] != self.input_dim:
            raise ValueError(
                f"input dimension {xm.shape[1]} does not match model dimension {self.input_dim}"
            )
        if self.feature_map is None:
            return xm @ self.weights + self.bias
        block = _rows_per_block(self.feature_map.output_dim)
        scores = np.empty(xm.shape[0])
        for start in range(0, xm.shape[0], block):
            rows = xm[start : start + block]
            scores[start : start + len(rows)] = self.feature_map(rows) @ self.weights
        scores += self.bias
        return scores

    def to_dict(self) -> dict:
        doc = {"weights": self.weights.tolist(), "bias": self.bias, "map": None}
        if self.feature_map is not None:
            doc["map"] = {
                "kind": "gaussian_ekm",
                "width": self.feature_map.width,
                "anchors": self.feature_map.anchors.tolist(),
            }
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "DecisionModel":
        fmap = None
        if doc.get("map") is not None:
            m = doc["map"]
            if m.get("kind") != "gaussian_ekm":
                raise ValueError(f"unknown feature map kind {m.get('kind')!r}")
            fmap = EmpiricalKernelMap(np.asarray(m["anchors"], dtype=float), float(m["width"]))
        return cls(np.asarray(doc["weights"], dtype=float), float(doc["bias"]), fmap)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load(cls, path) -> "DecisionModel":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

