"""Unbiased empirical risk estimators for the three learning modes.

With the class prior pi known, the risk R(g) = pi*R_plus + (1-pi)*R_minus
can be estimated without bias from any two of the three sample sets:

    PN:  pi * mean_pos[l(g, +1)] + (1 - pi) * mean_neg[l(g, -1)]
    PU:  -pi + 2*pi * mean_pos[l(g, +1)] + mean_unl[l(g, -1)]
    NU:  -(1 - pi) + mean_unl[l(g, +1)] + 2*(1 - pi) * mean_neg[l(g, -1)]

The PU and NU forms are unbiased only when the loss satisfies the
symmetric condition l(t,+1) + l(t,-1) = 1; they reject other losses.  PU
and NU values may be negative, and no clamping is applied anywhere.

The estimators accumulate their means with compensated summation so the
million-resample unbiasedness checks are free of accumulation noise;
``risk_true_mc`` scores large holdouts with numpy's pairwise sum instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .datasets import LabeledPool
from .losses import LossDescriptor
from .models import DecisionModel

Mode = Literal["PN", "PU", "NU"]


def _fmean(values: np.ndarray) -> float:
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("cannot average an empty sample set")
    return math.fsum(arr.tolist()) / arr.size


def _check_pi(pi: float) -> float:
    if not 0.0 < pi < 1.0:
        raise ValueError(f"class prior pi must be strictly inside (0, 1), got {pi}")
    return float(pi)


@dataclass(frozen=True)
class ModeSpec:
    """Estimator constant(pi) + w+ * mean_sets[0] l(g,+1) + w- * mean_sets[1] l(g,-1)."""

    sets: tuple[str, str]
    weights: Callable[[float], tuple[float, float]]
    constant: Callable[[float], float]


#: The three modes of the module docstring; the trainer, cross-validation,
#: the bounds and the harness all read them from here.
MODE_TABLE = {
    "PN": ModeSpec(("x_pos", "x_neg"), lambda pi: (pi, 1.0 - pi), lambda pi: 0.0),
    "PU": ModeSpec(("x_pos", "x_unl"), lambda pi: (2.0 * pi, 1.0), lambda pi: -pi),
    "NU": ModeSpec(("x_unl", "x_neg"), lambda pi: (1.0, 2.0 * (1.0 - pi)),
                   lambda pi: -(1.0 - pi)),
}

#: Sample sets consumed by each mode, in (+1-role, -1-role) order.
MODE_SETS = {mode: spec.sets for mode, spec in MODE_TABLE.items()}


def _risk(mode: str, model: DecisionModel, x_plus, x_minus, pi: float,
          loss: LossDescriptor) -> float:
    spec = MODE_TABLE[mode]
    pi = _check_pi(pi)
    if "x_unl" in spec.sets and not loss.is_symmetric:
        raise ValueError(
            f"{mode} risk estimation requires a symmetric loss "
            f"(l(t,+1) + l(t,-1) = 1); {loss.name!r} is not"
        )
    w_plus, w_minus = spec.weights(pi)
    plus = w_plus * _fmean(loss.value(model.decision_values(x_plus), +1))
    minus = w_minus * _fmean(loss.value(model.decision_values(x_minus), -1))
    # The constant meets the labeled term first and the unlabeled term is
    # added last; for PN the order of the two terms is immaterial.
    labeled, other = (minus, plus) if spec.sets[0] == "x_unl" else (plus, minus)
    return (spec.constant(pi) + labeled) + other


def risk_pn(model: DecisionModel, x_pos, x_neg, pi: float, loss: LossDescriptor) -> float:
    """Supervised estimator from positive and negative samples."""
    return _risk("PN", model, x_pos, x_neg, pi, loss)


def risk_pu(model: DecisionModel, x_pos, x_unl, pi: float, loss: LossDescriptor) -> float:
    """Unbiased estimator from positive and unlabeled samples.

    Treats the unlabeled set as negatives and removes the resulting bias
    exactly via the symmetric condition; the value can be negative.
    """
    return _risk("PU", model, x_pos, x_unl, pi, loss)


def risk_nu(model: DecisionModel, x_unl, x_neg, pi: float, loss: LossDescriptor) -> float:
    """Unbiased estimator from negative and unlabeled samples (PU mirrored)."""
    return _risk("NU", model, x_unl, x_neg, pi, loss)


def risk_true_mc(model: DecisionModel, source, loss: LossDescriptor) -> float:
    """Mean loss over a labeled evaluation source.

    ``source`` is a LabeledPool, a (features, labels) pair, or a zero-arg
    callable producing such a pair (a Monte-Carlo generator).  With the
    zero-one loss this is the misclassification rate, with ties at the
    decision boundary counted as half an error.

    Every row is scored under both labels and the loss of its own label is
    kept.  The losses are summed with numpy's pairwise summation, which is
    exact for the zero-one loss: its values 0, 1/2 and 1 and every partial
    sum of fewer than 2^52 of them are representable.  For other losses the
    mean may differ from a compensated sum in its last bits.
    """
    if callable(source) and not isinstance(source, LabeledPool):
        source = source()
    if isinstance(source, LabeledPool):
        feats, labels = source.features, source.labels
    else:
        feats, labels = source
    feats = np.asarray(feats, dtype=float)
    labels = np.asarray(labels)
    if feats.shape[0] == 0:
        raise ValueError("evaluation set is empty")
    if labels.shape != (feats.shape[0],):
        raise ValueError("labels must be a vector with one entry per feature row")
    scores = model.decision_values(feats)
    values = np.where(labels == 1, loss.value(scores, +1), loss.value(scores, -1))
    return float(np.add.reduce(values)) / values.size

