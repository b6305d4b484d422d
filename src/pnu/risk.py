"""Unbiased empirical risk estimators for the three learning modes.

With the class prior pi known, the risk R(g) = pi*R_plus + (1-pi)*R_minus
can be estimated without bias from any two of the three sample sets:

    PN:  pi * mean_pos[l(g, +1)] + (1 - pi) * mean_neg[l(g, -1)]
    PU:  -pi + 2*pi * mean_pos[l(g, +1)] + mean_unl[l(g, -1)]
    NU:  -(1 - pi) + mean_unl[l(g, +1)] + 2*(1 - pi) * mean_neg[l(g, -1)]

The PU and NU forms are unbiased only when the loss satisfies the
symmetric condition l(t,+1) + l(t,-1) = 1; they reject other losses.  PU
and NU values may be negative, and no clamping is applied anywhere.

Every mean, in the estimators and in ``risk_true_mc``, is numpy's pairwise
sum divided by the count.  It is exact for the zero-one loss, whose values
0, 1/2 and 1 and every partial sum of fewer than 2^52 of them are
representable, so cross-validation scores do not depend on the summation
order; ramp-loss means may differ from a compensated sum in their last bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .datasets import LabeledPool, _check_pi
from .losses import LossDescriptor
from .models import DecisionModel

Mode = Literal["PN", "PU", "NU"]


def _fmean(values: np.ndarray):
    """Pairwise-summed mean over the last axis: a scalar, or one per resample."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cannot average an empty sample set")
    return np.add.reduce(values, axis=-1) / values.shape[-1]


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


def _mean_loss(model: DecisionModel, x: np.ndarray, loss: LossDescriptor, label: int):
    """Mean loss of one sample set, or of each resample of a (B, n, d) set."""
    if x.ndim == 3:
        scores = model.decision_values(x.reshape(-1, x.shape[2])).reshape(x.shape[:2])
    else:
        scores = model.decision_values(x)
    return _fmean(loss.value(scores, label))


def _risk(mode: str, model: DecisionModel, x_plus, x_minus, pi: float,
          loss: LossDescriptor) -> float | np.ndarray:
    spec = MODE_TABLE[mode]
    pi = _check_pi(pi)
    if "x_unl" in spec.sets and not loss.is_symmetric:
        raise ValueError(
            f"{mode} risk estimation requires a symmetric loss "
            f"(l(t,+1) + l(t,-1) = 1); {loss.name!r} is not"
        )
    x_plus = np.asarray(x_plus, dtype=float)
    x_minus = np.asarray(x_minus, dtype=float)
    batched = x_plus.ndim == 3
    if batched != (x_minus.ndim == 3) or (batched and x_plus.shape[0] != x_minus.shape[0]):
        raise ValueError(
            f"{mode} sample sets must share their leading resample axis or both have "
            f"none; got shapes {x_plus.shape} and {x_minus.shape}"
        )
    w_plus, w_minus = spec.weights(pi)
    plus = w_plus * _mean_loss(model, x_plus, loss, +1)
    minus = w_minus * _mean_loss(model, x_minus, loss, -1)
    # The constant meets the labeled term first and the unlabeled term is
    # added last; for PN the order of the two terms is immaterial.
    labeled, other = (minus, plus) if spec.sets[0] == "x_unl" else (plus, minus)
    value = (spec.constant(pi) + labeled) + other
    return value if batched else float(value)


def risk_pn(model: DecisionModel, x_pos, x_neg, pi: float,
            loss: LossDescriptor) -> float | np.ndarray:
    """Supervised estimator from positive and negative samples.

    Sets of rows give a float.  (B, n_pos, d) and (B, n_neg, d) sets give
    the B resamples' estimates as a (B,) array, resample k drawing on
    ``x_pos[k]`` and ``x_neg[k]``; the two sets must agree on B.
    """
    return _risk("PN", model, x_pos, x_neg, pi, loss)


def risk_pu(model: DecisionModel, x_pos, x_unl, pi: float,
            loss: LossDescriptor) -> float | np.ndarray:
    """Unbiased estimator from positive and unlabeled samples.

    Treats the unlabeled set as negatives and removes the resulting bias
    exactly via the symmetric condition; the value can be negative.  Sets
    with a leading resample axis of length B give a (B,) array, as in
    ``risk_pn``.
    """
    return _risk("PU", model, x_pos, x_unl, pi, loss)


def risk_nu(model: DecisionModel, x_unl, x_neg, pi: float,
            loss: LossDescriptor) -> float | np.ndarray:
    """Unbiased estimator from negative and unlabeled samples (PU mirrored).

    Sets with a leading resample axis of length B give a (B,) array, as in
    ``risk_pn``.
    """
    return _risk("NU", model, x_unl, x_neg, pi, loss)


def risk_true_mc(model: DecisionModel, source, loss: LossDescriptor) -> float:
    """Mean loss over a labeled evaluation source.

    ``source`` is a LabeledPool or a (features, labels) pair.  With the
    zero-one loss this is the misclassification rate, with ties at the
    decision boundary counted as half an error.

    Every row is scored under both labels and the loss of its own label is
    kept.  The mean is summed pairwise, as in the estimators (see the module
    docstring).
    """
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
    return float(_fmean(values))

