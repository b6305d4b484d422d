"""Unbiased empirical risk estimators for the three learning modes.

With the class prior pi known, the risk R(g) = pi*R_plus + (1-pi)*R_minus
can be estimated without bias from any two of the three sample sets:

    PN:  pi * mean_pos[l(g, +1)] + (1 - pi) * mean_neg[l(g, -1)]
    PU:  -pi + 2*pi * mean_pos[l(g, +1)] + mean_unl[l(g, -1)]
    NU:  -(1 - pi) + mean_unl[l(g, +1)] + 2*(1 - pi) * mean_neg[l(g, -1)]

The PU and NU forms are unbiased only when the loss satisfies the
symmetric condition l(t,+1) + l(t,-1) = 1; they reject other losses.  PU
and NU values may be negative, and no clamping is applied anywhere.

Means are accumulated with compensated summation so the million-resample
unbiasedness checks are free of accumulation noise.
"""

from __future__ import annotations

import math
from typing import Literal

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


def _require_symmetric(loss: LossDescriptor, mode: str) -> None:
    if not loss.is_symmetric:
        raise ValueError(
            f"{mode} risk estimation requires a symmetric loss "
            f"(l(t,+1) + l(t,-1) = 1); {loss.name!r} is not"
        )


def _check_pi(pi: float) -> float:
    if not 0.0 < pi < 1.0:
        raise ValueError(f"class prior pi must be strictly inside (0, 1), got {pi}")
    return float(pi)


def risk_pn(model: DecisionModel, x_pos, x_neg, pi: float, loss: LossDescriptor) -> float:
    """Supervised estimator from positive and negative samples."""
    pi = _check_pi(pi)
    mp = _fmean(loss.value(model.decision_values(x_pos), +1))
    mn = _fmean(loss.value(model.decision_values(x_neg), -1))
    return pi * mp + (1.0 - pi) * mn


def risk_pu(model: DecisionModel, x_pos, x_unl, pi: float, loss: LossDescriptor) -> float:
    """Unbiased estimator from positive and unlabeled samples.

    Treats the unlabeled set as negatives and removes the resulting bias
    exactly via the symmetric condition; the value can be negative.
    """
    pi = _check_pi(pi)
    _require_symmetric(loss, "PU")
    mp = _fmean(loss.value(model.decision_values(x_pos), +1))
    mu = _fmean(loss.value(model.decision_values(x_unl), -1))
    return (2.0 * pi) * mp - pi + mu


def risk_nu(model: DecisionModel, x_unl, x_neg, pi: float, loss: LossDescriptor) -> float:
    """Unbiased estimator from negative and unlabeled samples (PU mirrored)."""
    pi = _check_pi(pi)
    _require_symmetric(loss, "NU")
    q = 1.0 - pi
    mu = _fmean(loss.value(model.decision_values(x_unl), +1))
    mn = _fmean(loss.value(model.decision_values(x_neg), -1))
    return (2.0 * q) * mn - q + mu


def risk_true_mc(model: DecisionModel, source, loss: LossDescriptor) -> float:
    """Mean loss over a labeled evaluation source.

    ``source`` is a LabeledPool, a (features, labels) pair, or a zero-arg
    callable producing such a pair (a Monte-Carlo generator).  With the
    zero-one loss this is the misclassification rate, with ties at the
    decision boundary counted as half an error.
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
    pos = labels == 1
    values = np.concatenate(
        [np.atleast_1d(loss.value(scores[pos], +1)), np.atleast_1d(loss.value(scores[~pos], -1))]
    )
    return math.fsum(values.tolist()) / values.size

