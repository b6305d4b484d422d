"""Unbiased empirical risk estimators for the three learning modes.

With the class prior pi known, the risk R(g) = pi*R_plus + (1-pi)*R_minus
can be estimated without bias from any two of the three sample sets:

    PN:  pi * mean_pos[l(g, +1)] + (1 - pi) * mean_neg[l(g, -1)]
    PU:  -pi + 2*pi * mean_pos[l(g, +1)] + mean_unl[l(g, -1)]
    NU:  -(1 - pi) + mean_unl[l(g, +1)] + 2*(1 - pi) * mean_neg[l(g, -1)]

The PU and NU forms are unbiased only when the loss satisfies the
symmetric condition l(t,+1) + l(t,-1) = 1; they reject other losses.  PU
and NU values may be negative, and no clamping is applied anywhere.

``risk_true_mc`` measures a model's risk on labeled rows.  On the synthetic
source of ``gen_gaussian_*`` a linear model's risk has a closed form,
``risk_true_gaussian``, which needs no draw at all.

Every mean, in the estimators and in ``risk_true_mc``, is numpy's pairwise
sum divided by the count.  It is exact for the zero-one loss, whose values
0, 1/2 and 1 and every partial sum of fewer than 2^52 of them are
representable, so cross-validation scores do not depend on the summation
order; ramp-loss means may differ from a compensated sum in their last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .datasets import GAUSSIAN_MEAN, LabeledPool, _check_labels, _check_pi
from .losses import SCALED_RAMP, ZERO_ONE, LossDescriptor
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
    """Mean loss of an (n, d) sample set, or of each resample of a (B, n, d) set."""
    scores = model.decision_values(x.reshape(-1, x.shape[-1])).reshape(x.shape[:-1])
    return _fmean(loss.value(scores, label))


def _risk(mode: str, model: DecisionModel, x_plus, x_minus, pi: float,
          loss: LossDescriptor) -> float | np.ndarray:
    spec = MODE_TABLE[mode]
    pi = float(_check_pi(pi))
    if "x_unl" in spec.sets and not loss.is_symmetric:
        raise ValueError(
            f"{mode} risk estimation requires a symmetric loss "
            f"(l(t,+1) + l(t,-1) = 1); {loss.name!r} is not"
        )
    x_plus = np.asarray(x_plus, dtype=float)
    x_minus = np.asarray(x_minus, dtype=float)
    batched = x_plus.ndim == 3
    if (x_plus.ndim not in (2, 3) or x_minus.ndim != x_plus.ndim
            or (batched and x_plus.shape[0] != x_minus.shape[0])):
        raise ValueError(
            f"{mode} sample sets must both be (n, d), or both (B, n, d) sharing their "
            f"leading resample axis; got shapes {x_plus.shape} and {x_minus.shape}"
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
        feats, positive = source.features, source.labels == 1
    else:
        feats, labels = source
        feats = np.asarray(feats, dtype=float)
        positive = _check_labels(labels, feats.shape[0])
    if feats.shape[0] == 0:
        raise ValueError("evaluation set is empty")
    scores = model.decision_values(feats)
    values = np.where(positive, loss.value(scores, +1), loss.value(scores, -1))
    return float(_fmean(values))


def _pdf(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _gaussian_margin_loss(a: float, s: float, loss: LossDescriptor) -> float:
    """Mean loss at label +1 of a margin drawn from N(a, s^2), s > 0."""
    if loss is ZERO_ONE:
        return _cdf(-a / s)  # the tie m = 0 has probability 0
    # The ramp is 1 below m = -1, (1 - m)/2 on [-1, 1] and 0 above 1.
    u0, u1 = (-1.0 - a) / s, (1.0 - a) / s
    return _cdf(u0) + 0.5 * ((1.0 - a) * (_cdf(u1) - _cdf(u0)) + s * (_pdf(u1) - _pdf(u0)))


def risk_true_gaussian(model: DecisionModel, pi: float, loss: LossDescriptor) -> float:
    """Exact risk of a linear model on the synthetic source at prior pi.

    Class y draws N(y*mu, I) with mu = ``GAUSSIAN_MEAN``, so the margin
    y*(w.x + b) of a class-y row is Gaussian with mean a_y = w.mu + y*b and
    standard deviation s = ||w||, and the risk is
    pi*E[l(a_+ + s*Z)] + (1 - pi)*E[l(a_- + s*Z)] with l the loss at label
    +1.  For the zero-one loss a class term is Phi(-a/s); for the scaled
    ramp, with u0 = (-1 - a)/s and u1 = (1 - a)/s, it is
    Phi(u0) + ((1 - a)*(Phi(u1) - Phi(u0)) + s*(phi(u1) - phi(u0)))/2.  A
    zero weight vector scores the bias b on every row, a point mass, so
    the risk is then pi*l(b, +1) + (1 - pi)*l(b, -1) exactly.

    Only the ``ZERO_ONE`` and ``SCALED_RAMP`` risks of linear models on
    2-D rows have this closed form; anything else raises ValueError.
    """
    pi = float(_check_pi(pi))
    if loss is not ZERO_ONE and loss is not SCALED_RAMP:
        raise ValueError(f"the exact synthetic risk needs ZERO_ONE or SCALED_RAMP, "
                         f"got {loss.name!r}")
    if model.feature_map is not None or model.input_dim != GAUSSIAN_MEAN.size:
        raise ValueError(f"the exact synthetic risk needs a linear model on "
                         f"{GAUSSIAN_MEAN.size}-D rows")
    s = math.hypot(*model.weights)
    if s == 0.0:
        return pi * loss.value(model.bias, +1) + (1.0 - pi) * loss.value(model.bias, -1)
    w_mu = float(model.weights @ GAUSSIAN_MEAN)
    return (pi * _gaussian_margin_loss(w_mu + model.bias, s, loss)
            + (1.0 - pi) * _gaussian_margin_loss(w_mu - model.bias, s, loss))
