"""Margin losses for class-prior-weighted risk estimation.

Two losses live here: the zero-one loss and the scaled ramp surrogate
``max{0, min{1, (1 - t*y)/2}}``.  Both satisfy the symmetric condition

    loss(t, +1) + loss(t, -1) = 1

which is what makes risk estimation from positive-plus-unlabeled (or
negative-plus-unlabeled) samples unbiased.  The module also provides a
numeric certificate that minimizing the ramp's conditional risk recovers
the Bayes classifier sign.  The ramp's difference-of-convex split, which
CCCP training minimizes, lives with the trainer in ``training``.

All functions are pure and accept scalars or numpy arrays in the margin
argument; the label argument is a scalar in {+1, -1}.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

log = logging.getLogger(__name__)

CALIBRATION_TOL = 1e-12


def _check_label(y: int) -> int:
    if y not in (+1, -1):
        raise ValueError(f"label must be +1 or -1, got {y!r}")
    return y


def scaled_ramp(t, y):
    """Scaled ramp loss: 0 beyond margin +1, 1 beyond margin -1, linear between.

    The value for label -1 is computed as ``1 - value(t, +1)`` so that the
    symmetric condition holds exactly in floating point (evaluating the two
    clipped halves separately can be off by one ulp).
    """
    _check_label(y)
    m = np.asarray(t, dtype=float)
    out = np.subtract(1.0, m, out=np.empty_like(m))
    out *= 0.5
    # np.clip's bits on non-NaN input, without the cost of its Python wrapper.
    np.maximum(out, 0.0, out=out)
    np.minimum(out, 1.0, out=out)
    if y == -1:
        np.subtract(1.0, out, out=out)
    return float(out) if out.ndim == 0 else out


def zero_one(t, y):
    """Zero-one loss ``(1 - sign(t*y))/2`` with sign(0) defined as 0.

    The sign(0) = 0 convention makes the value at t = 0 equal to 1/2, which
    keeps the symmetric condition exact at the decision boundary.
    """
    _check_label(y)
    out = (1.0 - np.sign(np.asarray(t, dtype=float) * y)) * 0.5
    return float(out) if np.ndim(t) == 0 else out


@dataclass(frozen=True)
class LossDescriptor:
    """A margin loss and whether the PU and NU estimators may use it.

    ``value(t, y)`` maps a real margin score and a label in {+1, -1} to a
    loss in [0, 1], and ``is_symmetric`` asserts value(t,+1) + value(t,-1) = 1.
    """

    value: Callable = field(repr=False)
    is_symmetric: bool
    name: str = "loss"


SCALED_RAMP = LossDescriptor(value=scaled_ramp, is_symmetric=True, name="scaled_ramp")
ZERO_ONE = LossDescriptor(value=zero_one, is_symmetric=True, name="zero_one")


def conditional_risk(pi_plus: float, g_val):
    """Pointwise conditional risk of the scaled ramp at posterior pi_plus.

    Piecewise in the score g:

        pi_plus                              if g <= -1
        1/2 - (pi_plus - pi_minus) * g / 2   if -1 < g < +1
        pi_minus                             if g >= +1

    with pi_minus = 1 - pi_plus.
    """
    if not 0.0 <= pi_plus <= 1.0:
        raise ValueError(f"pi_plus must be in [0, 1], got {pi_plus}")
    g = np.asarray(g_val, dtype=float)
    pi_minus = 1.0 - pi_plus
    middle = 0.5 - (pi_plus - pi_minus) * g * 0.5
    out = np.where(g <= -1.0, pi_plus, np.where(g >= 1.0, pi_minus, middle))
    return float(out) if np.ndim(g_val) == 0 else out


#: The certificate's grids: posteriors in steps of 0.05 over [0, 1], and
#: scores in steps of 0.01 over [-2, 2], which reaches both saturated branches.
_PI_GRID = np.linspace(0.0, 1.0, 21)
_G_GRID = np.linspace(-2.0, 2.0, 401)


def verify_calibration() -> bool:
    """True iff a grid search certifies classification calibration.

    For every pi_plus != 1/2 on the posterior grid, the minimizer of the
    conditional risk over the score grid must have the sign of
    pi_plus - pi_minus and achieve min(pi_plus, pi_minus) within
    CALIBRATION_TOL.  The first failing (pi_plus, g) pair is logged.
    """
    for p in _PI_GRID:
        if abs(p - 0.5) < 1e-15:
            continue  # any g in [-1, 1] ties at 1/2; nothing to falsify
        risks = conditional_risk(p, _G_GRID)
        idx = int(np.argmin(risks))
        g_star, achieved = float(_G_GRID[idx]), float(risks[idx])
        target = min(p, 1.0 - p)
        want_sign = 1.0 if p > 0.5 else -1.0
        if np.sign(g_star) != want_sign or abs(achieved - target) > CALIBRATION_TOL:
            log.warning(
                "calibration violated at pi_plus=%.6g: minimizer g=%.6g achieved %.17g, want %.17g",
                p, g_star, achieved, target,
            )
            return False
    return True
