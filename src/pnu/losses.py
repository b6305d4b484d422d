"""Margin losses for class-prior-weighted risk estimation.

Two losses live here: the zero-one loss and the scaled ramp surrogate
``max{0, min{1, (1 - t*y)/2}}``.  Both satisfy the symmetric condition

    loss(t, +1) + loss(t, -1) = 1

which is what makes risk estimation from positive-plus-unlabeled (or
negative-plus-unlabeled) samples unbiased.  The module also provides the
difference-of-convex split of the ramp, whose convex part (``half_hinge``)
the CCCP trainer evaluates, and a numeric certificate that minimizing the
ramp's conditional risk recovers the Bayes classifier sign.

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


def half_hinge(t, y):
    """The half-scaled hinge ``max(0, (1 - t*y)/2)``, the convex part of ``dc_split``."""
    _check_label(y)
    m = np.asarray(t, dtype=float)
    out = np.empty_like(m)
    # 1 + t is exactly 1 - (-t), so both labels give the bits of (1 - t*y)/2.
    if y == +1:
        np.subtract(1.0, m, out=out)
    else:
        np.add(1.0, m, out=out)
    out *= 0.5
    np.maximum(0.0, out, out=out)
    return float(out) if np.ndim(t) == 0 else out


def dc_split(t, y):
    """Difference-of-convex decomposition of the scaled ramp.

    Returns ``(convex_part, concave_part)`` with

        convex_part  = max(0, (1 - t*y)/2)
        concave_part = -max(0, (-1 - t*y)/2)

    i.e. the ramp as a half-scaled hinge (``half_hinge``) minus a second
    hinge shifted to margin -1.  The parts sum to ``scaled_ramp(t, y)`` (up
    to float rounding) and this is the tightest piecewise-linear split.  The
    CCCP trainer takes its convex subproblem's hinge from ``half_hinge`` and
    linearizes ``concave_part``, whose slope in t is y/2 below margin -1.
    """
    convex = half_hinge(t, y)
    m = np.asarray(t, dtype=float)
    if y == -1:
        m = -m
    concave = -np.maximum(0.0, (-1.0 - m) * 0.5)
    if np.ndim(t) == 0:
        return convex, float(concave)
    return convex, concave


@dataclass(frozen=True)
class LossDescriptor:
    """A margin loss with the constants the risk and bound machinery needs.

    ``value(t, y)`` maps a real margin score and a label in {+1, -1} to a
    loss in [0, 1].  ``lipschitz`` is a Lipschitz constant in the first
    argument, and ``is_symmetric`` asserts value(t,+1) + value(t,-1) = 1.
    """

    value: Callable = field(repr=False)
    lipschitz: float
    is_symmetric: bool
    name: str = "loss"

    def __post_init__(self) -> None:
        if not self.lipschitz > 0:
            raise ValueError("lipschitz constant must be positive")


SCALED_RAMP = LossDescriptor(value=scaled_ramp, lipschitz=0.5, is_symmetric=True, name="scaled_ramp")

#: Lipschitz in the distributional sense only; kept for misclassification
#: reporting, never for gradient-based training.
ZERO_ONE = LossDescriptor(value=zero_one, lipschitz=np.inf, is_symmetric=True, name="zero_one")


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


def default_pi_grid(step: float = 0.05) -> np.ndarray:
    return np.linspace(0.0, 1.0, round(1.0 / step) + 1)


def default_g_grid(step: float = 0.01, span: float = 2.0) -> np.ndarray:
    return np.linspace(-span, span, 2 * round(span / step) + 1)


def calibration_failures(pi_plus_grid, g_grid) -> list[dict]:
    """Scan the conditional-risk surface for calibration violations.

    For every pi_plus != 1/2 in the grid, the grid minimizer of the
    conditional risk must have the same sign as (pi_plus - pi_minus) and
    must achieve min(pi_plus, pi_minus) within CALIBRATION_TOL.  Returns
    one record per violated pair; empty means calibrated on the grid.
    """
    pi_plus_grid = np.asarray(pi_plus_grid, dtype=float)
    g_grid = np.asarray(g_grid, dtype=float)
    if pi_plus_grid.size == 0 or g_grid.size == 0:
        raise ValueError("grids must be non-empty")
    if g_grid.min() > -2.0 + 1e-9 or g_grid.max() < 2.0 - 1e-9:
        raise ValueError("g_grid must span at least [-2, 2]")

    failures = []
    for p in pi_plus_grid:
        if abs(p - 0.5) < 1e-15:
            continue  # any g in [-1, 1] ties at 1/2; nothing to falsify
        risks = conditional_risk(p, g_grid)
        idx = int(np.argmin(risks))
        g_star, achieved = float(g_grid[idx]), float(risks[idx])
        target = min(p, 1.0 - p)
        want_sign = 1.0 if p > 0.5 else -1.0
        if np.sign(g_star) != want_sign or abs(achieved - target) > CALIBRATION_TOL:
            failures.append(
                {"pi_plus": float(p), "g": g_star, "achieved": achieved, "target": target}
            )
    return failures


def verify_calibration(pi_plus_grid=None, g_grid=None) -> bool:
    """True iff the grid search certifies classification calibration.

    The failing (pi_plus, g) pair is logged on falsification; use
    ``calibration_failures`` to retrieve all of them programmatically.
    """
    if pi_plus_grid is None:
        pi_plus_grid = default_pi_grid()
    if g_grid is None:
        g_grid = default_g_grid()
    failures = calibration_failures(pi_plus_grid, g_grid)
    if failures:
        f = failures[0]
        log.warning(
            "calibration violated at pi_plus=%.6g: minimizer g=%.6g achieved %.17g, want %.17g",
            f["pi_plus"], f["g"], f["achieved"], f["target"],
        )
        return False
    return True
