"""CCCP training of the three regularized risk estimators.

The objective of a mode is its unbiased empirical risk under
``losses.scaled_ramp`` (the value ``risk_pn``/``risk_pu``/``risk_nu``
returns with ``SCALED_RAMP``) plus (lambda/2)*||w||^2.  A fit stores its
rows once, in margin coordinates: row i is y_i*(z_i, 1), where z_i is
the row's features after any kernel map and y_i the label its set is
scored with, so the margins m = y*t of theta = (w, b) are rows @ theta.
The objective is non-convex; training majorize-minimizes the
difference-of-convex split of the ramp in the margin, max(0, (1 - m)/2)
- max(0, (-1 - m)/2) (the ramp-loss CCCP of Collobert et al., "Trading
Convexity for Scalability", ICML 2006).  Each outer iteration of
``train`` replaces the concave part by its tangent at the current
margins, slope 1/2 on rows below margin -1 and 0 elsewhere, and solves
the resulting convex hinge-plus-linear-plus-quadratic subproblem
(``_convex_value``).  CCCP stops at a fixed point, when the tangent at
the current margins equals the one just solved with, or after _MAX_OUTER
steps.

Every subproblem, linear or kernel, goes through one inner solve.  Its
unknowns are theta, d + 1 of them for a linear fit and one per anchor
plus the bias for a kernel fit, and it is piecewise quadratic in them.
A primal active-set method (Scheinberg, JMLR 2006)
solves it exactly from the previous outer step's point, and stops only
on a KKT certificate: per-row slopes, each allowed at its row's margin,
whose gradient vanishes to 1e-9 (``_kkt_residual``).  The solve returns
its start unless it certified a strictly lower subproblem value; one that
does not certify within _MAX_PIVOTS pivots, or meets a singular system,
keeps its start.  So the true regularized objective is non-increasing
across outer iterations; ``train`` asserts that on every step with a
1e-12 slack, and a violation is a hard error, not a warning.

Each pivot solves the KKT system of its cell (``_cell_step``): densely,
(dim + k)^2 for k working rows, below _REDUCED_MIN_DIM unknowns (every
linear fit and small kernel fits), and above it as a (k + 1)^2 system
with w eliminated, refined once against the full KKT residual.

Multiple restarts (zero init plus random Gaussian inits of scale 0.1)
hedge against bad local minima; the restart with the lowest final
objective wins.  Within one fit the rows, weights and lambda are fixed, so
a tangent alone determines its subproblem: the restarts share one record
of the point certified for each tangent, and a restart that comes back to
a tangent an earlier one solved reuses that point instead of pivoting
again (``_solve``); from there it follows the earlier restart's path.
Hyperparameters for the kernel model are selected by k-fold
cross-validation scored with the mode's own unbiased estimator under the
zero-one loss, so PU validation never touches negative data.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .datasets import SampleTriple, _as_matrix, _check_count, _check_real, _check_width
from .losses import ZERO_ONE, scaled_ramp
from .models import DecisionModel, EmpiricalKernelMap
from .risk import MODE_SETS, MODE_TABLE, Mode, risk_nu, risk_pn, risk_pu

MONOTONICITY_SLACK = 1e-12
# The active-set solve: row i's kink sits at 1 + _KINK_OFFSET*(i+1)/n
# while pivoting; its certificate accepts any slope between the two sides of
# a kink within _KINK_BAND of the margin, and a gradient residual up to
# _KKT_TOL.  Gaps, multiplier excesses and slopes below _ZERO count as zero.
# A solve that does not certify within _MAX_PIVOTS pivots keeps its start.
_KINK_OFFSET = 1e-9
_KINK_BAND = 1e-8
_KKT_TOL = 1e-9
_ZERO = 1e-12
_MAX_PIVOTS = 300
_MAX_OUTER = 30
_MEDIAN_ROWS = 512
# Cells of at least this many unknowns take _cell_step's reduced (k + 1)^2
# KKT solve, smaller ones the dense (dim + k)^2 solve: timed per call on a
# 2-CPU host, the reduced solve first won at every k from 4 to 14 at dim 52.
_REDUCED_MIN_DIM = 52


class CccpMonotonicityError(RuntimeError):
    """An outer step increased the true regularized objective."""


class _JsonConfig:
    """A config that also loads from a JSON object keyed by its field names."""

    @classmethod
    def from_dict(cls, doc: dict):
        """The config a JSON object of field names gives; any other document raises ValueError.

        The constructor checks the value types.
        """
        if not isinstance(doc, dict):
            raise ValueError(f"{cls.__name__} must be a JSON object, got {type(doc).__name__}")
        known = {f.name for f in fields(cls)}
        for key in doc:
            if key not in known:
                raise ValueError(f"unknown {cls.__name__} key {key!r}; known keys: {sorted(known)}")
        return cls(**doc)

    @classmethod
    def from_json(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class TrainConfig(_JsonConfig):
    """Solver knobs: regularization, restarts and the seed of the random restarts."""

    lam: float = 1e-3
    restarts: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        _check_real(self.lam, "TrainConfig 'lam'")
        _check_count(self.restarts, "TrainConfig 'restarts'")
        _check_count(self.seed, "TrainConfig 'seed'", least=0)

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        """As for any config, with ``lambda`` accepted for ``lam`` (but not both)."""
        if isinstance(doc, dict) and "lambda" in doc:
            if "lam" in doc:
                raise ValueError("TrainConfig keys 'lambda' and 'lam' name one field; give one")
            doc = dict(doc)
            doc["lam"] = doc.pop("lambda")
        return super().from_dict(doc)


@dataclass(frozen=True)
class CvConfig(_JsonConfig):
    """Cross-validation folds and hyperparameter grids."""

    folds: int = 5
    width_grid: tuple = ()
    lambda_grid: tuple = ()

    def __post_init__(self) -> None:
        _check_count(self.folds, "CvConfig 'folds'", least=2)
        for name in ("width_grid", "lambda_grid"):
            grid, label = getattr(self, name), f"CvConfig {name!r}"
            ok = isinstance(grid, (list, tuple)) or isinstance(grid, np.ndarray) and grid.ndim == 1
            if not ok:
                raise ValueError(f"{label} must be a list of numbers, got {grid!r}")
            check = _check_width if name == "width_grid" else _check_real
            object.__setattr__(self, name, tuple(float(check(v, label)) for v in grid))
        if not self.lambda_grid:
            raise ValueError("CvConfig 'lambda_grid' must be non-empty")


@dataclass(frozen=True)
class ModelTemplate:
    """What to fit: a linear score on raw features, or its kernel expansion.

    For the kernel kind, ``width=None`` defers the bandwidth to the median
    heuristic over the anchor rows (or to cross-validation).
    """

    kind: str = "linear"
    width: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "kernel"):
            raise ValueError(f"template kind must be 'linear' or 'kernel', got {self.kind!r}")
        if self.width is not None:
            _check_width(self.width, "ModelTemplate 'width'")


LINEAR_TEMPLATE = ModelTemplate(kind="linear")


@dataclass(frozen=True)
class RiskObjective:
    """Weighted ramp-sum objective: sum_i c_i * ramp(m_i) + const + (lam/2)*||w||^2.

    Row i of ``rows`` is y_i*(z_i, 1), its features z_i already pushed
    through any kernel map, so the margins of theta = (w, b) are rows @ theta.
    """

    rows: np.ndarray
    coeffs: np.ndarray
    constant: float
    lam: float

    def value(self, theta: np.ndarray) -> float:
        w = theta[:-1]
        ramp = scaled_ramp(self.rows.dot(theta), +1)
        return float(self.coeffs @ ramp) + self.constant + 0.5 * self.lam * float(w @ w)


def _require_mode_sets(mode: Mode, triple: SampleTriple) -> None:
    if mode not in MODE_SETS:
        raise ValueError(f"unknown mode {mode!r}")
    for name in MODE_SETS[mode]:
        if getattr(triple, name).shape[0] == 0:
            raise ValueError(f"{mode} training requires a non-empty {name} sample set")


def build_objective(mode: Mode, triple: SampleTriple,
                    feature_map: Optional[EmpiricalKernelMap], lam: float) -> RiskObjective:
    """Assemble the mode's regularized empirical risk over mapped features."""
    _require_mode_sets(mode, triple)
    spec = MODE_TABLE[mode]
    rows, coeffs = [], []
    for name, label, weight in zip(spec.sets, (+1, -1), spec.weights(triple.pi)):
        x = getattr(triple, name)
        z = feature_map(x) if feature_map else np.asarray(x, dtype=float)
        rows.append(label * np.hstack((z, np.ones((x.shape[0], 1)))))
        coeffs.append(np.full(x.shape[0], weight / x.shape[0], dtype=float))
    return RiskObjective(rows=np.vstack(rows), coeffs=np.concatenate(coeffs),
                         constant=spec.constant(triple.pi), lam=lam)


def _convex_value(theta, A, c, s, lam) -> float:
    """Subproblem value at theta = (w, b): sum_i c_i*(hinge_i + s_i*m_i) + (lam/2)*||w||^2.

    m = A @ theta are the margins, hinge_i = max(0, (1 - m_i)/2) is the
    ramp's convex part, and s_i*m_i the concave part's tangent, less a
    constant.
    """
    w = theta[:-1]
    m = A.dot(theta)
    h = 1.0 - m
    h *= 0.5
    np.maximum(0.0, h, out=h)
    h += s * m
    return float(c.dot(h)) + 0.5 * lam * float(w.dot(w))


def _row_slopes(c, s) -> tuple[np.ndarray, np.ndarray]:
    """Each row's slope in its margin below and above the kink at m = 1.

    Row i's subproblem term c_i*(max(0, (1 - m)/2) + s_i*m) has slope
    c_i*(s_i - 1/2) below 1 and c_i*s_i above.
    """
    hi = c * s
    return hi - 0.5 * c, hi


def _kkt_residual(theta, beta, A, c, s, lam) -> float:
    """How far (theta, beta) is from certifying theta a minimizer of a subproblem.

    ``beta[i]`` is a slope claimed for row i's term.  It is first clipped to
    what the row allows at its margin m_i: the slope below or above the kink
    when m_i is more than _KINK_BAND from 1, anything between the two within
    it.  The result is the sup norm of the gradient A.T @ beta + lam*(w, 0)
    that the clipped slopes give.  Zero certifies theta optimal for the
    subproblem with its kinks at exactly 1; a residual r leaves theta at
    most r*||theta* - theta||_1 + _KINK_BAND*sum(c) above the minimum.
    """
    m = A.dot(theta)
    lo, hi = _row_slopes(c, s)
    beta = np.clip(beta, np.where(m > 1.0 + _KINK_BAND, hi, lo),
                   np.where(m < 1.0 - _KINK_BAND, lo, hi))
    grad = A.T.dot(beta)
    grad[:-1] += lam * theta[:-1]
    return float(np.abs(grad).max())


def _cell_step(grad, kinked, lam: float):
    """The step toward the minimum of a cell's quadratic with the working rows on their kinks.

    ``grad`` is the quadratic's gradient at the current point and
    ``kinked`` holds the working rows' margin coefficients.  Returns
    (p, mult).  When a working row fixes the bias, the quadratic is
    strictly convex on the step's subspace: p is the Newton step to its
    minimum and ``mult`` the working rows' slopes there, both from one KKT
    solve.  With no working rows, p is the Newton step in w alone when the
    bias slope vanishes, and otherwise a unit ray along the bias, where the
    quadratic is flat.

    The KKT system [[H, K.T], [K, 0]] @ (p, mult) = (-grad, 0), with
    H = diag(lam, ..., lam, 0) and K = ``kinked`` = [K_w, k_b], is solved
    densely, (dim + k)^2, below _REDUCED_MIN_DIM unknowns.  From there on
    p_w = -(g_w + K_w.T @ mult)/lam is eliminated (the range-space step of
    Nocedal & Wright, "Numerical Optimization", ch. 16), leaving the
    (k + 1)^2 system [[K_w K_w.T, -lam*k_b], [k_b.T, 0]] @ (mult, p_b) =
    (-K_w @ g_w, -g_b); k stays small.  Forming K_w K_w.T squares the
    system's condition, so one step of iterative refinement on the full
    KKT residual follows, through the same reduced matrix.
    """
    k, dim = kinked.shape
    if k and dim >= _REDUCED_MIN_DIM:
        k_w, k_b = kinked[:, :-1], kinked[:, -1]
        reduced = np.zeros((k + 1, k + 1))
        reduced[:k, :k] = k_w.dot(k_w.T)
        reduced[:k, k] = -lam * k_b
        reduced[k, :k] = k_b

        def solve(r, r_kink):
            """(p, mult) solving the KKT system for right-hand side (r, r_kink)."""
            rhs = np.empty(k + 1)
            rhs[:k] = k_w.dot(r[:-1]) - lam * r_kink
            rhs[k] = r[-1]
            sol = np.linalg.solve(reduced, rhs)
            p = r - kinked.T.dot(sol[:k])
            p[:-1] /= lam
            p[-1] = sol[k]
            return p, sol[:k]

        p, mult = solve(-grad, 0.0)
        res = -grad - kinked.T.dot(mult)
        res[:-1] -= lam * p[:-1]
        dp, dmult = solve(res, -kinked.dot(p))
        return p + dp, mult + dmult
    if k:
        kkt = np.zeros((dim + k, dim + k))
        kkt[np.arange(dim - 1), np.arange(dim - 1)] = lam
        kkt[:dim, dim:] = kinked.T
        kkt[dim:, :dim] = kinked
        sol = np.linalg.solve(kkt, np.concatenate((-grad, np.zeros(k))))
        return sol[:dim], sol[dim:]
    if abs(grad[-1]) > _ZERO:
        p = np.zeros(dim)
        p[-1] = -math.copysign(1.0, grad[-1])
        return p, np.empty(0)
    return np.append(-grad[:-1] / lam, 0.0), np.empty(0)


def _solve_active_set(theta0, A, c, s, lam):
    """Exact primal active-set solve of a CCCP subproblem (Scheinberg, JMLR 2006).

    The subproblem is piecewise quadratic in theta = (w, b): row i's term is
    linear in its margin m_i = A[i] @ theta on either side of its kink
    (``_row_slopes``).  The working set, empty at theta0, holds rows kept
    exactly on their kink; every other row sits on a known side.  Each
    pivot steps toward the minimum of the current cell's quadratic subject
    to those equalities (``_cell_step``), by an exact line search that
    crosses any kinks on the way and adds the row it stops on to the
    working set.  At the cell's minimum it releases the working row whose
    slope lies furthest outside [slope below, slope above], to the side the
    slope points to, or stops when none does.  Row i's kink sits at
    1 + _KINK_OFFSET*(i+1)/n while pivoting, so no two rows reach theirs
    together: at pi = 0.05 the optimum w = 0, b = -1 puts every negative
    row on its kink, and duplicate rows share one.  The final point moves
    the working rows onto margin 1.

    Returns (theta, beta), row slopes that ``_kkt_residual`` certifies
    within _KKT_TOL for the unperturbed subproblem, or None when that takes
    more than _MAX_PIVOTS pivots, the line search runs down an unbounded
    ray, or the certificate fails.
    """
    n = A.shape[0]
    a_max = max(float(A.max()), -float(A.min()))
    lo, hi = _row_slopes(c, s)
    kink = 1.0 + _KINK_OFFSET * np.arange(1, n + 1) / n
    theta = np.array(theta0, dtype=float)
    m = A.dot(theta)
    right = m > kink
    free = np.ones(n, dtype=bool)
    work: list[int] = []
    for _ in range(_MAX_PIVOTS):
        beta = np.where(right, hi, lo)
        beta[work] = 0.0
        grad = A.T.dot(beta)
        grad[:-1] += lam * theta[:-1]
        p, mult = _cell_step(grad, A[work], lam)
        slope = float(grad.dot(p))
        if slope < 0.0:
            # Exact line search on theta + tau*p.  Free rows moving toward
            # their kink cross it at tau_i; each crossing raises the slope in
            # tau by c_i/2*|d_i|, and between crossings it grows by curv.
            d = A.dot(p)
            curv = lam * float(p[:-1].dot(p[:-1]))
            moving = _ZERO * a_max * float(np.abs(p).sum())
            rows = np.flatnonzero(free & np.where(right, d < -moving, d > moving))
            tau = np.maximum((kink[rows] - m[rows]) / d[rows], 0.0)
            order = np.argsort(tau, kind="stable")
            rows, tau = rows[order], tau[order]
            jumps = 0.5 * c[rows] * np.abs(d[rows])
            after = slope + np.cumsum(jumps)  # slope just past each kink, less curv*tau
            turn = np.flatnonzero(after + curv * tau >= 0.0)
            j = int(turn[0]) if turn.size else rows.size  # the first kink past which f rises
            block = None
            if curv > 0.0:
                # A Newton step that meets no kink is taken whole: its slope
                # is -curv, and for a rounding-sized p their ratio is noise.
                step = -after[j - 1] / curv if j else 1.0
                if j < rows.size and step >= tau[j]:
                    step, block = tau[j], int(rows[j])
            elif j < rows.size:
                step, block = tau[j], int(rows[j])
            elif rows.size and after[-1] >= -_ZERO * (abs(slope) + float(jumps.sum())):
                j = rows.size - 1  # flat past the last kink, up to rounding
                step, block = tau[j], int(rows[j])
            else:
                return None
            theta += step * p
            m = A.dot(theta)
            right[rows[:j]] ^= True
            if block is not None:
                work.append(block)
                free[block] = False
            if j or block is not None:
                continue
        # At the cell's minimum, where mult are the working rows' slopes.
        if work:
            excess = np.maximum(lo[work] - mult, mult - hi[work])
            worst = int(np.argmax(excess))
            if excess[worst] > _ZERO:
                released = work.pop(worst)
                right[released] = mult[worst] > hi[released]
                free[released] = True
                continue
            beta[work] = mult
            kinked = A[work]
            theta += kinked.T.dot(np.linalg.solve(kinked.dot(kinked.T), 1.0 - kink[work]))
        return (theta, beta) if _kkt_residual(theta, beta, A, c, s, lam) <= _KKT_TOL else None
    return None


def _solve(theta0, A, c, s, lam, minimizers=None):
    """One CCCP subproblem, of a linear or a kernel fit: the exact active-set solve.

    Returns the certified point when it is strictly lower than the start,
    and the start otherwise: a solve that does not certify within
    _MAX_PIVOTS pivots or meets a singular system keeps its start.

    ``minimizers`` maps the bytes of a tangent ``s`` to the point certified
    for it earlier in the same fit, where A, c and lam are the same; None
    stands for an empty record.  A tangent found there skips the active
    set, and the remembered point is returned under the same rule, when
    strictly lower than the start.  Each newly certified point is added
    read-only, unless a row's margin there is within _KINK_BAND of the
    concave kink at -1: the next tangent would then rest on the rounding
    of this one solve, and a restart that solves afresh may round to the
    other side and descend further.  A tangent whose solve does not
    certify is not added either, so it is solved again from the next
    start that reaches it.
    """
    if minimizers is None:
        minimizers = {}
    key = s.tobytes()
    theta = minimizers.get(key)
    if theta is None:
        try:
            solved = _solve_active_set(theta0, A, c, s, lam)
        except np.linalg.LinAlgError:  # a singular system: no certificate
            solved = None
        if solved is None:
            return theta0
        theta = solved[0]
        if np.abs(A.dot(theta) + 1.0).min() > _KINK_BAND:
            theta.setflags(write=False)
            minimizers[key] = theta
    lower = _convex_value(theta, A, c, s, lam) < _convex_value(theta0, A, c, s, lam)
    return theta if lower else theta0


_RUN_STATS = {"runs": 0, "outer_steps": 0, "monotonicity_violations": 0}


def run_stats() -> dict:
    """Counters over all training runs in this process (test support)."""
    return dict(_RUN_STATS)


def _build_feature_map(template: ModelTemplate, mode: Mode,
                       triple: SampleTriple) -> Optional[EmpiricalKernelMap]:
    if template.kind == "linear":
        return None
    first, second = MODE_SETS[mode]
    anchors = np.vstack([getattr(triple, first), getattr(triple, second)])
    width = template.width if template.width is not None else median_heuristic_width(anchors)
    return EmpiricalKernelMap(anchors=anchors, width=width)


def train(mode: Mode, triple: SampleTriple, template: ModelTemplate = LINEAR_TEMPLATE,
          config: TrainConfig = TrainConfig()) -> DecisionModel:
    """Minimize the mode's regularized risk estimator by restarted CCCP.

    Returns the best restart's stationary point.  The regularized objective
    is non-increasing across outer iterations in every restart: a step that
    raises it by more than MONOTONICITY_SLACK raises CccpMonotonicityError.
    Finite rows so large that the median kernel width, the objective or
    the solve overflows float64 raise ValueError naming the rows.  Each
    call adds to the ``run_stats`` counters.
    """
    _require_mode_sets(mode, triple)
    rng = np.random.default_rng(config.seed)
    try:
        # Finite rows too large for float64 overflow in the median kernel
        # width, the objective or the solve; they fail as a contract violation.
        with np.errstate(over="raise"):
            fmap = _build_feature_map(template, mode, triple)
            obj = build_objective(mode, triple, fmap, config.lam)
            _RUN_STATS["runs"] += 1
            dim = obj.rows.shape[1]
            minimizers: dict = {}  # this fit's certified points, by tangent (see _solve)
            fits = [_cccp(obj, np.zeros(dim) if restart == 0 else rng.normal(0.0, 0.1, size=dim),
                          minimizers)
                    for restart in range(config.restarts)]
    except FloatingPointError:
        first, second = MODE_SETS[mode]
        big = max(np.abs(getattr(triple, name)).max(initial=0.0) for name in (first, second))
        raise ValueError(
            f"non-finite objective: training on the {first} and {second} rows overflowed "
            f"float64 (largest |entry| {big:.3g}, lambda {config.lam:g})"
        ) from None
    _, theta = min(fits, key=lambda fit: fit[0])  # the first restart of least objective
    return DecisionModel(weights=theta[:-1], bias=theta[-1], feature_map=fmap)


def _cccp(obj: RiskObjective, theta: np.ndarray, minimizers: dict) -> tuple[float, np.ndarray]:
    """One restart of CCCP from theta: its final (objective, theta).

    ``minimizers`` is the fit's record of certified subproblem points,
    shared by its restarts (see ``_solve``).
    """
    current = obj.value(theta)
    solved = None
    for _ in range(_MAX_OUTER):
        # Majorize: replace the concave part of each ramp by its tangent
        # at the current margins (slope 1/2 below margin -1, else 0).
        s = np.where(obj.rows.dot(theta) < -1.0, 0.5, 0.0)
        if solved is not None and np.array_equal(s, solved):
            break  # a fixed point: theta is this subproblem's minimizer already
        theta_new = _solve(theta, obj.rows, obj.coeffs, s, obj.lam, minimizers)
        value = obj.value(theta_new)
        _RUN_STATS["outer_steps"] += 1
        if value > current + MONOTONICITY_SLACK:
            _RUN_STATS["monotonicity_violations"] += 1
            raise CccpMonotonicityError(
                f"objective increased across an outer iteration: {current!r} -> {value!r}"
            )
        theta, current, solved = theta_new, value, s
    return current, theta


def median_heuristic_width(x) -> float:
    """Median pairwise distance over the rows, or over _MEDIAN_ROWS evenly spaced ones."""
    x = _as_matrix(x, "x")
    if x.shape[0] > _MEDIAN_ROWS:
        x = x[np.linspace(0, x.shape[0] - 1, _MEDIAN_ROWS).astype(int)]
    sq = np.sum(x * x, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0)
    iu = np.triu_indices(x.shape[0], k=1)
    if iu[0].size == 0:
        return 1.0
    med = float(np.median(np.sqrt(d2[iu])))
    return med if med > 0 else 1.0


def _select_best(table: list) -> tuple:
    """Argmin over (width, lambda, cv_risk) rows.

    Ties break toward the larger width, then the larger lambda; None widths
    (linear templates) sort as equal.
    """
    return min(table, key=lambda row: (row[2], -(row[0] or 0.0), -row[1]))


def _validation_risk(mode: Mode, model: DecisionModel, val_sets: dict, pi: float) -> float:
    """The mode's own unbiased zero-one estimate, by whichever ``training.risk_*`` is bound now."""
    first, second = MODE_SETS[mode]
    estimator = {"PN": risk_pn, "PU": risk_pu, "NU": risk_nu}[mode]
    return estimator(model, val_sets[first], val_sets[second], pi, ZERO_ONE)


def cross_validate(mode: Mode, triple: SampleTriple, template: ModelTemplate,
                   cv_config: CvConfig, train_config: TrainConfig):
    """Grid-search (width, lambda) by k-fold CV on the mode's own estimator.

    Each sample set the mode uses is split into folds independently; every
    grid cell is scored by the mean over folds of the unbiased estimator
    under the zero-one loss on the held-out folds.  Ties break toward the
    larger width, then the larger lambda.  Returns
    (best_width, best_lambda, table) where the table rows are
    (width, lambda, cv_risk) and width is None for linear templates.
    """
    _require_mode_sets(mode, triple)
    used = MODE_SETS[mode]
    rng = np.random.default_rng(train_config.seed)
    folds: dict[str, list[np.ndarray]] = {}
    for name in used:
        n = getattr(triple, name).shape[0]
        if n < cv_config.folds:
            raise ValueError(
                f"{name} has only {n} rows; {cv_config.folds}-fold CV would empty a fold"
            )
        folds[name] = np.array_split(rng.permutation(n), cv_config.folds)
    # One (training sub-triple, validation sets) pair per fold; the sets the
    # mode does not use are zero-row slices in the sub-triple.
    splits = []
    for f in range(cv_config.folds):
        train_sets = {name: getattr(triple, name)[:0] for name in ("x_pos", "x_neg", "x_unl")}
        val_sets = {}
        for name in used:
            full, parts = getattr(triple, name), folds[name]
            train_sets[name] = full[np.concatenate(parts[:f] + parts[f + 1:])]
            val_sets[name] = full[parts[f]]
        splits.append((SampleTriple(**train_sets, pi=triple.pi), val_sets))

    if template.kind == "kernel":
        if not cv_config.width_grid:
            raise ValueError("kernel cross-validation needs a non-empty width_grid")
        widths: tuple = tuple(sorted(set(cv_config.width_grid), reverse=True))
    else:
        widths = (None,)
    lambdas = tuple(sorted(set(cv_config.lambda_grid), reverse=True))

    table = []
    for width in widths:
        cell_template = template if width is None else replace(template, width=width)
        for lam in lambdas:
            cfg = replace(train_config, lam=lam)
            scores = [
                _validation_risk(mode, train(mode, sub_triple, cell_template, cfg), val_sets,
                                 triple.pi)
                for sub_triple, val_sets in splits
            ]
            table.append((width, lam, float(np.mean(scores))))
    best = _select_best(table)
    return best[0], best[1], table
