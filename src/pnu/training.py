"""CCCP training of the three regularized risk estimators.

The objective of a mode is its unbiased empirical risk under
``losses.scaled_ramp`` (the value ``risk_pn``/``risk_pu``/``risk_nu``
returns with ``SCALED_RAMP``) plus (lambda/2)*||w||^2.  It is non-convex;
training majorize-minimizes the difference-of-convex split of the ramp
given by ``losses.dc_split`` (the ramp-loss CCCP of Collobert et al.,
"Trading Convexity for Scalability", ICML 2006).  Each outer iteration
of ``train`` linearizes the concave part at the current margins and
solves the resulting convex hinge-plus-linear-plus-quadratic subproblem,
whose hinge is ``losses.half_hinge``, the convex part of ``dc_split``.

Every subproblem, linear or kernel, goes through one inner solve.  A fit
is linear in its features, raw or pushed through the kernel map, so its
unknowns are theta = (w, b), d + 1 of them for a linear fit and one per
anchor plus the bias for a kernel fit, and its subproblem is piecewise
quadratic in them.  A primal active-set method (Scheinberg, JMLR 2006)
solves it exactly from the previous outer step's point, and stops only
on a KKT certificate: per-row slopes, each allowed at its row's margin,
whose gradient vanishes to 1e-9 (``_kkt_residual``).  The solve returns
its start unless it certified a strictly lower subproblem value; one that
does not certify within _MAX_PIVOTS pivots, or meets a singular system,
keeps its start.  So the true regularized objective is non-increasing
across outer iterations; ``train`` asserts that on every step with a
1e-12 slack, and a violation is a hard error, not a warning.

Multiple restarts (zero init plus random Gaussian inits of scale 0.1)
hedge against bad local minima; the restart with the lowest final
objective wins.  Hyperparameters for the kernel model are selected by
k-fold cross-validation scored with the mode's own unbiased estimator
under the zero-one loss, so PU validation never touches negative data.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .datasets import SampleTriple
from .losses import ZERO_ONE, half_hinge, scaled_ramp
from .models import DecisionModel, EmpiricalKernelMap
from .risk import MODE_SETS, MODE_TABLE, Mode
from .risk import risk_nu, risk_pn, risk_pu  # noqa: F401 (called by name in _validation_risk)

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


class CccpMonotonicityError(RuntimeError):
    """An outer step increased the true regularized objective."""


def _is_number(value, kind: str) -> bool:
    """An integer (for kind "int") or a finite real number, never a bool; numpy scalars count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    return isinstance(value, numbers.Integral) or (kind != "int" and math.isfinite(value))


def _check_field_types(config) -> None:
    """Raise ValueError naming the first field of the wrong type.

    Int fields need integers, float fields finite numbers, and grids a list,
    tuple or array of finite numbers.  (JSON config files may carry NaN and
    Infinity.)
    """
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "tuple":
            ok = (isinstance(value, (list, tuple, np.ndarray))
                  and all(_is_number(v, "float") for v in value))
        else:
            ok = _is_number(value, f.type)
        if not ok:
            want = {"int": "an integer", "float": "a finite number",
                    "tuple": "a list of finite numbers"}[f.type]
            raise ValueError(f"{type(config).__name__} {f.name!r} must be {want}, got {value!r}")


def _checked_doc(cls, doc) -> dict:
    """A config document as keyword arguments of ``cls``.

    A document must be an object whose keys are field names; anything else
    raises ValueError.  The constructor checks the value types.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {type(doc).__name__}")
    known = {f.name for f in fields(cls)}
    for key in doc:
        if key not in known:
            raise ValueError(f"unknown {cls.__name__} key {key!r}; known keys: {sorted(known)}")
    return doc


@dataclass(frozen=True)
class TrainConfig:
    """Solver knobs: regularization, the outer iteration cap and tolerance, restarts."""

    lam: float = 1e-3
    cccp_max_outer: int = 30
    #: CCCP stops once an outer step lowers the objective by less than this.
    outer_tol: float = 1e-6
    restarts: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        _check_field_types(self)
        if not self.lam > 0:
            raise ValueError(f"TrainConfig 'lam' must be positive, got {self.lam}")
        if self.cccp_max_outer < 1:
            raise ValueError("cccp_max_outer must be at least 1")
        if not self.outer_tol > 0:
            raise ValueError(f"outer_tol must be positive, got {self.outer_tol}")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.seed < 0:
            raise ValueError(f"TrainConfig 'seed' must be non-negative, got {self.seed}")

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        if isinstance(doc, dict) and "lambda" in doc:
            doc = dict(doc)
            doc["lam"] = doc.pop("lambda")
        return cls(**_checked_doc(cls, doc))

    @classmethod
    def from_json(cls, path) -> "TrainConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class CvConfig:
    """Cross-validation folds and hyperparameter grids."""

    folds: int = 5
    width_grid: tuple = ()
    lambda_grid: tuple = ()

    def __post_init__(self) -> None:
        _check_field_types(self)
        if self.folds < 2:
            raise ValueError(f"folds must be at least 2, got {self.folds}")
        object.__setattr__(self, "width_grid", tuple(float(w) for w in self.width_grid))
        object.__setattr__(self, "lambda_grid", tuple(float(l) for l in self.lambda_grid))
        if not self.lambda_grid:
            raise ValueError("lambda_grid must be non-empty")
        if any(w <= 0 for w in self.width_grid) or any(l <= 0 for l in self.lambda_grid):
            raise ValueError("grid entries must be positive")

    @classmethod
    def from_dict(cls, doc: dict) -> "CvConfig":
        return cls(**_checked_doc(cls, doc))

    @classmethod
    def from_json(cls, path) -> "CvConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


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
        if self.width is not None and not self.width > 0:
            raise ValueError(f"width must be positive, got {self.width}")


LINEAR_TEMPLATE = ModelTemplate(kind="linear")


@dataclass(frozen=True)
class RiskObjective:
    """Weighted ramp-sum objective: sum_i c_i * ramp(y_i * t_i) + const + reg.

    ``features`` are already pushed through any kernel map, so a candidate
    is just (weights, bias) and margins are an affine map of the weights.
    """

    features: np.ndarray
    labels: np.ndarray
    coeffs: np.ndarray
    constant: float
    lam: float

    def margins(self, w: np.ndarray, b: float) -> np.ndarray:
        return self.features @ w + b

    def value(self, w: np.ndarray, b: float) -> float:
        ramp = scaled_ramp(self.margins(w, b) * self.labels, +1)
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
    rows, labels, coeffs = [], [], []
    for name, label, weight in zip(spec.sets, (+1, -1), spec.weights(triple.pi)):
        x = getattr(triple, name)
        rows.append(feature_map(x) if feature_map else np.asarray(x, dtype=float))
        labels.append(np.full(x.shape[0], label, dtype=float))
        coeffs.append(np.full(x.shape[0], weight / x.shape[0], dtype=float))
    return RiskObjective(
        features=np.vstack(rows),
        labels=np.concatenate(labels),
        coeffs=np.concatenate(coeffs),
        constant=spec.constant(triple.pi),
        lam=lam,
    )


def _convex_value(theta, Z, y, c, s, lam) -> float:
    """Subproblem value at theta = (w, b): sum_i c_i*(hinge_i + s_i*t_i) + (lam/2)*||w||^2."""
    w = theta[:-1]
    t = Z.dot(w)
    t += theta[-1]
    st = s * t
    st += half_hinge(t * y, +1)
    return float(c.dot(st)) + 0.5 * lam * float(w.dot(w))


def _row_slopes(y, c, s) -> tuple[np.ndarray, np.ndarray]:
    """Each row's slope in its margin m = y*t below and above the kink at m = 1.

    Row i's subproblem term c_i*(hinge + s_i*t_i) is c_i*(max(0, (1 - m)/2)
    + s_i*y_i*m), so the slope is c_i*(s_i*y_i - 1/2) below 1 and
    c_i*s_i*y_i above.
    """
    hi = c * s * y
    return hi - 0.5 * c, hi


def _kkt_residual(theta, beta, Z, y, c, s, lam) -> float:
    """How far (theta, beta) is from certifying theta a minimizer of a subproblem.

    ``beta[i]`` is a slope claimed for row i's term.  It is first clipped to
    what the row allows at its margin m_i: the slope below or above the kink
    when m_i is more than _KINK_BAND from 1, anything between the two within
    it.  The result is the sup norm of the gradient lam*(w, 0) +
    sum_i beta_i*y_i*(z_i, 1) that the clipped slopes give.  Zero certifies
    theta optimal for the subproblem with its kinks at exactly 1; a residual r
    leaves theta at most r*||theta* - theta||_1 + _KINK_BAND*sum(c) above
    the minimum.
    """
    m = y * (Z.dot(theta[:-1]) + theta[-1])
    lo, hi = _row_slopes(y, c, s)
    beta = np.clip(beta, np.where(m > 1.0 + _KINK_BAND, hi, lo),
                   np.where(m < 1.0 - _KINK_BAND, lo, hi))
    yb = y * beta
    grad = Z.T.dot(yb) + lam * theta[:-1]
    return max(float(np.abs(grad).max(initial=0.0)), abs(float(yb.sum())))


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
    """
    k, dim = kinked.shape
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


def _solve_active_set(theta0, Z, y, c, s, lam):
    """Exact primal active-set solve of a CCCP subproblem (Scheinberg, JMLR 2006).

    The subproblem is piecewise quadratic in theta = (w, b): row i's term is
    linear in its margin m_i on either side of its kink (``_row_slopes``).
    The working set, empty at theta0, holds rows kept exactly on their kink;
    every other row sits on a known side.  Each pivot steps toward the
    minimum of the current cell's quadratic subject to those equalities
    (``_cell_step``), by an exact line search that crosses any kinks on the
    way and adds the row it stops on to the working set.  At the cell's
    minimum it releases the working row whose slope lies furthest outside
    [slope below, slope above], to the side the slope points to, or stops
    when none does.  Row i's kink sits at 1 + _KINK_OFFSET*(i+1)/n while
    pivoting, so no two rows reach theirs together: at pi = 0.05 the optimum
    w = 0, b = -1 puts every negative row on its kink, and duplicate rows
    share one.  The final point moves the working rows onto margin 1.

    Returns (theta, beta), row slopes that ``_kkt_residual`` certifies
    within _KKT_TOL for the unperturbed subproblem, or None when that takes
    more than _MAX_PIVOTS pivots, the line search runs down an unbounded
    ray, or the certificate fails.
    """
    n, dim = Z.shape[0], Z.shape[1] + 1
    A = np.empty((n, dim))
    A[:, :-1] = Z
    A[:, -1] = 1.0
    A *= y[:, None]  # margins are A @ theta
    a_max = float(np.abs(A).max())
    lo, hi = _row_slopes(y, c, s)
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
        return (theta, beta) if _kkt_residual(theta, beta, Z, y, c, s, lam) <= _KKT_TOL else None
    return None


def _solve(theta0, Z, y, c, s, lam):
    """One CCCP subproblem, of a linear or a kernel fit: the exact active-set solve.

    Returns the certified point when it is strictly lower than the start,
    and the start otherwise: a solve that does not certify within
    _MAX_PIVOTS pivots or meets a singular system keeps its start.
    """
    try:
        solved = _solve_active_set(theta0, Z, y, c, s, lam)
    except np.linalg.LinAlgError:  # a singular system: no certificate
        solved = None
    if solved is None:
        return theta0
    theta = solved[0]
    lower = _convex_value(theta, Z, y, c, s, lam) < _convex_value(theta0, Z, y, c, s, lam)
    return theta if lower else theta0


_RUN_STATS = {"runs": 0, "outer_steps": 0, "monotonicity_violations": 0}


def run_stats() -> dict:
    """Counters over all training runs in this process (test support)."""
    return dict(_RUN_STATS)


def reset_run_stats() -> None:
    for key in _RUN_STATS:
        _RUN_STATS[key] = 0


def _build_feature_map(template: ModelTemplate, mode: Mode,
                       triple: SampleTriple) -> Optional[EmpiricalKernelMap]:
    if template.kind == "linear" or mode not in MODE_SETS:
        return None  # build_objective rejects an unknown mode
    first, second = MODE_SETS[mode]
    anchors = np.vstack([getattr(triple, first), getattr(triple, second)])
    width = template.width if template.width is not None else median_heuristic_width(anchors)
    return EmpiricalKernelMap(anchors=anchors, width=width)


def train(mode: Mode, triple: SampleTriple, template: ModelTemplate = LINEAR_TEMPLATE,
          config: TrainConfig = TrainConfig(), trace: Optional[list] = None) -> DecisionModel:
    """Minimize the mode's regularized risk estimator by restarted CCCP.

    Returns the best restart's stationary point.  The regularized objective
    is non-increasing across outer iterations in every restart: a step that
    raises it by more than MONOTONICITY_SLACK raises CccpMonotonicityError.
    Pass a list as ``trace`` to capture the per-restart objective sequences.
    """
    fmap = _build_feature_map(template, mode, triple)
    obj = build_objective(mode, triple, fmap, config.lam)
    rng = np.random.default_rng(config.seed)
    dim = obj.features.shape[1]

    _RUN_STATS["runs"] += 1
    best = None
    for restart in range(config.restarts):
        if restart == 0:
            w, b = np.zeros(dim), 0.0
        else:
            theta = rng.normal(0.0, 0.1, size=dim + 1)
            w, b = theta[:-1], float(theta[-1])
        current = obj.value(w, b)
        if not math.isfinite(current):
            raise ValueError("non-finite objective at initialization")
        objectives = [current]
        for _ in range(config.cccp_max_outer):
            # Majorize: replace the concave part of each ramp by its tangent
            # at the current margins (slope y/2 below margin -1, else 0).
            s = np.where(obj.margins(w, b) * obj.labels < -1.0, 0.5 * obj.labels, 0.0)
            theta = _solve(np.append(w, b), obj.features, obj.labels, obj.coeffs, s, obj.lam)
            w_new, b_new = theta[:-1], float(theta[-1])
            value = obj.value(w_new, b_new)
            _RUN_STATS["outer_steps"] += 1
            if value > current + MONOTONICITY_SLACK:
                _RUN_STATS["monotonicity_violations"] += 1
                raise CccpMonotonicityError(
                    f"objective increased across an outer iteration: {current!r} -> {value!r}"
                )
            decrease = current - value
            w, b, current = w_new, b_new, value
            objectives.append(current)
            if decrease < config.outer_tol:
                break
        if trace is not None:
            trace.append({"restart": restart, "objectives": objectives})
        if best is None or current < best[0]:
            best = (current, w, b)

    return DecisionModel(weights=best[1], bias=best[2], feature_map=fmap)


def median_heuristic_width(x, max_rows: int = 512) -> float:
    """Median pairwise distance over (a deterministic subset of) the rows."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] > max_rows:
        x = x[np.linspace(0, x.shape[0] - 1, max_rows).astype(int)]
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
    """The mode's own unbiased estimator under the zero-one loss.

    It is looked up by name here at call time, so wrappers installed on
    ``training.risk_pn``/``risk_pu``/``risk_nu`` see every validation call.
    """
    first, second = MODE_SETS[mode]
    estimator = globals()[f"risk_{mode.lower()}"]
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
    # mode does not use stay empty in the sub-triple.
    splits = []
    for f in range(cv_config.folds):
        train_sets = dict.fromkeys(("x_pos", "x_neg", "x_unl"), np.empty((0, triple.d)))
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
