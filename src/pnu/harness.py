"""Experiment harness: sweeps, plot-ready tables, and the advice endpoint.

A sweep varies the unlabeled sample size or the class prior and, for every
(sweep value, trial) cell, draws ONE sample triple and trains all three
mode minimizers on it, so the modes are compared on identical data.  Each
trial's misclassification rate comes from that trial's holdout: a fresh
labeled draw for the synthetic source, the leftover rows for a CSV pool.
Per-trial seeds are spawned from (master seed, sweep value, trial index),
so results do not depend on execution order.

``_run_trial`` runs one cell: it samples the triple and trains the three
modes on the calling thread, and queues the cell's holdout draw and
scoring on one background thread, so that holdout work, a few large numpy
calls that release the interpreter lock, overlaps the next trial's
training.  Kernel scoring on that thread splits a long holdout's row
blocks over the CPUs the process may use (``models._blockwise``); the
blocks are the same, so the scores are the same bits.  ``run_sweep`` runs
the cells in order, reads each sweep point's errors after the point's last
trial, and builds the table once the background thread is shut down.
Every seed and call is the same as in a serial loop, so tables are
bit-identical to one.

Desk-scale defaults (50 trials, 1e5 test points) keep a full sweep in the
minutes range; the CLI's ``--paper-scale`` restores 100 trials and 1e6
test points.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import bounds, losses, risk
from .datasets import (
    _check_count,
    _check_pi,
    gen_gaussian_artificial,
    gen_gaussian_labeled,
    load_csv,
    sample_triple_from_pool,
)
from .models import DecisionModel
from .risk import MODE_TABLE, risk_true_mc
from .training import CvConfig, ModelTemplate, TrainConfig, cross_validate, train

MODES = tuple(MODE_TABLE)

DESK_TRIALS = 50
DESK_TEST_SIZE = 100_000
PAPER_TRIALS = 100
PAPER_TEST_SIZE = 1_000_000

CSV_HEADER = ("sweep_value", "mode", "mean_error", "std_error", "alpha_pu_pn", "alpha_nu_pn")


def _check_array_size(n: int, name: str, what: str, per_unit: int) -> None:
    """Raise unless ``what``, float64 with ``per_unit`` entries per unit of n, has bytes in np.intp."""
    limit = np.iinfo(np.intp).max // (8 * per_unit)
    if n > limit:
        raise ValueError(f"{name} must be at most {limit}, so that its {what} fit numpy's "
                         f"index range, got {n:.4g}")


@dataclass(frozen=True)
class ExperimentGrid:
    """A sweep specification over the unlabeled size or the class prior."""

    sweep: str  # "nu" | "pi"
    values: tuple
    n_pos: int
    n_neg: int
    pi: Optional[float] = None  # fixed prior (nu sweep)
    n_unl: Optional[int] = None  # fixed unlabeled size (pi sweep)
    trials: int = DESK_TRIALS
    data_source: Optional[str] = None  # a CSV path, or None for synthetic Gaussians
    label_column: object = None
    test_size: int = DESK_TEST_SIZE
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sweep not in ("nu", "pi"):
            raise ValueError(f"sweep must be 'nu' or 'pi', got {self.sweep!r}")
        if self.sweep == "nu":
            values = tuple(int(_check_count(v, "unlabeled size")) for v in self.values)
            _check_pi(self.pi)
        else:
            values = tuple(float(_check_pi(v)) for v in self.values)
            _check_count(self.n_unl, "n_unl")
        if not values:
            raise ValueError("sweep values must be non-empty")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("sweep values must be strictly increasing")
        object.__setattr__(self, "values", values)
        for name in ("n_pos", "n_neg", "trials", "test_size"):
            _check_count(getattr(self, name), name)
        _check_count(self.seed, "ExperimentGrid 'seed'", least=0)
        # Each size must give numpy an array it can index: a drawn set's
        # (n, 2) float64 rows, and run_sweep's (point, mode, trial) errors.
        unl = ("unlabeled size", values[-1]) if self.sweep == "nu" else ("n_unl", self.n_unl)
        for name, n in (("n_pos", self.n_pos), ("n_neg", self.n_neg), unl,
                        ("test_size", self.test_size)):
            _check_array_size(n, name, "(n, 2) float64 rows", 2)
        _check_array_size(self.trials, "trials", "(points, 3, trials) float64 errors",
                          len(values) * len(MODES))

    def point(self, value) -> tuple[float, int]:
        """Resolve a sweep value into the (pi, n_unl) pair for that point."""
        if self.sweep == "nu":
            return float(self.pi), int(value)
        return float(value), int(self.n_unl)


@dataclass(frozen=True)
class SweepRow:
    sweep_value: float
    mode: str
    mean_error: float
    std_error: float
    alpha_pu_pn: float
    alpha_nu_pn: float


@dataclass
class ResultTable:
    """Aggregated sweep results plus the per-trial errors behind them."""

    rows: list = field(default_factory=list)
    trial_errors: dict = field(default_factory=dict)  # (sweep_value, mode) -> np.ndarray

    def series(self, mode: str):
        """(sweep values, mean errors) for one mode, in sweep order."""
        rows = sorted((r for r in self.rows if r.mode == mode), key=lambda r: r.sweep_value)
        return (
            np.array([r.sweep_value for r in rows]),
            np.array([r.mean_error for r in rows]),
        )


def _trial_seed(master_seed: int, sweep_value, trial: int) -> np.random.SeedSequence:
    """Splittable per-trial seed from (master seed, sweep value, trial index)."""
    bits = int(np.float64(sweep_value).view(np.uint64))
    return np.random.SeedSequence(master_seed, spawn_key=(bits >> 32, bits & 0xFFFFFFFF, trial))


def _stderr(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return float(np.std(values, ddof=1)) / math.sqrt(values.size)


@contextmanager
def _trial_note(grid: ExperimentGrid, value, trial: int):
    """Add a note naming the sweep point and trial to an exception raised inside."""
    try:
        yield
    except Exception as exc:
        exc.add_note(f"sweep point {grid.sweep}={value}, trial {trial}")
        raise


def _holdout_errors(models: list, holdout) -> list:
    """Zero-one holdout error of each model; ``holdout`` may be a pending draw."""
    if isinstance(holdout, Future):
        holdout = holdout.result()
    return [risk_true_mc(model, holdout, losses.ZERO_ONE) for model in models]


def _run_trial(grid: ExperimentGrid, pool, value, trial: int, template: ModelTemplate,
               train_config: TrainConfig, cv_config: Optional[CvConfig],
               holdout_worker: ThreadPoolExecutor) -> Future:
    """One (sweep value, trial) cell: the future of its PN, PU and NU holdout errors.

    The trial's seeds come from (master seed, sweep value, trial).  A
    synthetic holdout draw is queued on ``holdout_worker`` before training;
    a pool's holdout is its leftover rows.  The three modes train in MODES
    order on the calling thread, each cross-validated when ``cv_config`` is
    given, on one triple whose arrays are read-only copies, so every mode
    sees the same rows.  Their scoring is queued after the draw.
    """
    pi, n_unl = grid.point(value)
    triple_seed, eval_seed = _trial_seed(grid.seed, value, trial).spawn(2)
    if pool is None:
        triple = gen_gaussian_artificial(grid.n_pos, grid.n_neg, n_unl, pi, triple_seed)
        holdout = holdout_worker.submit(gen_gaussian_labeled, grid.test_size, pi, eval_seed)
    else:
        triple, holdout = sample_triple_from_pool(
            pool, grid.n_pos, grid.n_neg, n_unl, pi, triple_seed
        )
    models = []
    for mode in MODES:
        mode_template, cfg = template, train_config
        if cv_config is not None:
            width, lam, _ = cross_validate(mode, triple, template, cv_config, train_config)
            mode_template = replace(template, width=width)
            cfg = replace(train_config, lam=lam)
        models.append(train(mode, triple, mode_template, cfg))
    return holdout_worker.submit(_holdout_errors, models, holdout)


def run_sweep(grid: ExperimentGrid, train_config: Optional[TrainConfig] = None,
              cv_config: Optional[CvConfig] = None,
              template: Optional[ModelTemplate] = None) -> ResultTable:
    """Train all three minimizers per trial on a shared triple and aggregate.

    The synthetic source defaults to the linear model and a CSV source to
    the kernel model.  Whenever ``cv_config`` is given, each trial
    cross-validates each mode, whatever the source: a kernel template
    searches (width, lambda), a linear one lambda only.  Without it, every
    fit uses the train config's lambda.

    An exception raised inside a trial, in training or in its holdout
    work, propagates with its type unchanged and a note naming the sweep
    point and trial.  A training error is raised at once, before the
    holdout errors of its sweep point, which are read after the point's
    last trial.  No thread is left running when the call returns or raises.
    """
    train_config = train_config or TrainConfig()
    pool = None
    if grid.data_source is not None:
        pool = load_csv(grid.data_source, grid.label_column)
    if template is None:
        template = ModelTemplate(kind="linear" if pool is None else "kernel")

    errors = np.empty((len(grid.values), len(MODES), grid.trials))  # point, mode, trial
    # One worker, so its jobs run in submission order: trial t's scoring
    # job finishes, and drops trial t's holdout, before trial t+1's draw runs.
    holdout_worker = ThreadPoolExecutor(max_workers=1)
    try:
        for point, value in enumerate(grid.values):
            scored = []
            for trial in range(grid.trials):
                with _trial_note(grid, value, trial):
                    scored.append(_run_trial(grid, pool, value, trial, template, train_config,
                                             cv_config, holdout_worker))
            for trial, future in enumerate(scored):
                with _trial_note(grid, value, trial):
                    errors[point, :, trial] = future.result()
    finally:
        # Nothing is queued after a normal return; after an exception the
        # queued holdout work is dropped, and the running job is waited for.
        holdout_worker.shutdown(cancel_futures=True)

    table = ResultTable()
    for value, point_errors in zip(grid.values, errors):
        pi, n_unl = grid.point(value)
        comp = bounds.ComparatorInput(pi=pi, n_pos=grid.n_pos, n_neg=grid.n_neg, n_unl=n_unl)
        a_pu, a_nu = bounds.alpha_pu_pn(comp), bounds.alpha_nu_pn(comp)
        for mode, vals in zip(MODES, point_errors):
            table.rows.append(SweepRow(
                sweep_value=float(value), mode=mode, mean_error=float(np.mean(vals)),
                std_error=_stderr(vals), alpha_pu_pn=a_pu, alpha_nu_pn=a_nu,
            ))
            table.trial_errors[(float(value), mode)] = vals
    return table


def emit(table: ResultTable, fmt: str, path) -> None:
    """Write the table as CSV (6 significant digits) or JSON (full precision).

    The text goes to ``path``, or to stdout when ``path`` is None.  CSV lines
    end in a bare newline.
    """
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in table.rows:
            writer.writerow(
                [f"{r.sweep_value:.6g}", r.mode] +
                [f"{v:.6g}" for v in (r.mean_error, r.std_error, r.alpha_pu_pn, r.alpha_nu_pn)]
            )
        text = buf.getvalue()
    elif fmt == "json":
        text = json.dumps({"rows": [r.__dict__ for r in table.rows]}, indent=1)
    else:
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    write_text(text, path)


def write_text(text: str, path) -> None:
    """Write ``text`` unchanged to ``path``, or to stdout when ``path`` is None.

    The one writer of command output: sweep tables and ``pnu advise``'s JSON.
    """
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def estimate_pu_pn_crossing(table: ResultTable) -> Optional[float]:
    """Unlabeled size at which the mean PU error crosses below the PN error.

    Fits the per-point mean difference (PU minus PN) against
    1/sqrt(n_unl) by least squares and returns the root of the fitted
    line.  The one-over-root-n regressor matches how the PU estimator's
    uncertainty shrinks, and using every sweep point makes the estimate
    robust to trial noise at any single point.  Returns None when the fit
    has no positive root (the curves never cross in range).
    """
    nu_vals, pu = table.series("PU")
    nu_pn, pn = table.series("PN")
    if nu_vals.size < 2 or not np.array_equal(nu_vals, nu_pn):
        raise ValueError("table must contain PU and PN rows on a common nu grid")
    diff = pu - pn
    design = np.column_stack([np.ones_like(nu_vals), 1.0 / np.sqrt(nu_vals)])
    (intercept, slope), *_ = np.linalg.lstsq(design, diff, rcond=None)
    if slope <= 0 or intercept >= 0:
        return None  # PU never overtakes PN (or starts ahead) under the fit
    return float((slope / -intercept) ** 2)


def recommendation_text(result: bounds.AlphaStarResult) -> str:
    if result.verdict == bounds.VERDICT_PU:
        return (
            "PU learning is promising: collect more unlabeled data "
            f"(limit comparator {result.alpha_star_pu:.4g} < 1)."
        )
    if result.verdict == bounds.VERDICT_NU:
        return (
            "NU learning is promising: collect more unlabeled data "
            f"(limit comparator {result.alpha_star_nu:.4g} < 1)."
        )
    return (
        "Degenerate tie (n_pos/n_neg equals pi^2/(1-pi)^2): neither unlabeled-data "
        "route improves on PN in the limit; PN remains competitive."
    )


def advise(pi: float, n_pos: int, n_neg: int, n_unl: Optional[int]) -> dict:
    """Comparator values, bound values at the ``bounds`` constants, and a recommendation.

    ``n_unl=None`` means the unlabeled budget is unbounded; finite-sample
    comparators are then None and bound values are reported in the limit.
    """
    comp = bounds.ComparatorInput(pi=pi, n_pos=n_pos, n_neg=n_neg, n_unl=n_unl)
    star = bounds.alpha_star(comp)
    v_pn, v_pu, v_nu = bounds.bound_values(comp)
    a_pu = None if n_unl is None else bounds.alpha_pu_pn(comp)
    a_nu = None if n_unl is None else bounds.alpha_nu_pn(comp)
    return {
        "pi": pi,
        "n_pos": n_pos,
        "n_neg": n_neg,
        "n_unl": n_unl,
        "alpha_pu_pn": a_pu,
        "alpha_nu_pn": a_nu,
        "pu_bound_tighter_than_pn": None if a_pu is None else bool(a_pu < 1.0),
        "nu_bound_tighter_than_pn": None if a_nu is None else bool(a_nu < 1.0),
        "alpha_star_pu": star.alpha_star_pu,
        "alpha_star_nu": star.alpha_star_nu,
        "verdict": star.verdict,
        "bound_values": {
            "pn": v_pn,
            "pu": v_pu,
            "nu": v_nu,
            "delta": bounds.DELTA,
            "lipschitz": bounds.LIPSCHITZ,
            "complexity_const": bounds.COMPLEXITY_CONST,
        },
        "recommendation": recommendation_text(star),
    }


# ---------------------------------------------------------------------------
# Invariant suites behind the `verify` CLI subcommand.
# ---------------------------------------------------------------------------


def _verify_calibration() -> tuple[bool, str]:
    return losses.verify_calibration(), "conditional-risk grid 0.05 x 0.01 over [-2, 2]"


def _verify_comparator_equivalence(seed: int, cases: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    pi = rng.uniform(0.02, 0.98, cases)
    comp = bounds.ComparatorInput(pi, *(rng.integers(1, 10_000, cases) for _ in range(3)))
    v_pn, v_pu, v_nu = bounds.bound_values(comp)
    bad = int(np.count_nonzero((bounds.alpha_pu_pn(comp) < 1.0) != (v_pu < v_pn))
              + np.count_nonzero((bounds.alpha_nu_pn(comp) < 1.0) != (v_nu < v_pn)))
    return bad == 0, f"{cases} random inputs, {bad} violations"


def _verify_reciprocity(seed: int, cases: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    pi = rng.uniform(0.02, 0.98, cases)
    comp = bounds.ComparatorInput(pi, *(rng.integers(1, 10_000, cases) for _ in range(2)))
    res = bounds.alpha_star(comp)
    worst = float(np.max(np.abs(res.alpha_star_pu * res.alpha_star_nu - 1.0)))
    return worst <= 1e-12, f"{cases} random inputs, worst product error {worst:.2e}"


#: Resamples drawn at a time by the unbiasedness suite: 500 resamples of 50
#: rows are 25,000 rows per set, so the suite's working set stays small
#: however many resamples it checks.
_RESAMPLE_BLOCK = 500


def _verify_unbiasedness(seed: int, resamples: int) -> tuple[bool, str]:
    """Resampled PN, PU and NU ramp risks average to the exact synthetic risk.

    The truth is ``risk_true_gaussian``, so the 5-sigma test's only error is
    the resampling standard error of each estimator's mean.
    """
    rng = np.random.default_rng(seed)
    model = DecisionModel(weights=rng.normal(size=2), bias=float(rng.normal(scale=0.2)))
    pi, n = 0.5, 50
    true_value = risk.risk_true_gaussian(model, pi, losses.SCALED_RAMP)

    # Blocks of iid resamples, drawn one after another from rng: one draw of
    # block*n rows per set, resample k of the block being its rows k*n to
    # (k+1)*n - 1, and one batched call per estimator and block.
    estimates = {mode: [] for mode in MODES}
    for done in range(0, resamples, _RESAMPLE_BLOCK):
        rows = min(_RESAMPLE_BLOCK, resamples - done) * n
        triple = gen_gaussian_artificial(rows, rows, rows, pi, rng)
        x_pos, x_neg, x_unl = (x.reshape(-1, n, 2)
                               for x in (triple.x_pos, triple.x_neg, triple.x_unl))
        estimates["PN"].append(risk.risk_pn(model, x_pos, x_neg, pi, losses.SCALED_RAMP))
        estimates["PU"].append(risk.risk_pu(model, x_pos, x_unl, pi, losses.SCALED_RAMP))
        estimates["NU"].append(risk.risk_nu(model, x_unl, x_neg, pi, losses.SCALED_RAMP))
    details = []
    ok = True
    for mode, blocks in estimates.items():
        arr = np.concatenate(blocks)
        gap = abs(float(np.mean(arr)) - true_value)
        se = _stderr(arr)
        ok &= gap <= 5.0 * se
        details.append(f"{mode} gap {gap:.2e} vs 5se {5 * se:.2e}")
    return ok, "; ".join(details)


def _verify_rademacher(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    checked = 0
    for n in (1, 10, 100, 1000):
        for _ in range(5):
            d = int(rng.integers(1, 8))
            x = rng.normal(size=(n, d))
            norms = np.linalg.norm(x, axis=1, keepdims=True)
            x = x / np.maximum(norms, 1e-12) * rng.uniform(0.1, 1.0, size=(n, 1))
            res = bounds.rademacher_mc_check(x, c_w=2.0, c_phi=1.0, seed=rng)
            if not res.passed:
                return False, f"failed at n={n}: estimate {res.estimate} > bound {res.bound}"
            checked += 1
    return True, f"{checked} samples across n in (1, 10, 100, 1000)"


def verify(seed: int = 0, fast: bool = False) -> list[tuple[str, bool, str]]:
    """Run the invariant suites and return (name, passed, detail) triples."""
    _check_count(seed, "verify 'seed'", least=0)
    size = 2_000 if fast else 10_000
    return [
        ("calibration", *_verify_calibration()),
        ("comparator-equivalence", *_verify_comparator_equivalence(seed, size)),
        ("alpha-star-reciprocity", *_verify_reciprocity(seed, size)),
        ("unbiasedness", *_verify_unbiasedness(seed, size)),
        ("rademacher", *_verify_rademacher(seed)),
    ]
