"""Where the traced pass records spans in pnu, and the per-layer metrics.

Every probe wraps a public function at the name its caller looks it up by
(``pnu.harness.train`` for the sweep, ``pnu.training.train`` for the CV
fits, and so on).  Inner-solver iteration counts are not reported: no public
function exposes them, and reaching for private symbols would silently
break on the next refactor.
"""

from __future__ import annotations

import inspect

import numpy as np

import pnu.bounds
import pnu.cli
import pnu.harness
import pnu.losses
import pnu.models
import pnu.risk
import pnu.training
from spans import Tracer

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("datasets.sample_s", "s", "lower"),
    ("datasets.holdout_s", "s", "lower"),
    ("datasets.load_csv_s", "s", "lower"),
    ("datasets.rows_drawn", "count", "lower"),
    ("models.kernel_map_s", "s", "lower"),
    ("models.kernel_map_calls", "count", "lower"),
    ("models.kernel_entries", "count", "lower"),
    ("models.kernel_ns_per_entry", "ns", "lower"),
    ("models.kernel_bytes_computed", "B", "lower"),
    ("training.fits", "count", "lower"),
    ("training.fit_s", "s", "lower"),
    ("training.fit_ms_p50", "ms", "lower"),
    ("training.fit_ms_p90", "ms", "lower"),
    ("training.outer_steps", "count", "lower"),
    ("training.outer_steps_per_fit", "steps/fit", "lower"),
    ("training.build_objective_s", "s", "lower"),
    ("training.objective_mean", "risk", "lower"),
    ("training.cv_calls", "count", "lower"),
    ("training.cv_fits", "count", "lower"),
    ("training.cv_s", "s", "lower"),
    ("risk.holdout_s", "s", "lower"),
    ("risk.holdout_points", "count", "lower"),
    ("risk.holdout_ns_per_point", "ns", "lower"),
    ("risk.estimator_calls", "count", "lower"),
    ("risk.estimator_us_per_call", "us", "lower"),
    ("bounds.calls", "count", "lower"),
    ("bounds.us_per_call", "us", "lower"),
    ("bounds.rademacher_s", "s", "lower"),
    ("losses.calibration_s", "s", "lower"),
    ("harness.self_s", "s", "lower"),
    ("harness.cpu_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)

#: Per-layer counts that must repeat exactly from one traced pass to the next.
WORK_COUNTS = (
    "datasets.rows_drawn",
    "models.kernel_map_calls",
    "models.kernel_entries",
    "training.fits",
    "training.outer_steps",
    "training.cv_fits",
    "risk.holdout_points",
    "risk.estimator_calls",
    "bounds.calls",
)

_RISK_BY_MODE = {"PN": pnu.risk.risk_pn, "PU": pnu.risk.risk_pu, "NU": pnu.risk.risk_nu}
_TRAIN_SIGNATURE = inspect.signature(pnu.training.train)


def _count_triple_rows(tracer, result, *args, **kwargs):
    triple = result[0] if isinstance(result, tuple) else result
    rows = triple.n_pos + triple.n_neg + triple.n_unl
    if isinstance(result, tuple):
        rows += result[1].size
    tracer.counts["datasets.rows_drawn"] += rows


def _count_holdout_rows(tracer, result, *args, **kwargs):
    tracer.counts["datasets.rows_drawn"] += len(result[1])


def _count_kernel_entries(tracer, anchors, width, x):
    rows = 1 if np.ndim(x) == 1 else np.shape(x)[0]
    n_anchors, dim = np.shape(anchors)
    tracer.counts["models.kernel_entries"] += rows * n_anchors
    tracer.counts["models.kernel_bytes_computed"] += rows * n_anchors * dim * 8


def _count_holdout_points(tracer, model, source, loss):
    size = getattr(source, "size", None)
    tracer.counts["risk.holdout_points"] += size if size is not None else len(source[1])


def _record_objective(tracer, model, *args, **kwargs):
    """The fitted model's regularized objective through the public risk API."""
    call = _TRAIN_SIGNATURE.bind(*args, **kwargs)
    call.apply_defaults()
    mode, triple, config = call.arguments["mode"], call.arguments["triple"], call.arguments["config"]
    first, second = pnu.training.MODE_SETS[mode]
    with tracer.span("trace.objective"), tracer.pause():
        risk = _RISK_BY_MODE[mode](
            model, getattr(triple, first), getattr(triple, second), triple.pi,
            pnu.losses.SCALED_RAMP,
        )
        value = risk + 0.5 * config.lam * float(model.weights @ model.weights)
    tracer.counts["training.objective_sum"] += value


def probes(tracer: Tracer) -> list:
    """(module, attribute, wrapper) for every function the traced pass records."""
    wrap = tracer.wrap
    train = wrap("training.train", pnu.training.train, after=_record_objective)
    targets = [
        (pnu.cli, "main", wrap("cli.main", pnu.cli.main)),
        (pnu.harness, "run_sweep", wrap("harness.run_sweep", pnu.harness.run_sweep)),
        (pnu.harness, "verify", wrap("harness.verify", pnu.harness.verify)),
        (pnu.harness, "gen_gaussian_artificial",
         wrap("datasets.sample", pnu.harness.gen_gaussian_artificial, after=_count_triple_rows)),
        (pnu.harness, "sample_triple_from_pool",
         wrap("datasets.sample", pnu.harness.sample_triple_from_pool, after=_count_triple_rows)),
        (pnu.harness, "gen_gaussian_labeled",
         wrap("datasets.holdout", pnu.harness.gen_gaussian_labeled, after=_count_holdout_rows)),
        (pnu.harness, "load_csv", wrap("datasets.load_csv", pnu.harness.load_csv)),
        (pnu.harness, "train", train),
        (pnu.training, "train", train),
        (pnu.harness, "cross_validate",
         wrap("training.cross_validate", pnu.harness.cross_validate)),
        (pnu.training, "build_objective",
         wrap("training.build_objective", pnu.training.build_objective)),
        (pnu.models, "kernel_map",
         wrap("models.kernel_map", pnu.models.kernel_map, before=_count_kernel_entries)),
        (pnu.harness, "risk_true_mc",
         wrap("risk.holdout", pnu.harness.risk_true_mc, before=_count_holdout_points)),
        (pnu.losses, "verify_calibration",
         wrap("losses.calibration", pnu.losses.verify_calibration)),
        (pnu.bounds, "rademacher_mc_check",
         wrap("bounds.rademacher", pnu.bounds.rademacher_mc_check)),
    ]
    for name in ("risk_pn", "risk_pu", "risk_nu"):
        estimator = wrap("risk.estimator", getattr(pnu.risk, name))
        targets += [(pnu.risk, name, estimator), (pnu.training, name, estimator)]
    for name in ("alpha_pu_pn", "alpha_nu_pn", "bound_values", "alpha_star"):
        targets.append((pnu.bounds, name, wrap("bounds.comparator", getattr(pnu.bounds, name))))
    return targets


def _per(numerator: float, denominator: float, scale: float) -> float:
    return scale * numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, outer_steps: int) -> dict:
    """Per-layer metrics of one traced pass (``outer_steps`` from ``run_stats``).

    A layer the workload never calls reports 0.
    """
    s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    fits = calls["training.train"]
    fit_ms = 1e3 * tracer.durations("training.train")
    entries = counts["models.kernel_entries"]
    points = counts["risk.holdout_points"]
    return {
        "datasets.sample_s": s["datasets.sample"],
        "datasets.holdout_s": s["datasets.holdout"],
        "datasets.load_csv_s": s["datasets.load_csv"],
        "datasets.rows_drawn": counts["datasets.rows_drawn"],
        "models.kernel_map_s": s["models.kernel_map"],
        "models.kernel_map_calls": calls["models.kernel_map"],
        "models.kernel_entries": entries,
        "models.kernel_ns_per_entry": _per(s["models.kernel_map"], entries, 1e9),
        "models.kernel_bytes_computed": counts["models.kernel_bytes_computed"],
        "training.fits": fits,
        "training.fit_s": s["training.train"],
        "training.fit_ms_p50": float(np.percentile(fit_ms, 50)) if fits else 0.0,
        "training.fit_ms_p90": float(np.percentile(fit_ms, 90)) if fits else 0.0,
        "training.outer_steps": outer_steps,
        "training.outer_steps_per_fit": _per(outer_steps, fits, 1.0),
        "training.build_objective_s": s["training.build_objective"],
        "training.objective_mean": _per(counts["training.objective_sum"], fits, 1.0),
        "training.cv_calls": calls["training.cross_validate"],
        "training.cv_fits": tracer.count_under("training.train", "training.cross_validate"),
        "training.cv_s": s["training.cross_validate"],
        "risk.holdout_s": s["risk.holdout"],
        "risk.holdout_points": points,
        "risk.holdout_ns_per_point": _per(s["risk.holdout"], points, 1e9),
        "risk.estimator_calls": calls["risk.estimator"],
        "risk.estimator_us_per_call": _per(s["risk.estimator"], calls["risk.estimator"], 1e6),
        "bounds.calls": calls["bounds.comparator"],
        "bounds.us_per_call": _per(s["bounds.comparator"], calls["bounds.comparator"], 1e6),
        "bounds.rademacher_s": s["bounds.rademacher"],
        "losses.calibration_s": s["losses.calibration"],
        "harness.self_s": s["harness.run_sweep"] + s["harness.verify"],
        "cli.self_s": s["cli.main"],
    }
