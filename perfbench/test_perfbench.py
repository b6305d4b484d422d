"""Checks of the benchmark's own tracing; run with ``python3 -m pytest perfbench``.

One tiny sweep point is run traced and untraced: self times must add up to
the root span, the traced fit count must match pnu's own run counter, the
linear template must never reach the kernel map, and tracing must not
change the table.  Rescaling by the reference loop must cancel a slowdown
that hits the operation and the loop alike.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from pnu import harness, training  # noqa: E402
from pnu.training import ModelTemplate  # noqa: E402

TINY = harness.ExperimentGrid(sweep="nu", values=(10,), n_pos=10, n_neg=5, pi=0.5,
                              trials=1, test_size=500, seed=3)


def traced_sweep(template=None):
    tracer = spans.Tracer()
    before = training.run_stats()
    with spans.patched(layers.probes(tracer)), tracer.span("bench.op"):
        table = harness.run_sweep(TINY, None, None, template)
    after = training.run_stats()
    outer = after["outer_steps"] - before["outer_steps"]
    return tracer, table, after["runs"] - before["runs"], layers.layer_metrics(tracer, outer)


def test_self_times_add_up_to_the_root_span():
    tracer, *_ = traced_sweep()
    (root,) = tracer.roots()
    duration = tracer.span_end[root] - tracer.span_start[root]
    assert sum(tracer.self_s.values()) == pytest.approx(duration, rel=1e-9, abs=1e-9)


def test_fits_match_the_run_counter_and_linear_fits_skip_the_kernel_map():
    tracer, _, runs, metrics = traced_sweep()
    assert runs == 3
    assert metrics["training.fits"] == runs
    assert metrics["models.kernel_map_calls"] == 0
    assert metrics["risk.holdout_points"] == 3 * TINY.test_size


def test_kernel_template_is_counted():
    _, _, runs, metrics = traced_sweep(ModelTemplate(kind="kernel"))
    assert metrics["training.fits"] == runs == 3
    assert metrics["models.kernel_map_calls"] > 0
    assert metrics["models.kernel_entries"] > 0


def test_tracing_leaves_the_table_and_the_package_unchanged():
    plain = harness.run_sweep(TINY)
    _, traced, _, _ = traced_sweep()
    assert workloads.SweepWorkload.fingerprint(traced) == workloads.SweepWorkload.fingerprint(plain)
    assert harness.train is training.train
    assert not hasattr(training.train, "__wrapped__")


def test_single_point_operations_give_the_multi_point_table():
    grid = replace(TINY, values=(5, 10))
    whole = harness.run_sweep(grid)
    rows = [row for v in grid.values for row in harness.run_sweep(replace(grid, values=(v,))).rows]
    assert rows == whole.rows


def test_normalization_cancels_a_slowdown_common_to_the_reference():
    nominal = reference.NOMINAL_S
    assert reference.normalized(1.5, nominal, nominal) == pytest.approx(1.5)
    assert reference.normalized(3.0, 2 * nominal, 2 * nominal) == pytest.approx(1.5)
    assert reference.normalized(3.0, nominal, 3 * nominal) == pytest.approx(1.5)
    assert reference.reference_s() > 0.0


def test_benchmark_json_lists_the_per_layer_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
