"""The benchmark's traced CSV path: pool resampling and holdout scoring as perfbench counts them.

``perfbench/test_perfbench.py`` traces only a synthetic sweep, so this runs
one CSV sweep point through perfbench's probes, whose row count reads the
``size`` of each trial's holdout pool.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from pnu import harness  # noqa: E402

POOL_ROWS = 400


def test_csv_sweep_probes_count_the_pool_and_leave_the_table_unchanged(tmp_path):
    path = tmp_path / "pool.csv"
    workloads.write_moons_csv(path, POOL_ROWS, seed=0)
    grid = harness.ExperimentGrid(sweep="nu", values=(50,), n_pos=12, n_neg=12, pi=0.5,
                                  trials=1, data_source=str(path), label_column="label", seed=2)
    tracer = spans.Tracer()
    with spans.patched(layers.probes(tracer)), tracer.span("bench.op"):
        traced = harness.run_sweep(grid)
    metrics = layers.layer_metrics(tracer, 0)
    drawn = 12 + 12 + 50
    assert metrics["datasets.rows_drawn"] == POOL_ROWS
    assert metrics["risk.holdout_points"] == 3 * (POOL_ROWS - drawn)
    plain = harness.run_sweep(grid)
    assert workloads.SweepWorkload.fingerprint(traced) == workloads.SweepWorkload.fingerprint(plain)
