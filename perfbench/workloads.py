"""The benchmark's workloads: their inputs, operations and output checks.

Every workload is a closed loop with one client: one operation at a time,
each issued after the previous one returned.  A sweep operation is one
sweep point, run as a single-value ``harness.run_sweep`` call; per-trial
seeds depend only on (master seed, sweep value, trial), so the points
together give the same table as one multi-value call.  A ``verify``
operation is one ``pnu verify`` through ``cli.main``.  pnu sees only the
inputs made here from the benchmark seed.

Why these four:

* ``linear_nu`` is the paper's unlabeled-size sweep at the acceptance
  design.  It is bound by the CCCP solver and never builds a kernel map, so
  solver changes show here and kernel-map changes must not.
* ``kernel_cv_csv`` is a prior sweep on a CSV pool with k-fold CV per trial
  and mode: many small kernel fits and validation-estimator calls.  It is
  the only workload that loads a CSV and resamples a pool.
* ``kernel_holdout`` scores kernel models on a 1e5-point holdout, so the
  kernel map runs a few times on large inputs and dominates the time.
* ``verify`` trains nothing; it makes tens of thousands of small estimator
  and comparator calls and is the only workload that runs ``bounds`` and
  ``losses``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import replace

import numpy as np

from pnu import bounds, cli, harness
from pnu.harness import ExperimentGrid, ResultTable
from pnu.training import CvConfig, ModelTemplate, TrainConfig

VERIFY_SUITES = (
    "calibration",
    "comparator-equivalence",
    "alpha-star-reciprocity",
    "unbiasedness",
    "rademacher",
)

POOL_ROWS = 4000
_WARM_TEST_SIZE = 2000


def write_moons_csv(path, rows: int, seed: int) -> None:
    """Two noisy interleaved half-moons, labels 1 and 0, one row per line."""
    rng = np.random.default_rng(seed)
    label = (rng.random(rows) < 0.5).astype(int)
    angle = rng.uniform(0.0, math.pi, rows)
    x1 = np.where(label == 1, np.cos(angle), 1.0 - np.cos(angle))
    x2 = np.where(label == 1, np.sin(angle), 0.5 - np.sin(angle))
    feats = np.column_stack([x1, x2]) + rng.normal(0.0, 0.25, size=(rows, 2))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x1,x2,label\n")
        for (a, b), y in zip(feats.tolist(), label.tolist()):
            fh.write(f"{a!r},{b!r},{y}\n")


def _table_bytes(table: ResultTable, path) -> bytes:
    """The table exactly as ``harness.emit`` writes it in JSON."""
    harness.emit(table, "json", path)
    with open(path, "rb") as fh:
        data = fh.read()
    os.remove(path)
    return data


class SweepWorkload:
    """A sweep whose operations are its sweep points."""

    units = 1

    def __init__(self, grid: ExperimentGrid, workdir: str, template=None, cv_config=None):
        self.grid = grid
        self.workdir = workdir
        self.template = template
        self.cv_config = cv_config
        self.train_config = None
        self.ops = grid.values

    def prepare(self) -> None:
        """Make the inputs that pnu reads (nothing for a synthetic source)."""

    def warm_up(self) -> None:
        small = replace(self.grid, values=self.grid.values[:1], trials=1,
                        test_size=_WARM_TEST_SIZE)
        cv = self.cv_config
        if cv is not None:
            cv = replace(cv, width_grid=cv.width_grid[:1], lambda_grid=cv.lambda_grid[:1])
        harness.run_sweep(small, self.train_config, cv, self.template)

    def run_op(self, value) -> ResultTable:
        return harness.run_sweep(replace(self.grid, values=(value,)), self.train_config,
                                 self.cv_config, self.template)

    def check_op(self, value, table: ResultTable) -> list:
        """Problems with one sweep point's rows; empty when they are right."""
        pi, n_unl = self.grid.point(value)
        comp = bounds.ComparatorInput(pi=pi, n_pos=self.grid.n_pos, n_neg=self.grid.n_neg,
                                      n_unl=n_unl)
        alphas = (bounds.alpha_pu_pn(comp), bounds.alpha_nu_pn(comp))
        problems = []
        if sorted(r.mode for r in table.rows) != sorted(harness.MODES):
            problems.append(f"modes {[r.mode for r in table.rows]}")
        for r in table.rows:
            if r.sweep_value != float(value):
                problems.append(f"{r.mode}: sweep value {r.sweep_value} != {value}")
            if not (math.isfinite(r.mean_error) and 0.0 <= r.mean_error <= 1.0):
                problems.append(f"{r.mode}: mean error {r.mean_error}")
            trials = table.trial_errors.get((r.sweep_value, r.mode))
            if (trials is None or trials.shape != (self.grid.trials,)
                    or not np.all((trials >= 0.0) & (trials <= 1.0))):
                problems.append(f"{r.mode}: per-trial errors {trials}")
            if (r.alpha_pu_pn, r.alpha_nu_pn) != alphas:
                problems.append(f"{r.mode}: comparators {(r.alpha_pu_pn, r.alpha_nu_pn)} "
                                f"!= recomputed {alphas}")
        return problems

    @staticmethod
    def fingerprint(table: ResultTable) -> bytes:
        """Every row and per-trial error, bit for bit."""
        h = hashlib.sha256()
        for r in table.rows:
            h.update(repr(tuple(r.__dict__.values())).encode())
            h.update(table.trial_errors[(r.sweep_value, r.mode)].tobytes())
        return h.digest()

    def table_digest(self, outputs: dict) -> str:
        rows = [row for value in self.ops for row in outputs[value].rows]
        data = _table_bytes(ResultTable(rows=rows), os.path.join(self.workdir, "table.json"))
        return hashlib.sha256(data).hexdigest()

    def mean_error(self, outputs: dict):
        """Mean holdout error over every (sweep value, mode) row."""
        return float(np.mean([r.mean_error for value in self.ops
                              for r in outputs[value].rows]))

    def trials(self) -> int:
        return len(self.ops) * self.grid.trials


class CsvSweepWorkload(SweepWorkload):
    """A sweep on a CSV pool with CV and training config files, all written in ``prepare``."""

    def __init__(self, grid: ExperimentGrid, workdir: str, cv_doc: dict, train_doc: dict):
        super().__init__(grid, workdir)
        self.cv_doc = cv_doc
        self.train_doc = train_doc

    def prepare(self) -> None:
        write_moons_csv(self.grid.data_source, POOL_ROWS, self.grid.seed)
        cv_path = os.path.join(self.workdir, "cv.json")
        train_path = os.path.join(self.workdir, "train.json")
        for path, doc in ((cv_path, self.cv_doc), (train_path, self.train_doc)):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        self.cv_config = CvConfig.from_json(cv_path)
        self.train_config = TrainConfig.from_json(train_path)


class VerifyWorkload:
    """``pnu verify`` at full size; one operation is one run of all five suites."""

    ops = ("verify",)
    #: Each suite counts as one attempted operation.
    units = len(VERIFY_SUITES)

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self) -> None:
        """``verify`` draws its own inputs from the seed it is given."""

    def _main(self, *extra) -> tuple:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", "--seed", str(self.seed), *extra])
        return code, out.getvalue()

    def warm_up(self) -> None:
        self._main("--fast")

    def run_op(self, _op) -> tuple:
        return self._main()

    @staticmethod
    def check_op(_op, result: tuple) -> list:
        """One problem per suite without a PASS line, plus any malformed output."""
        code, text = result
        lines = text.splitlines()
        problems = [f"{suite}: no PASS line" for suite in VERIFY_SUITES
                    if not any(line.startswith(f"[PASS] {suite}:") for line in lines)]
        if len(lines) != len(VERIFY_SUITES):
            problems.append(f"{len(lines)} output lines: {text!r}")
        if code != 0 and not problems:
            problems.append(f"exit code {code} with every suite passing")
        return problems

    @staticmethod
    def fingerprint(result: tuple) -> bytes:
        return repr(result).encode()

    def table_digest(self, outputs: dict) -> str:
        return hashlib.sha256(outputs["verify"][1].encode()).hexdigest()

    def mean_error(self, outputs: dict):
        return None

    def trials(self) -> int:
        return 0


def make(name: str, seed: int, workdir: str):
    """The named workload, its inputs drawn from ``seed``."""
    if name == "linear_nu":
        grid = ExperimentGrid(sweep="nu", values=(5, 10, 20, 45, 90, 200), n_pos=45,
                              n_neg=5, pi=0.5, trials=4, test_size=100_000, seed=seed)
        return SweepWorkload(grid, workdir)
    if name == "kernel_holdout":
        grid = ExperimentGrid(sweep="nu", values=(25, 100), n_pos=45, n_neg=5, pi=0.5,
                              trials=1, test_size=100_000, seed=seed)
        return SweepWorkload(grid, workdir, template=ModelTemplate(kind="kernel"))
    if name == "kernel_cv_csv":
        grid = ExperimentGrid(sweep="pi", values=(0.3, 0.7), n_pos=12, n_neg=12, n_unl=50,
                              trials=1, data_source=os.path.join(workdir, f"pool-{seed}.csv"),
                              label_column="label", seed=seed)
        cv_doc = {"folds": 2, "width_grid": [0.5, 1.0], "lambda_grid": [1e-3, 1e-2]}
        # One restart keeps a pass short, so each operation is timed often.
        return CsvSweepWorkload(grid, workdir, cv_doc, {"restarts": 1})
    if name == "verify":
        return VerifyWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")


#: Input sets per workload.  A sweep's time follows the solver iterations
#: its draws happen to need, so a run takes turns over several draws; the
#: counts are as many as a 25 s run passes over at least once.  ``verify``
#: does the same work whatever its seed.
INPUT_SETS = {"linear_nu": 3, "kernel_cv_csv": 8, "kernel_holdout": 5, "verify": 1}
#: Input set k of seed s is drawn from seed s + k * SET_STRIDE.
SET_STRIDE = 1_000_000


def make_sets(name: str, seed: int, workdir: str) -> list:
    """The named workload's input sets, all drawn from ``seed``."""
    return [make(name, seed + k * SET_STRIDE, workdir) for k in range(INPUT_SETS[name])]
