"""Sweep mechanics, table emission, the advice endpoint, verify suites."""

import json
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from pnu import bounds, harness, risk, training
from pnu.datasets import (
    InsufficientDataError,
    gen_gaussian_artificial,
    gen_gaussian_labeled,
    load_csv,
    sample_triple_from_pool,
)
from pnu.harness import (
    ExperimentGrid,
    ResultTable,
    SweepRow,
    advise,
    emit,
    estimate_pu_pn_crossing,
    run_sweep,
)
from pnu.losses import SCALED_RAMP, ZERO_ONE
from pnu.models import DecisionModel
from pnu.training import CccpMonotonicityError, CvConfig, ModelTemplate, TrainConfig, train

FAST_TRAIN = TrainConfig(seed=0)


def _tiny_grid(**overrides):
    base = dict(
        sweep="nu", values=(5, 20), n_pos=10, n_neg=10, pi=0.5,
        trials=2, test_size=2000, seed=123,
    )
    base.update(overrides)
    return ExperimentGrid(**base)


def _write_toy_csv(path):
    rng = np.random.default_rng(0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("f1,f2,y\n")
        for _ in range(400):
            label = 1 if rng.random() < 0.5 else -1
            x = rng.normal(size=2) + label * 0.8
            fh.write(f"{x[0]},{x[1]},{label}\n")


class TestGridValidation:
    def test_values_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            _tiny_grid(values=(20, 5))

    def test_sweep_kind_and_values_checked(self):
        with pytest.raises(ValueError, match="sweep must be 'nu' or 'pi', got 'mu'"):
            _tiny_grid(sweep="mu")
        with pytest.raises(ValueError, match="sweep values must be non-empty"):
            _tiny_grid(values=())

    def test_nu_sweep_needs_pi(self):
        for pi in (None, "x"):
            with pytest.raises(ValueError, match="pi"):
                _tiny_grid(pi=pi)

    def test_pi_sweep_needs_n_unl(self):
        with pytest.raises(ValueError, match="n_unl"):
            ExperimentGrid(sweep="pi", values=(0.2, 0.8), n_pos=5, n_neg=5, trials=1)

    def test_pi_values_inside_unit_interval(self):
        """Every value is checked: a NaN passes both comparisons with the end points."""
        for values in [(0.0, 0.5), (0.3, float("nan"))]:
            with pytest.raises(ValueError, match=r"strictly inside \(0, 1\)"):
                ExperimentGrid(sweep="pi", values=values, n_pos=5, n_neg=5, n_unl=10)

    @pytest.mark.parametrize("seed", [-1, 2.5])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="'seed'"):
            _tiny_grid(seed=seed)

    def test_nu_values_must_be_integers(self):
        """Truncated to 5, both points would share one trial_errors key per mode."""
        with pytest.raises(ValueError, match="unlabeled size"):
            _tiny_grid(values=(5.2, 5.7))

    @pytest.mark.parametrize("field, value", [
        ("n_pos", 4.5), ("n_neg", True), ("n_unl", 10.5), ("trials", 2.5), ("test_size", 0),
        ("n_pos", np.array([45])),
    ])
    def test_counts_must_be_positive_integers(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentGrid(**{**dict(sweep="pi", values=(0.2, 0.8), n_pos=5, n_neg=5, n_unl=10),
                              field: value})

    def test_numpy_integer_sizes_pass(self):
        grid = _tiny_grid(values=(np.int64(5), np.int64(20)), n_pos=np.int32(10))
        assert grid.values == (5, 20) and all(type(v) is int for v in grid.values)


class TestRunSweep:
    def test_shape_and_mode_coverage(self):
        table = run_sweep(_tiny_grid(), FAST_TRAIN)
        assert len(table.rows) == 2 * 3  # points x modes
        assert {row.mode for row in table.rows} == {"PN", "PU", "NU"}
        for row in table.rows:
            assert 0.0 <= row.mean_error <= 1.0
            assert row.alpha_pu_pn > 0 and row.alpha_nu_pn > 0

    def test_deterministic(self):
        t1 = run_sweep(_tiny_grid(trials=1), FAST_TRAIN)
        t2 = run_sweep(_tiny_grid(trials=1), FAST_TRAIN)
        assert t1.rows == t2.rows

    def test_trial_order_does_not_matter(self):
        """Per-trial seeds are derived, so adding trials never reshuffles old ones."""
        few = run_sweep(_tiny_grid(trials=2), FAST_TRAIN)
        more = run_sweep(_tiny_grid(trials=3), FAST_TRAIN)
        for key, errs in few.trial_errors.items():
            np.testing.assert_array_equal(errs, more.trial_errors[key][:2])

    def test_stderr_matches_trial_errors(self):
        table = run_sweep(_tiny_grid(trials=4), FAST_TRAIN)
        for row in table.rows:
            errs = table.trial_errors[(row.sweep_value, row.mode)]
            assert row.mean_error == pytest.approx(float(np.mean(errs)), abs=1e-15)
            want = float(np.std(errs, ddof=1)) / math.sqrt(len(errs))
            assert row.std_error == pytest.approx(want, abs=1e-15)

    def test_alpha_columns_match_bounds_module(self):
        from pnu.bounds import ComparatorInput, alpha_pu_pn

        table = run_sweep(_tiny_grid(), FAST_TRAIN)
        for row in table.rows:
            comp = ComparatorInput(pi=0.5, n_pos=10, n_neg=10, n_unl=int(row.sweep_value))
            assert row.alpha_pu_pn == alpha_pu_pn(comp)

    def test_pi_sweep_runs(self):
        grid = ExperimentGrid(
            sweep="pi", values=(0.3, 0.7), n_pos=8, n_neg=8, n_unl=12,
            trials=2, test_size=1000, seed=5,
        )
        table = run_sweep(grid, FAST_TRAIN)
        assert {row.sweep_value for row in table.rows} == {0.3, 0.7}

    def test_csv_source_with_cv(self, tmp_path):
        path = tmp_path / "toy.csv"
        _write_toy_csv(path)
        grid = ExperimentGrid(
            sweep="nu", values=(12,), n_pos=10, n_neg=10, pi=0.5,
            trials=1, data_source=str(path), label_column="y", seed=7,
        )
        cv = CvConfig(folds=2, width_grid=(1.0, 2.0), lambda_grid=(1e-3,))
        table = run_sweep(grid, FAST_TRAIN, cv_config=cv)
        assert len(table.rows) == 3
        for row in table.rows:
            assert 0.0 <= row.mean_error <= 1.0

    def test_synthetic_sweep_cross_validates_when_given_a_cv_config(self, monkeypatch):
        """A supplied CvConfig is honoured on the synthetic source too: once per mode."""
        calls = []
        real_cv = harness.cross_validate

        def counting_cv(mode, *args):
            calls.append(mode)
            return real_cv(mode, *args)

        monkeypatch.setattr(harness, "cross_validate", counting_cv)
        cv = CvConfig(folds=2, lambda_grid=(1e-3, 1e-1))
        table = run_sweep(_tiny_grid(values=(6,), trials=1), FAST_TRAIN, cv_config=cv)
        assert calls == ["PN", "PU", "NU"]
        assert len(table.rows) == 3
        run_sweep(_tiny_grid(values=(6,), trials=1), FAST_TRAIN)
        assert len(calls) == 3

    def test_errors_carry_context(self, tmp_path):
        """A per-trial failure keeps its type and gains (sweep value, trial) context."""
        path = tmp_path / "small.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("f1,y\n")
            for i in range(10):
                fh.write(f"{float(i)},{1 if i < 3 else -1}\n")
        grid = ExperimentGrid(sweep="nu", values=(5,), n_pos=8, n_neg=2, pi=0.5,
                              trials=1, data_source=str(path), label_column="y", seed=0)
        with pytest.raises(InsufficientDataError, match="exhausted") as info:
            run_sweep(grid, FAST_TRAIN)
        assert info.value.__notes__ == ["sweep point nu=5, trial 0"]


def _set_bytes(triple):
    """The shape and bytes of each of the triple's three sets."""
    return [(x.shape, x.tobytes()) for x in (triple.x_pos, triple.x_neg, triple.x_unl)]


class TestSharedTriple:
    """Every mode of a trial trains, and cross-validates, on one frozen triple."""

    @pytest.mark.parametrize("source", ["synthetic", "csv-cv"])
    def test_modes_see_the_same_read_only_rows(self, source, tmp_path, monkeypatch):
        seen = []

        def recording(fn):
            def call(mode, triple, *args):
                seen.append((mode, triple, _set_bytes(triple)))
                return fn(mode, triple, *args)
            return call

        monkeypatch.setattr(harness, "train", recording(harness.train))
        monkeypatch.setattr(harness, "cross_validate", recording(harness.cross_validate))
        if source == "synthetic":
            run_sweep(_tiny_grid(values=(6,), trials=1), FAST_TRAIN)
        else:
            path = tmp_path / "toy.csv"
            _write_toy_csv(path)
            grid = _tiny_grid(values=(12,), trials=1, data_source=str(path), label_column="y")
            cv = CvConfig(folds=2, width_grid=(1.0,), lambda_grid=(1e-3,))
            run_sweep(grid, FAST_TRAIN, cv_config=cv)
        per_mode = 1 if source == "synthetic" else 2
        assert [mode for mode, _, _ in seen] == [m for m in harness.MODES for _ in range(per_mode)]
        triple = seen[0][1]
        for _, received, rows in seen:
            assert received is triple and rows == seen[0][2]
        assert _set_bytes(triple) == seen[0][2]
        for x in (triple.x_pos, triple.x_neg, triple.x_unl):
            assert not x.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                x[0, 0] = 1.0


def _recording(calls, fn):
    """``fn`` appending the calling thread's id to ``calls`` on every call."""
    def call(*args):
        calls.append(threading.get_ident())
        return fn(*args)
    return call


class TestHoldoutThread:
    """Training runs on the caller's thread, holdout work on one background thread."""

    def test_fits_run_on_the_caller_and_holdout_work_on_one_other_thread(self, monkeypatch):
        fits, draws, scores = [], [], []
        monkeypatch.setattr(harness, "train", _recording(fits, harness.train))
        monkeypatch.setattr(harness, "gen_gaussian_labeled",
                            _recording(draws, harness.gen_gaussian_labeled))
        monkeypatch.setattr(harness, "risk_true_mc", _recording(scores, harness.risk_true_mc))
        run_sweep(_tiny_grid(trials=3), FAST_TRAIN)
        assert set(fits) == {threading.get_ident()} and len(fits) == 2 * 3 * 3
        assert len(draws) == 2 * 3 and len(scores) == 2 * 3 * 3
        (worker,) = set(draws + scores)
        assert worker != threading.get_ident()

    @pytest.mark.parametrize("source", ["synthetic", "csv"])
    def test_trial_errors_equal_a_serial_loop(self, source, tmp_path):
        if source == "synthetic":
            grid, pool = _tiny_grid(trials=3), None
            template = ModelTemplate(kind="linear")
        else:
            path = tmp_path / "toy.csv"
            _write_toy_csv(path)
            grid = _tiny_grid(values=(12,), trials=2, data_source=str(path), label_column="y")
            pool, template = load_csv(path, "y"), ModelTemplate(kind="kernel")
        table = run_sweep(grid, FAST_TRAIN)
        for value in grid.values:
            serial = {mode: [] for mode in harness.MODES}
            for trial in range(grid.trials):
                triple_seed, eval_seed = harness._trial_seed(grid.seed, value, trial).spawn(2)
                sizes = (grid.n_pos, grid.n_neg, value, grid.pi, triple_seed)
                if pool is None:
                    triple = gen_gaussian_artificial(*sizes)
                    holdout = gen_gaussian_labeled(grid.test_size, grid.pi, eval_seed)
                else:
                    triple, holdout = sample_triple_from_pool(pool, *sizes)
                for mode in harness.MODES:
                    model = train(mode, triple, template, FAST_TRAIN)
                    serial[mode].append(risk.risk_true_mc(model, holdout, ZERO_ONE))
            for mode, errors in serial.items():
                assert table.trial_errors[(float(value), mode)].tolist() == errors

    @pytest.mark.parametrize("values, trials, failing_cell, note", [
        ((5,), 4, 2, "sweep point nu=5, trial 2"),
        ((5, 6), 2, 3, "sweep point nu=6, trial 1"),  # after the first point's two trials
    ], ids=["nu5", "nu6"])
    def test_a_scoring_error_keeps_its_type_and_names_its_trial(self, monkeypatch, values,
                                                                 trials, failing_cell, note):
        class ScoringFailure(Exception):
            pass

        calls = []

        def failing(*args):
            calls.append(args)
            if (len(calls) - 1) // 3 == failing_cell:  # three models per trial
                raise ScoringFailure("holdout scoring failed")
            return risk.risk_true_mc(*args)

        monkeypatch.setattr(harness, "risk_true_mc", failing)
        threads = threading.active_count()
        with pytest.raises(ScoringFailure) as info:
            run_sweep(_tiny_grid(values=values, trials=trials), FAST_TRAIN)
        assert info.value.__notes__ == [note]
        assert threading.active_count() == threads

    def test_a_failing_fit_drops_the_queued_holdout_work(self, monkeypatch):
        """Trial 1's fit fails while trial 0's scoring runs: trial 1's draw is cancelled."""
        submitted, fits, draws, failed = [], [], [], threading.Event()

        class RecordingExecutor(ThreadPoolExecutor):
            def submit(self, fn, *args):
                submitted.append(super().submit(fn, *args))
                return submitted[-1]

        def failing_train(*args):
            fits.append(args)
            if len(fits) > 3:  # three fits per trial
                failed.set()
                raise CccpMonotonicityError("objective increased")
            return train(*args)

        def slow_scoring(*args):
            # Hold the worker until trial 1's fit has failed and its queued draw,
            # the last job submitted, has been cancelled.
            assert failed.wait(timeout=10)
            deadline = time.monotonic() + 10
            while not submitted[-1].cancelled() and time.monotonic() < deadline:
                time.sleep(0.001)
            return risk.risk_true_mc(*args)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(harness, "train", failing_train)
        monkeypatch.setattr(harness, "gen_gaussian_labeled",
                            _recording(draws, harness.gen_gaussian_labeled))
        monkeypatch.setattr(harness, "risk_true_mc", slow_scoring)
        threads = threading.active_count()
        with pytest.raises(CccpMonotonicityError) as info:
            run_sweep(_tiny_grid(values=(5,), trials=4), FAST_TRAIN)
        assert info.value.__notes__ == ["sweep point nu=5, trial 1"]
        assert len(draws) == 1
        assert threading.active_count() == threads


LINEAR_GOLDEN_GRID = ExperimentGrid(sweep="nu", values=(5, 30), n_pos=12, n_neg=4, pi=0.5,
                                    trials=2, test_size=20_000, seed=11)
KERNEL_GOLDEN_GRID = ExperimentGrid(sweep="pi", values=(0.3, 0.7), n_pos=10, n_neg=10, n_unl=20,
                                    trials=2, test_size=20_000, seed=12)


class TestGoldenSweep:
    """Fixed-seed sweeps and weights, compared exactly.

    The linear values were recorded when linear fits moved to the exact
    active-set inner solve, the kernel ones when kernel fits did.  A change
    that claims to leave the numbers alone has to reproduce them bit for
    bit.
    """

    def test_linear_nu_sweep(self):
        assert run_sweep(LINEAR_GOLDEN_GRID, TrainConfig(seed=0)).rows == [
            SweepRow(5.0, "PN", 0.21685, 0.029649999999999992, 2.3662046511894577, 4.8304374845348095),
            SweepRow(5.0, "PU", 0.2568, 0.05839999999999999, 2.3662046511894577, 4.8304374845348095),
            SweepRow(5.0, "NU", 0.41435, 0.20915, 2.3662046511894577, 4.8304374845348095),
            SweepRow(30.0, "PN", 0.23375, 0.03945, 1.3076470125298472, 2.9969618716362287),
            SweepRow(30.0, "PU", 0.19805, 0.031799999999999995, 1.3076470125298472, 2.9969618716362287),
            SweepRow(30.0, "NU", 0.498125, 0.13712499999999997, 1.3076470125298472, 2.9969618716362287),
        ]

    @pytest.mark.parametrize("grid, kind", [(LINEAR_GOLDEN_GRID, "linear"),
                                            (KERNEL_GOLDEN_GRID, "kernel")],
                             ids=["linear", "kernel"])
    def test_sweep_never_falls_back(self, grid, kind, monkeypatch):
        """Every inner solve of a golden sweep certifies."""
        real = training._solve_active_set

        def certified(*args):
            try:
                solved = real(*args)
            except np.linalg.LinAlgError:
                solved = None
            assert solved is not None, f"a {kind} subproblem went uncertified"
            return solved

        monkeypatch.setattr(training, "_solve_active_set", certified)
        run_sweep(grid, TrainConfig(seed=0), template=ModelTemplate(kind=kind))

    def test_kernel_pi_sweep(self):
        table = run_sweep(KERNEL_GOLDEN_GRID, TrainConfig(seed=0),
                          template=ModelTemplate(kind="kernel"))
        assert table.rows == [
            SweepRow(0.3, "PN", 0.192125, 0.014975, 1.4387239731236394, 4.6903559372884915),
            SweepRow(0.3, "PU", 0.27645, 0.10325, 1.4387239731236394, 4.6903559372884915),
            SweepRow(0.3, "NU", 0.315725, 0.12147499999999997, 1.4387239731236394, 4.6903559372884915),
            SweepRow(0.7, "PN", 0.16044999999999998, 0.0006999999999999922, 4.690355937288491, 1.4387239731236396),
            SweepRow(0.7, "PU", 0.28350000000000003, 0.11599999999999999, 4.690355937288491, 1.4387239731236396),
            SweepRow(0.7, "NU", 0.268525, 0.032275000000000005, 4.690355937288491, 1.4387239731236396),
        ]

    def test_trained_weights(self):
        """The fitted weights themselves, which a holdout error rate can hide."""
        triple = gen_gaussian_artificial(12, 4, 30, 0.5, 5)
        want = {
            "PN": ([5.122053766552068, 0.8070011246123702], 0.42459378106652546),
            "PU": ([5.456656903545103, 0.2917063991743203], 1.6974819695309906),
            "NU": ([0.9184058776375759, -0.06193877952546087], 0.7911049864476506),
        }
        for mode, (weights, bias) in want.items():
            model = train(mode, triple, config=TrainConfig(seed=0))
            assert (model.weights.tolist(), model.bias) == (weights, bias)
        model = train("PU", gen_gaussian_artificial(4, 3, 4, 0.5, 6),
                      ModelTemplate(kind="kernel"), TrainConfig(seed=0))
        assert model.weights.tolist() == [
            -1.9638550737509781, -0.23356256098156827, -2.843113003199976,
            -4.147494390308598, -6.432724465998184, -8.723560649364332,
            -7.713116534233189, -7.379795979231848,
        ]
        assert model.bias == 28.23196432444498


class TestEmit:
    def _table(self):
        rows = [
            SweepRow(5.0, "PN", 0.21234567, 0.012345678, 1.23456789, 2.3456789),
            SweepRow(5.0, "PU", 0.31234567, 0.022345678, 1.23456789, 2.3456789),
        ]
        return ResultTable(rows=rows)

    def test_csv_header_and_digits(self, tmp_path):
        path = tmp_path / "out.csv"
        emit(self._table(), "csv", path)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "sweep_value,mode,mean_error,std_error,alpha_pu_pn,alpha_nu_pn"
        assert lines[1] == "5,PN,0.212346,0.0123457,1.23457,2.34568"
        assert b"\r" not in path.read_bytes()

    def test_empty_table_writes_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit(ResultTable(), "csv", path)
        assert path.read_text(encoding="utf-8").strip() == ",".join(harness.CSV_HEADER)

    def test_json_roundtrip_identical(self, tmp_path):
        path = tmp_path / "out.json"
        table = self._table()
        emit(table, "json", path)
        with open(path, encoding="utf-8") as fh:
            assert [SweepRow(**row) for row in json.load(fh)["rows"]] == table.rows

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit(self._table(), "xml", tmp_path / "x")


class TestCrossingEstimate:
    def _table_from_curve(self, nus, diffs):
        rows = []
        for nu, d in zip(nus, diffs):
            rows.append(SweepRow(nu, "PN", 0.2, 0.0, 1.0, 1.0))
            rows.append(SweepRow(nu, "PU", 0.2 + d, 0.0, 1.0, 1.0))
        return ResultTable(rows=rows)

    def test_recovers_exact_crossing(self):
        """A noiseless difference a + b/sqrt(nu) is inverted exactly."""
        nus = np.array([5.0, 10.0, 25.0, 60.0, 120.0, 200.0])
        a, b = -0.04, 0.3  # crossing at (b/-a)^2 = 56.25
        table = self._table_from_curve(nus, a + b / np.sqrt(nus))
        assert estimate_pu_pn_crossing(table) == pytest.approx(56.25, rel=1e-9)

    def test_no_crossing_when_pu_never_wins(self):
        nus = np.array([5.0, 20.0, 80.0])
        table = self._table_from_curve(nus, 0.05 + 0.2 / np.sqrt(nus))
        assert estimate_pu_pn_crossing(table) is None

    def test_needs_pu_and_pn_rows_on_one_grid(self):
        one_point = self._table_from_curve([5.0], [0.1])
        shifted = self._table_from_curve([5.0, 20.0], [0.1, 0.0])
        shifted.rows[-1] = SweepRow(40.0, "PU", 0.2, 0.0, 1.0, 1.0)
        for table in (one_point, shifted):
            with pytest.raises(ValueError, match="common nu grid"):
                estimate_pu_pn_crossing(table)


class TestAdvise:
    def test_reference_case(self):
        doc = advise(0.5, 45, 5, 100)
        assert doc["alpha_pu_pn"] == pytest.approx(0.7805469288332914, abs=1e-12)
        assert doc["alpha_star_pu"] == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert doc["verdict"] == "pu-promising"
        assert doc["pu_bound_tighter_than_pn"] is True
        assert "PU" in doc["recommendation"]

    def test_mirror_case_recommends_nu(self):
        doc = advise(0.5, 5, 45, 100)
        assert doc["alpha_star_nu"] == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert doc["verdict"] == "nu-promising"
        assert "NU" in doc["recommendation"]

    def test_mirror_symmetry_of_comparators(self):
        """Swapping (pi, n_pos) with (1-pi, n_neg) swaps the two comparators."""
        a = advise(0.3, 40, 10, 70)
        b = advise(0.7, 10, 40, 70)
        assert a["alpha_pu_pn"] == pytest.approx(b["alpha_nu_pn"], rel=1e-12)
        assert a["alpha_nu_pn"] == pytest.approx(b["alpha_pu_pn"], rel=1e-12)

    def test_degenerate_tie_notes_pn(self):
        doc = advise(0.5, 64, 64, 100)
        assert doc["verdict"] == "degenerate-tie"
        assert "PN" in doc["recommendation"]

    def test_unbounded_unlabeled(self):
        doc = advise(0.5, 45, 5, None)
        assert doc["alpha_pu_pn"] is None
        # limit: 2*pi/sqrt(45) is half of pi/sqrt(45) + (1-pi)/sqrt(5)
        assert doc["bound_values"]["pu"] == pytest.approx(
            doc["bound_values"]["pn"] / 2.0, rel=1e-9
        )
        json.dumps(doc)  # must be serializable with the symbolic None

    def test_scalar_results_are_plain_and_serializable(self):
        doc = advise(0.5, 45, 5, 100)
        assert all(type(doc[key]) is float for key in (
            "alpha_pu_pn", "alpha_nu_pn", "alpha_star_pu", "alpha_star_nu"))
        assert all(type(doc["bound_values"][key]) is float for key in ("pn", "pu", "nu"))
        assert type(doc["verdict"]) is str
        json.dumps(doc)

    def test_array_counts_rejected(self):
        """The comparators take array fields; advise reports one configuration."""
        with pytest.raises(ValueError, match="n_pos"):
            advise(0.5, np.array([45]), 5, 100)


class TestVerifySuites:
    def test_fast_verify_passes(self):
        results = harness.verify(seed=0, fast=True)
        assert [name for name, _, _ in results] == [
            "calibration",
            "comparator-equivalence",
            "alpha-star-reciprocity",
            "unbiasedness",
            "rademacher",
        ]
        for name, ok, detail in results:
            assert ok, f"{name}: {detail}"

    def test_failed_rademacher_check_fails_the_suite(self, monkeypatch):
        failing = bounds.RademacherCheck(estimate=2.0, bound=1.0, std_error=0.0, passed=False)
        monkeypatch.setattr(bounds, "rademacher_mc_check", lambda *args, **kwargs: failing)
        ok, detail = harness._verify_rademacher(seed=0)
        assert not ok
        assert detail == "failed at n=1: estimate 2.0 > bound 1.0"

    def test_unbiasedness_resample_k_is_rows_k_n_to_k_n_plus_n(self, monkeypatch):
        """The batched estimates equal a per-resample loop over the same draw."""
        draws, calls = [], []

        def recording_draw(*args):
            draws.append(gen_gaussian_artificial(*args))
            return draws[-1]

        def recording(estimator):
            def call(model, *args):
                calls.append((model, estimator(model, *args)))
                return calls[-1][1]
            return call

        estimators = {"PN": risk.risk_pn, "PU": risk.risk_pu, "NU": risk.risk_nu}
        monkeypatch.setattr(harness, "gen_gaussian_artificial", recording_draw)
        for mode, estimator in estimators.items():
            monkeypatch.setattr(risk, f"risk_{mode.lower()}", recording(estimator))
        resamples, n, pi = 50, 50, 0.5
        ok, _ = harness._verify_unbiasedness(seed=3, resamples=resamples)
        assert ok
        (triple,) = draws
        assert triple.n_pos == triple.n_neg == triple.n_unl == resamples * n
        for (model, batched), (mode, estimator) in zip(calls, estimators.items(), strict=True):
            first, second = risk.MODE_SETS[mode]
            looped = [
                estimator(model, getattr(triple, first)[k * n:(k + 1) * n],
                          getattr(triple, second)[k * n:(k + 1) * n], pi, SCALED_RAMP)
                for k in range(resamples)
            ]
            assert np.array_equal(batched, looped), mode

    def test_unbiasedness_blocks_are_consecutive_draws(self, monkeypatch):
        """With 20-resample blocks, 50 resamples are three draws in a row from the suite's rng."""
        draws, calls = [], []

        def recording_draw(*args):
            draws.append(gen_gaussian_artificial(*args))
            return draws[-1]

        def recording(estimator):
            def call(*args):
                calls.append(estimator(*args))
                return calls[-1]
            return call

        true_pu = risk.risk_pu
        monkeypatch.setattr(harness, "_RESAMPLE_BLOCK", 20)
        monkeypatch.setattr(harness, "gen_gaussian_artificial", recording_draw)
        monkeypatch.setattr(risk, "risk_pu", recording(true_pu))
        resamples, n, pi = 50, 50, 0.5
        ok, _ = harness._verify_unbiasedness(seed=3, resamples=resamples)
        assert ok

        rng = np.random.default_rng(3)
        model = DecisionModel(weights=rng.normal(size=2), bias=float(rng.normal(scale=0.2)))
        assert [t.n_pos for t in draws] == [20 * n, 20 * n, 10 * n]
        for triple, batched in zip(draws, calls, strict=True):
            expected = gen_gaussian_artificial(triple.n_pos, triple.n_neg, triple.n_unl, pi, rng)
            assert _set_bytes(triple) == _set_bytes(expected)
            looped = [true_pu(model, triple.x_pos[k * n:(k + 1) * n],
                              triple.x_unl[k * n:(k + 1) * n], pi, SCALED_RAMP)
                      for k in range(triple.n_pos // n)]
            assert np.array_equal(batched, looped)
