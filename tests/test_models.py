"""Decision models: linear scores and the Gaussian kernel map."""

import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from pnu import models
from pnu.datasets import SampleTriple
from pnu.harness import ExperimentGrid, run_sweep
from pnu.models import (
    _BLOCK_ELEMENTS,
    _MIN_BLOCKS_PER_WORKER,
    DecisionModel,
    EmpiricalKernelMap,
    _rows_per_block,
    kernel_map,
)
from pnu.training import CvConfig, ModelTemplate, TrainConfig, train


def _explicit_kernel_map(anchors, width, x):
    """Reference: the full (rows x anchors x dim) difference tensor, reduced over dim."""
    diff = x[:, None, :] - anchors[None, :, :]
    return np.exp(-(diff * diff).sum(axis=2) / (2 * width * width))


class TestPredict:
    def test_dot_product(self):
        model = DecisionModel(weights=[1.0, 0.0], bias=0.0)
        assert model.decision_values([[2.0, 5.0]])[0] == 2.0

    def test_constant_model(self):
        model = DecisionModel(weights=[0.0, 0.0], bias=0.3)
        assert model.decision_values([[17.0, -4.0]])[0] == 0.3

    def test_dimension_mismatch(self):
        model = DecisionModel(weights=[1.0, 2.0], bias=0.0)
        with pytest.raises(ValueError):
            model.decision_values([[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError, match="dimension 3 does not match anchor dimension 2"):
            kernel_map(np.zeros((4, 2)), 1.0, np.zeros((1, 3)))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_and_rows_rejected(self, value):
        """Weights, bias, anchors and scored rows are finite, or a ValueError names them."""
        linear = DecisionModel([1.0, 0.0], 0.0)
        kernel = DecisionModel([1.0, 0.0], 0.0, EmpiricalKernelMap(np.zeros((2, 2)), 1.0))
        bad_rows = np.array([[0.0, 0.0], [value, 0.0]])
        for build, field in ((lambda: DecisionModel([value, 0.0], 0.0), "'weights'"),
                             (lambda: DecisionModel([1.0, 0.0], value), "'bias'"),
                             (lambda: EmpiricalKernelMap(bad_rows, 1.0), "anchors"),
                             (lambda: kernel_map(np.zeros((2, 2)), 1.0, bad_rows), "x"),
                             (lambda: linear.decision_values(bad_rows), "x"),
                             (lambda: kernel.decision_values(bad_rows), "x")):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                build()

    def test_linear_in_weights(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 3))
        w1, w2 = rng.normal(size=3), rng.normal(size=3)
        a, b = 0.7, -1.3
        combo = DecisionModel(weights=a * w1 + b * w2, bias=0.0)
        parts = (
            a * DecisionModel(weights=w1, bias=0.0).decision_values(x)
            + b * DecisionModel(weights=w2, bias=0.0).decision_values(x)
        )
        np.testing.assert_allclose(combo.decision_values(x), parts, atol=1e-12)

    def test_later_writes_to_the_callers_weights_leave_the_scores_alone(self):
        w = np.array([1.0, 2.0])
        model = DecisionModel(weights=w, bias=0.0)
        w[0] = 100.0
        assert model.decision_values([[1.0, 1.0]])[0] == 3.0
        assert not np.shares_memory(model.weights, w)


class TestKernelMap:
    def test_anchor_maps_to_exactly_one(self):
        rng = np.random.default_rng(1)
        for dim in (1, 2, 4, 13):
            anchors = rng.normal(size=(6, dim))
            mapped = kernel_map(anchors, 0.8, anchors[3:4])
            assert mapped[0, 3] == 1.0
            assert mapped.shape == (1, 6)

    def test_half_value_distance(self):
        """k = 1/2 at distance width * sqrt(2 ln 2), by inverting the kernel."""
        width = 1.7
        x = np.zeros((1, 3))
        anchor = np.array([[width * math.sqrt(2.0 * math.log(2.0)), 0.0, 0.0]])
        assert kernel_map(anchor, width, x)[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(2)
        vals = kernel_map(rng.normal(size=(20, 5)), 1.0, rng.normal(size=(30, 5)))
        assert np.all((0.0 < vals) & (vals <= 1.0))

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(1, 5)), rng.normal(size=(1, 5))
        assert kernel_map(a, 0.9, b)[0, 0] == kernel_map(b, 0.9, a)[0, 0]

    def test_rejects_bad_width(self):
        """A width must be a finite positive real: an infinite one maps every row to all ones.

        2*width^2 must be a finite normal float64 too, or the kernel divides
        by zero (width 1e-170) or gives inf/inf = NaN (width 1e154).  At width
        9e153 a squared distance that overflows could have a kernel value far
        from 0 (1.4e154 away it is 0.298), so such widths are rejected too.
        """
        anchors = np.zeros((2, 2))
        for width in (0.0, math.inf, math.nan, True, "1", 1e-170, 1e154, 9e153):
            for build in (lambda: kernel_map(anchors, width, np.zeros((1, 2))),
                          lambda: EmpiricalKernelMap(anchors, width),
                          lambda: ModelTemplate(kind="kernel", width=width),
                          lambda: CvConfig(width_grid=(1.0, width), lambda_grid=(0.1,))):
                with pytest.raises(ValueError, match="width"):
                    build()

    def test_blockwise_matches_direct(self):
        """Over several blocks, the map equals explicit differences bit for bit.

        Below 8 terms numpy's axis sum adds left to right, as the map does.
        """
        rng = np.random.default_rng(4)
        for dim in range(1, 8):
            anchors = rng.normal(size=(300, dim))
            x = rng.normal(size=(3 * (_BLOCK_ELEMENTS // 300) + 7, dim))
            width = 0.6 * math.sqrt(dim)
            got = kernel_map(anchors, width, x)
            assert np.array_equal(got, _explicit_kernel_map(anchors, width, x)), dim

    @pytest.mark.parametrize("dim", [8, 13, 50])
    def test_wide_inputs_match_explicit_differences(self, dim):
        """From 8 terms numpy sums pairwise, so the last bits may differ.

        The width keeps every exponent O(1), where an ulp-level change in the
        squared distance moves the kernel value by well under 1e-15 relative.
        """
        rng = np.random.default_rng(dim)
        anchors = rng.normal(size=(300, dim))
        x = rng.normal(size=(500, dim))
        width = 2.0 * math.sqrt(dim)
        np.testing.assert_allclose(
            kernel_map(anchors, width, x), _explicit_kernel_map(anchors, width, x), rtol=1e-15
        )


def _subtracted_kernel_map(anchors, width, x):
    """Reference: the map's steps, each coordinate's differences from ``np.subtract``."""
    sq = np.zeros((x.shape[0], anchors.shape[0]))
    with np.errstate(over="ignore"):
        for j in range(x.shape[1]):
            sq += np.square(np.subtract(x[:, j, None], anchors[None, :, j]))
        sq /= -(2.0 * width * width)
    return np.exp(sq)


class TestDifferencesAsProducts:
    """Each difference x - a is formed as the two-term product x*1 + 1*(-a)."""

    @pytest.mark.parametrize("scale", [1e-310, 1e-200, 1.0, 1e150, 1e300])
    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_same_bits_as_subtracting(self, dim, scale):
        """Random rows, rows on the anchors, on their negatives and at +-0.0, over two
        blocks, plus rows and anchors at +-1.7e308 whose differences overflow.

        The width follows the scale within the accepted range, so at scales 1 and
        1e150 the exponents are O(1) and a difference one rounding off moves kernel
        values; below, every value is 1, and at 1e300 all but exact matches are 0.
        """
        rng = np.random.default_rng(dim)
        huge = np.array([[1.7e308] * dim, [-1.7e308] * dim])
        anchors = np.vstack([scale * rng.normal(size=(40, dim)), huge, np.zeros((1, dim))])
        zeros = rng.choice([0.0, -0.0], size=(6, dim))
        x = np.vstack([scale * rng.normal(size=(_rows_per_block(len(anchors)), dim)),
                       anchors, -anchors, zeros, -zeros])
        width = min(max(scale, 1e-150), 3.4e152)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kernel_map(anchors, width, x)
            want = _subtracted_kernel_map(anchors, width, x)
        assert got.tobytes() == want.tobytes()
        on_anchor = got[-2 * len(anchors) - 12 : -len(anchors) - 12]
        assert (np.diag(on_anchor) == 1.0).all()


class TestKernelModel:
    def test_weight_dimension_checked(self):
        fmap = EmpiricalKernelMap(anchors=np.zeros((4, 2)), width=1.0)
        with pytest.raises(ValueError):
            DecisionModel(weights=np.ones(3), bias=0.0, feature_map=fmap)

    def test_prediction_through_map(self):
        rng = np.random.default_rng(5)
        anchors = rng.normal(size=(5, 2))
        fmap = EmpiricalKernelMap(anchors=anchors, width=1.1)
        w = rng.normal(size=5)
        model = DecisionModel(weights=w, bias=0.25, feature_map=fmap)
        x = rng.normal(size=(1, 2))
        want = float(kernel_map(anchors, 1.1, x)[0] @ w) + 0.25
        assert model.decision_values(x)[0] == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_blockwise_scores_match_full_map(self, offset):
        rng = np.random.default_rng(7)
        anchors = rng.normal(size=(40, 3))
        w = rng.normal(size=40)
        model = DecisionModel(w, -0.3, EmpiricalKernelMap(anchors, 0.9))
        x = rng.normal(size=(_BLOCK_ELEMENTS // 40 + offset, 3))
        np.testing.assert_allclose(
            model.decision_values(x), kernel_map(anchors, 0.9, x) @ w - 0.3, rtol=1e-13
        )

    def test_single_row_vector_rejected(self):
        """Scoring and the kernel map take matrices of rows, not a bare row."""
        rng = np.random.default_rng(8)
        anchors = rng.normal(size=(40, 3))
        w = rng.normal(size=40)
        x = rng.normal(size=3)
        for score in (DecisionModel(w, 0.1, EmpiricalKernelMap(anchors, 0.9)).decision_values,
                      DecisionModel(w[:3], 0.1).decision_values,
                      lambda rows: kernel_map(anchors, 0.9, rows)):
            with pytest.raises(ValueError, match="ndim=1"):
                score(x)

    def test_rows_too_far_for_float64_score_without_a_warning(self):
        """A squared distance past float64, or its quotient by 2*width^2, gives the
        exact kernel value 0, silently.

        Near the widest accepted width, 3.4e152, a row 1.4e154 from the anchor
        overflows and maps to 0 (true value exp(-848)), while a row 1e153 away
        keeps its true value.
        """
        anchors = np.array([[0.0, 0.0], [1.0, 1.0]])
        model = DecisionModel([1.0, 2.0], 0.5, EmpiricalKernelMap(anchors, 1.0))
        x = np.array([[1e300, 0.0], [-1e300, 0.0], [1.7e308, -1.7e308], [0.0, 0.0]])
        far = DecisionModel([1.0, 2.0], 0.5, EmpiricalKernelMap([[0.0], [1e60]], 1e-100))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mapped = kernel_map(anchors, 1.0, x)
            scores = model.decision_values(x)
            divided = [kernel_map([[0.0], [1e10]], 1e-150, [[0.0]]),
                       kernel_map([[0.0], [1e60]], 1e-100, [[0.0]]),
                       kernel_map([[0.0], [1.0]], 1.06e-154, [[0.0]])]  # narrowest width
            far_scores = far.decision_values([[0.0], [1e60]])
            widest = kernel_map([[0.0]], 3.4e152, [[1.4e154], [1e153]])
        assert mapped[:3].tolist() == [[0.0, 0.0]] * 3 and mapped[3, 0] == 1.0
        assert scores.tolist() == (mapped @ [1.0, 2.0] + 0.5).tolist()
        assert [m.tolist() for m in divided] == [[[1.0, 0.0]]] * 3
        assert far_scores.tolist() == [1.5, 2.5]
        assert widest[0, 0] == 0.0
        assert widest[1, 0] == pytest.approx(math.exp(-(1e153 / 3.4e152) ** 2 / 2), rel=1e-14)

    def test_anchors_without_feature_columns_rejected(self):
        """Zero-column anchors fail as a contract violation naming them, not in the block loop."""
        empty = np.empty((3, 0))
        for build in (lambda: kernel_map(empty, 1.0, np.empty((2, 0))),
                      lambda: EmpiricalKernelMap(empty, 1.0),
                      lambda: train("PN", SampleTriple(empty, empty, empty, 0.5),
                                    ModelTemplate(kind="kernel"))):
            with pytest.raises(ValueError, match="^anchors must have at least one feature column"):
                build()
        linear = train("PN", SampleTriple(empty, empty, empty, 0.5))
        assert linear.weights.size == 0

    def test_scoring_memory_is_bounded_by_a_block(self):
        """2e5 rows x 200 anchors would need 320 MB as one feature matrix."""
        rng = np.random.default_rng(9)
        model = DecisionModel(rng.normal(size=200), 0.0,
                              EmpiricalKernelMap(rng.normal(size=(200, 2)), 1.0))
        x = rng.normal(size=(200_000, 2))
        tracemalloc.start()
        try:
            scores = model.decision_values(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert scores.shape == (200_000,)
        assert peak < 64 * 2**20


def _allocating_scores(model, x):
    """Reference: the same row blocks, each mapped with fresh temporaries and one matvec."""
    anchors, width = model.feature_map.anchors, model.feature_map.width
    block = _rows_per_block(anchors.shape[0])
    mapped = np.empty((min(block, x.shape[0]), anchors.shape[0]))
    scores = np.empty(x.shape[0])
    for start in range(0, x.shape[0], block):
        rows = x[start : start + block]
        sq = np.square(rows[:, 0, None] - anchors[None, :, 0])
        for j in range(1, anchors.shape[1]):
            sq += np.square(rows[:, j, None] - anchors[None, :, j])
        sq /= -(2.0 * width * width)
        z = np.exp(sq, out=mapped[: len(rows)])
        scores[start : start + len(rows)] = z @ model.weights
    return scores + model.bias


def _scoring_threads(monkeypatch):
    """Patch ``_kernel_block`` to record the id of each thread that scores a block."""
    threads = []
    real = models._kernel_block

    def recording(*args):
        threads.append(threading.get_ident())
        return real(*args)

    monkeypatch.setattr(models, "_kernel_block", recording)
    return threads


class TestParallelScoring:
    """Long inputs are scored on several threads, to the same bits as one."""

    @pytest.mark.parametrize("n_anchors", [40, 145])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_scores_are_the_same_bytes_on_any_number_of_cpus(self, n_anchors, dim, monkeypatch):
        """Enough blocks for three helper shares at 4 CPUs, plus a partial tail block."""
        rng = np.random.default_rng(100 * n_anchors + dim)
        model = DecisionModel(rng.normal(size=n_anchors), -0.2,
                              EmpiricalKernelMap(rng.normal(size=(n_anchors, dim)), 0.8))
        blocks = 4 * _MIN_BLOCKS_PER_WORKER + 1
        x = rng.normal(size=(blocks * _rows_per_block(n_anchors) - 7, dim))
        want = _allocating_scores(model, x).tobytes()
        threads = _scoring_threads(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads interleave between numpy calls
        try:
            for cpus in (1, 2, 4):
                monkeypatch.setattr(models, "_usable_cpus", lambda: cpus)
                threads.clear()
                assert model.decision_values(x).tobytes() == want, cpus
                # The caller scores share 0; a helper done early may take a later share.
                assert len(threads) == blocks and min(cpus, 2) <= len(set(threads)) <= cpus
                assert threads.count(threading.get_ident()) == math.ceil(blocks / cpus)
        finally:
            sys.setswitchinterval(interval)

    def test_kernel_map_is_the_same_bytes_on_any_number_of_cpus(self, monkeypatch):
        rng = np.random.default_rng(11)
        anchors = rng.normal(size=(40, 3))
        x = rng.normal(size=(2 * _MIN_BLOCKS_PER_WORKER * _rows_per_block(40) + 5, 3))
        monkeypatch.setattr(models, "_usable_cpus", lambda: 1)
        want = kernel_map(anchors, 0.7, x).tobytes()
        threads = _scoring_threads(monkeypatch)
        monkeypatch.setattr(models, "_usable_cpus", lambda: 2)
        assert kernel_map(anchors, 0.7, x).tobytes() == want
        assert len(set(threads)) == 2

    @pytest.mark.parametrize("failing", ["helper", "caller"])
    def test_a_block_error_reaches_the_caller_and_no_thread_outlives_the_call(
            self, failing, monkeypatch):
        class BlockError(Exception):
            pass

        caller = threading.get_ident()
        real = models._kernel_block

        def failing_block(*args):
            if (threading.get_ident() == caller) == (failing == "caller"):
                raise BlockError(failing)
            return real(*args)

        rng = np.random.default_rng(12)
        model = DecisionModel(rng.normal(size=40), 0.0,
                              EmpiricalKernelMap(rng.normal(size=(40, 2)), 1.0))
        x = rng.normal(size=(4 * _MIN_BLOCKS_PER_WORKER * _rows_per_block(40), 2))
        monkeypatch.setattr(models, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(models, "_kernel_block", failing_block)
        threads = threading.active_count()
        with pytest.raises(BlockError, match=failing):
            model.decision_values(x)
        assert threading.active_count() == threads

    def test_no_helper_starts_below_the_blocks_per_worker_threshold(self, tmp_path, monkeypatch):
        """Neither a 2,000-row warm-up holdout nor a 4,000-row pool's leftovers start one.

        Both score at most 4 blocks per model, so even 64 CPUs give one worker.
        """
        def no_helpers(max_workers):
            raise AssertionError(f"{max_workers} helper(s) started")

        monkeypatch.setattr(models, "_usable_cpus", lambda: 64)
        monkeypatch.setattr(models, "ThreadPoolExecutor", no_helpers)
        threads = _scoring_threads(monkeypatch)
        warm_up = ExperimentGrid(sweep="nu", values=(25,), n_pos=45, n_neg=5, pi=0.5,
                                 trials=1, test_size=2000, seed=3)
        run_sweep(warm_up, template=ModelTemplate(kind="kernel"))
        rng = np.random.default_rng(13)
        path = tmp_path / "pool.csv"
        labels = rng.random(4000) < 0.5
        feats = rng.normal(size=(4000, 2)) + np.where(labels, 0.8, -0.8)[:, None]
        np.savetxt(path, np.column_stack([feats, labels]), delimiter=",",
                   header="x1,x2,label", comments="")
        pool_grid = ExperimentGrid(sweep="pi", values=(0.3, 0.7), n_pos=12, n_neg=12,
                                   n_unl=50, trials=1, data_source=str(path),
                                   label_column="label", seed=3)
        run_sweep(pool_grid, TrainConfig(restarts=1),
                  CvConfig(folds=2, width_grid=(0.5, 1.0), lambda_grid=(1e-3, 1e-2)))
        assert len(threads) > 100  # training maps and holdouts were scored
