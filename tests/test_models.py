"""Decision models: linear scores and the Gaussian kernel map."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from pnu.datasets import SampleTriple
from pnu.models import _BLOCK_ELEMENTS, DecisionModel, EmpiricalKernelMap, kernel_map
from pnu.training import CvConfig, ModelTemplate, train


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
        for dim in (4, 13):
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
