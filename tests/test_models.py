"""Decision models: linear scores, the Gaussian kernel map, serialization."""

import math
import tracemalloc

import numpy as np
import pytest

from pnu.models import _BLOCK_ELEMENTS, DecisionModel, EmpiricalKernelMap, kernel_map


def _explicit_kernel_map(anchors, width, x):
    """Reference: the full (rows x anchors x dim) difference tensor, reduced over dim."""
    diff = x[:, None, :] - anchors[None, :, :]
    return np.exp(-(diff * diff).sum(axis=2) / (2 * width * width))


class TestPredict:
    def test_dot_product(self):
        model = DecisionModel(weights=[1.0, 0.0], bias=0.0)
        assert model.decision_values([2.0, 5.0])[0] == 2.0

    def test_constant_model(self):
        model = DecisionModel(weights=[0.0, 0.0], bias=0.3)
        assert model.decision_values([17.0, -4.0])[0] == 0.3

    def test_dimension_mismatch(self):
        model = DecisionModel(weights=[1.0, 2.0], bias=0.0)
        with pytest.raises(ValueError):
            model.decision_values([1.0, 2.0, 3.0])

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


class TestKernelMap:
    def test_anchor_maps_to_exactly_one(self):
        rng = np.random.default_rng(1)
        for dim in (4, 13):
            anchors = rng.normal(size=(6, dim))
            mapped = kernel_map(anchors, 0.8, anchors[3])
            assert mapped[3] == 1.0
            assert mapped.shape == (6,)

    def test_half_value_distance(self):
        """k = 1/2 at distance width * sqrt(2 ln 2), by inverting the kernel."""
        width = 1.7
        x = np.zeros(3)
        anchor = np.array([width * math.sqrt(2.0 * math.log(2.0)), 0.0, 0.0])
        assert kernel_map(anchor[None, :], width, x)[0] == pytest.approx(0.5, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(2)
        vals = kernel_map(rng.normal(size=(20, 5)), 1.0, rng.normal(size=(30, 5)))
        assert np.all((0.0 < vals) & (vals <= 1.0))

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=5), rng.normal(size=5)
        assert kernel_map(a[None, :], 0.9, b)[0] == kernel_map(b[None, :], 0.9, a)[0]

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            kernel_map(np.zeros((2, 2)), 0.0, np.zeros(2))

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
        x = rng.normal(size=2)
        want = float(w @ kernel_map(anchors, 1.1, x)) + 0.25
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

    def test_single_row_scores_like_a_matrix_row(self):
        rng = np.random.default_rng(8)
        anchors = rng.normal(size=(40, 3))
        w = rng.normal(size=40)
        model = DecisionModel(w, 0.1, EmpiricalKernelMap(anchors, 0.9))
        x = rng.normal(size=3)
        got = model.decision_values(x)
        assert got.shape == (1,)
        np.testing.assert_allclose(got, kernel_map(anchors, 0.9, x) @ w + 0.1, rtol=1e-13)

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


class TestSerialization:
    def test_linear_roundtrip(self, tmp_path):
        model = DecisionModel(weights=[0.5, -2.0], bias=1.25)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = DecisionModel.load(path)
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.bias == model.bias
        assert loaded.feature_map is None

    def test_kernel_roundtrip(self, tmp_path):
        rng = np.random.default_rng(6)
        fmap = EmpiricalKernelMap(anchors=rng.normal(size=(3, 2)), width=0.7)
        model = DecisionModel(weights=rng.normal(size=3), bias=-0.1, feature_map=fmap)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = DecisionModel.load(path)
        x = rng.normal(size=(10, 2))
        np.testing.assert_allclose(
            loaded.decision_values(x), model.decision_values(x), atol=1e-15
        )
        assert loaded.feature_map.width == 0.7
