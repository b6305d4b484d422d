"""Estimator values, unbiasedness, ranges, and the convergence rate."""

import math
import re

import numpy as np
import pytest

from pnu.datasets import gen_gaussian_artificial, gen_gaussian_labeled
from pnu.losses import SCALED_RAMP, ZERO_ONE, LossDescriptor
from pnu.models import DecisionModel, EmpiricalKernelMap
from pnu.risk import MODE_TABLE, risk_nu, risk_pn, risk_pu, risk_true_mc

# Bayes error of the synthetic task at pi = 1/2: the class means sit at
# distance 2 with unit covariance, so the optimal rule errs with
# probability Phi(-1).
BAYES_ERROR = 0.5 * (1.0 + math.erf(-1.0 / math.sqrt(2.0)))

HINGE = LossDescriptor(
    value=lambda t, y: np.maximum(0.0, 1.0 - np.asarray(t, dtype=float) * y),
    is_symmetric=False,
    name="hinge",
)


def _constant_margin_model(margin):
    """Identity-map model scoring `margin` on rows of the form (margin, *)."""
    return DecisionModel(weights=[1.0, 0.0], bias=0.0)


class TestRiskPn:
    def test_constant_zero_model_is_exactly_half(self):
        model = DecisionModel(weights=[0.0, 0.0], bias=0.0)
        triple = gen_gaussian_artificial(13, 7, 1, 0.37, 0)
        assert risk_pn(model, triple.x_pos, triple.x_neg, 0.37, SCALED_RAMP) == 0.5

    def test_separated_data_is_zero(self):
        model = _constant_margin_model(3.0)
        x_pos = np.tile([3.0, 0.0], (5, 1))
        x_neg = np.tile([-3.0, 0.0], (5, 1))
        assert risk_pn(model, x_pos, x_neg, 0.5, SCALED_RAMP) == 0.0

    def test_convex_combination(self):
        # mean losses 0.2 on positives (margin 0.6) and 0.6 on negatives
        # (margin 0.2): risk = 0.3*0.2 + 0.7*0.6 = 0.48 by hand
        model = _constant_margin_model(None)
        x_pos = np.tile([0.6, 0.0], (4, 1))
        x_neg = np.tile([0.2, 0.0], (4, 1))
        assert risk_pn(model, x_pos, x_neg, 0.3, SCALED_RAMP) == pytest.approx(0.48, abs=1e-15)

    def test_empty_set_rejected(self):
        model = _constant_margin_model(None)
        with pytest.raises(ValueError):
            risk_pn(model, np.empty((0, 2)), np.ones((2, 2)), 0.5, SCALED_RAMP)


class TestRiskPu:
    def test_constant_zero_model_is_exactly_half(self):
        model = DecisionModel(weights=[0.0, 0.0], bias=0.0)
        triple = gen_gaussian_artificial(9, 1, 11, 0.21, 1)
        assert risk_pu(model, triple.x_pos, triple.x_unl, 0.21, SCALED_RAMP) == 0.5

    def test_always_positive_model(self):
        """Scoring +3 everywhere costs exactly the negative mass 1 - pi."""
        model = DecisionModel(weights=[0.0, 0.0], bias=3.0)
        triple = gen_gaussian_artificial(10, 1, 10, 0.3, 2)
        value = risk_pu(model, triple.x_pos, triple.x_unl, 0.3, SCALED_RAMP)
        assert value == pytest.approx(0.7, abs=1e-15)

    def test_rejects_asymmetric_loss(self):
        model = DecisionModel(weights=[0.0, 0.0], bias=0.0)
        triple = gen_gaussian_artificial(5, 1, 5, 0.5, 3)
        with pytest.raises(ValueError, match="symmetric"):
            risk_pu(model, triple.x_pos, triple.x_unl, 0.5, HINGE)

    def test_may_be_negative(self):
        """The estimator is unbiased, not nonnegative; no clamping happens."""
        model = DecisionModel(weights=[1.0, 0.0], bias=0.0)
        x_pos = np.tile([3.0, 0.0], (3, 1))   # loss 0 with label +1
        x_unl = np.tile([-3.0, 0.0], (3, 1))  # loss 0 with label -1
        value = risk_pu(model, x_pos, x_unl, 0.9, SCALED_RAMP)
        assert value == pytest.approx(-0.9, abs=1e-15)


class TestRiskNu:
    def test_constant_zero_model_is_exactly_half(self):
        model = DecisionModel(weights=[0.0, 0.0], bias=0.0)
        triple = gen_gaussian_artificial(1, 6, 14, 0.84, 4)
        assert risk_nu(model, triple.x_unl, triple.x_neg, 0.84, SCALED_RAMP) == 0.5

    def test_always_negative_model(self):
        """Scoring -3 everywhere costs exactly the positive mass pi."""
        model = DecisionModel(weights=[0.0, 0.0], bias=-3.0)
        triple = gen_gaussian_artificial(1, 10, 10, 0.3, 5)
        value = risk_nu(model, triple.x_unl, triple.x_neg, 0.3, SCALED_RAMP)
        assert value == pytest.approx(0.3, abs=1e-15)

    def test_rejects_asymmetric_loss(self):
        model = DecisionModel(weights=[0.0, 0.0], bias=0.0)
        triple = gen_gaussian_artificial(1, 5, 5, 0.5, 6)
        with pytest.raises(ValueError, match="symmetric"):
            risk_nu(model, triple.x_unl, triple.x_neg, 0.5, HINGE)


class TestRiskTrue:
    def test_bayes_linear_model_hits_analytic_error(self):
        """The optimal direction scores the Bayes error Phi(-1) ~ 0.1587."""
        model = DecisionModel(weights=[1.0, 1.0], bias=0.0)
        holdout = gen_gaussian_labeled(1_000_000, 0.5, 42)
        err = risk_true_mc(model, holdout, ZERO_ONE)
        assert err == pytest.approx(BAYES_ERROR, abs=0.0012)

    def test_constant_positive_on_balanced_data(self):
        model = DecisionModel(weights=[0.0, 0.0], bias=3.0)
        feats = np.zeros((4, 2))
        labels = np.array([1, 1, -1, -1])
        assert risk_true_mc(model, (feats, labels), ZERO_ONE) == 0.5

    def test_surrogate_and_zero_one_differ(self):
        """The ramp is not an upper bound of the zero-one loss; values differ."""
        model = DecisionModel(weights=[1.0, 0.0], bias=0.0)
        feats = np.array([[0.4, 0.0], [-0.2, 0.0], [1.5, 0.0]])
        labels = np.array([1, 1, -1])
        ramp = risk_true_mc(model, (feats, labels), SCALED_RAMP)
        zo = risk_true_mc(model, (feats, labels), ZERO_ONE)
        assert ramp != zo

    def test_empty_rejected(self):
        model = DecisionModel(weights=[0.0, 0.0], bias=0.0)
        with pytest.raises(ValueError):
            risk_true_mc(model, (np.empty((0, 2)), np.empty(0)), ZERO_ONE)


class TestUnbiasedness:
    """Resampled estimator means converge to the Monte-Carlo truth."""

    def test_estimators_agree_with_truth(self):
        rng = np.random.default_rng(7)
        model = DecisionModel(weights=rng.normal(size=2), bias=float(rng.normal(scale=0.2)))
        pi, n, resamples = 0.5, 50, 3000

        feats, labels = gen_gaussian_labeled(1_000_000, pi, rng)
        scores = model.decision_values(feats)
        point_losses = np.where(
            labels == 1, SCALED_RAMP.value(scores, +1), SCALED_RAMP.value(scores, -1)
        )
        truth = float(np.mean(point_losses))
        se_truth = float(np.std(point_losses, ddof=1)) / math.sqrt(point_losses.size)

        values = {"PN": [], "PU": [], "NU": []}
        for _ in range(resamples):
            triple = gen_gaussian_artificial(n, n, n, pi, rng)
            values["PN"].append(risk_pn(model, triple.x_pos, triple.x_neg, pi, SCALED_RAMP))
            values["PU"].append(risk_pu(model, triple.x_pos, triple.x_unl, pi, SCALED_RAMP))
            values["NU"].append(risk_nu(model, triple.x_unl, triple.x_neg, pi, SCALED_RAMP))
        for mode, vals in values.items():
            arr = np.asarray(vals)
            se = math.hypot(float(np.std(arr, ddof=1)) / math.sqrt(arr.size), se_truth)
            assert abs(arr.mean() - truth) <= 5.0 * se, mode

    def test_resampling_stddev_scaling(self):
        """Doubling both sample sizes shrinks the PU spread by about sqrt(2)."""
        rng = np.random.default_rng(8)
        model = DecisionModel(weights=rng.normal(size=2), bias=0.1)

        def spread(n, resamples=4000):
            vals = []
            for _ in range(resamples):
                triple = gen_gaussian_artificial(n, 1, n, 0.5, rng)
                vals.append(risk_pu(model, triple.x_pos, triple.x_unl, 0.5, SCALED_RAMP))
            return float(np.std(vals, ddof=1))

        ratio = spread(100) / spread(50)
        assert abs(ratio - 1.0 / math.sqrt(2.0)) <= 0.2 / math.sqrt(2.0)


class TestEstimatorRanges:
    def test_estimates_land_in_declared_ranges(self):
        """With a loss in [0, 1]: PN in [0, 1], PU in [-pi, 1+pi], NU in [pi-1, 2-pi]."""
        rng = np.random.default_rng(9)
        for _ in range(100):
            pi = rng.uniform(0.05, 0.95)
            t = gen_gaussian_artificial(4, 4, 4, pi, rng)
            model = DecisionModel(weights=rng.normal(size=2, scale=3), bias=float(rng.normal()))
            assert 0.0 <= risk_pn(model, t.x_pos, t.x_neg, pi, SCALED_RAMP) <= 1.0
            assert -pi <= risk_pu(model, t.x_pos, t.x_unl, pi, SCALED_RAMP) <= 1.0 + pi
            assert pi - 1.0 <= risk_nu(model, t.x_unl, t.x_neg, pi, SCALED_RAMP) <= 2.0 - pi


ESTIMATORS = {"PN": risk_pn, "PU": risk_pu, "NU": risk_nu}


def _batched_sets(rng, b=7, n_plus=13, n_minus=9):
    """Two (B, n, 2) sample sets with different set sizes."""
    return rng.normal(size=(b, n_plus, 2)), rng.normal(size=(b, n_minus, 2))


def _kernel_model(rng, anchors):
    fmap = EmpiricalKernelMap(rng.normal(size=(anchors, 2)), width=0.8)
    return DecisionModel(rng.normal(size=anchors), float(rng.normal()), fmap)


class TestBatchedEstimators:
    """A leading resample axis gives the stacked per-resample estimates."""

    @pytest.mark.parametrize("loss", [SCALED_RAMP, ZERO_ONE], ids=lambda l: l.name)
    @pytest.mark.parametrize("mode", ["PN", "PU", "NU"])
    def test_linear_matches_stacked_calls_bit_for_bit(self, mode, loss):
        rng = np.random.default_rng(11)
        model = DecisionModel(weights=rng.normal(size=2), bias=float(rng.normal()))
        x_plus, x_minus = _batched_sets(rng)
        batched = ESTIMATORS[mode](model, x_plus, x_minus, 0.4, loss)
        stacked = [ESTIMATORS[mode](model, p, m, 0.4, loss) for p, m in zip(x_plus, x_minus)]
        assert batched.shape == (7,)
        assert np.array_equal(batched, stacked)

    @pytest.mark.parametrize("anchors", [5, 60, 300])
    @pytest.mark.parametrize("loss", [SCALED_RAMP, ZERO_ONE], ids=lambda l: l.name)
    @pytest.mark.parametrize("mode", ["PN", "PU", "NU"])
    def test_kernel_matches_stacked_calls(self, mode, loss, anchors):
        # Scoring B*n rows at once blocks the kernel matvec differently from
        # n rows at a time, which may move the last bits of a score.
        rng = np.random.default_rng(12)
        model = _kernel_model(rng, anchors)
        x_plus, x_minus = _batched_sets(rng)
        batched = ESTIMATORS[mode](model, x_plus, x_minus, 0.4, loss)
        stacked = [ESTIMATORS[mode](model, p, m, 0.4, loss) for p, m in zip(x_plus, x_minus)]
        np.testing.assert_allclose(batched, stacked, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("mode", ["PN", "PU", "NU"])
    def test_zero_one_equals_compensated_sum(self, mode):
        """Pairwise sums of zero-one losses are exact, so fsum agrees bit for bit."""
        rng = np.random.default_rng(13)
        model = DecisionModel(weights=rng.normal(size=2), bias=0.0)
        x_plus, x_minus = _batched_sets(rng, b=5, n_plus=301, n_minus=77)
        x_plus[:, :3] = 0.0  # score 0 exactly: a half error
        pi = 0.3
        spec = MODE_TABLE[mode]
        w_plus, w_minus = spec.weights(pi)

        def reference(p, m):
            plus = w_plus * (math.fsum(ZERO_ONE.value(model.decision_values(p), +1)) / len(p))
            minus = w_minus * (math.fsum(ZERO_ONE.value(model.decision_values(m), -1)) / len(m))
            labeled, other = (minus, plus) if mode == "NU" else (plus, minus)
            return (spec.constant(pi) + labeled) + other

        expected = [reference(p, m) for p, m in zip(x_plus, x_minus)]
        assert ESTIMATORS[mode](model, x_plus[0], x_minus[0], pi, ZERO_ONE) == expected[0]
        assert np.array_equal(ESTIMATORS[mode](model, x_plus, x_minus, pi, ZERO_ONE), expected)

    def test_unbatched_call_returns_a_float(self):
        model = DecisionModel(weights=[1.0, -0.5], bias=0.1)
        x_plus, x_minus = _batched_sets(np.random.default_rng(14))
        for estimator in ESTIMATORS.values():
            assert type(estimator(model, x_plus[0], x_minus[0], 0.5, SCALED_RAMP)) is float

    def test_empty_resamples_rejected(self):
        model = DecisionModel(weights=[1.0, 0.0], bias=0.0)
        with pytest.raises(ValueError, match="empty"):
            risk_pu(model, np.empty((3, 0, 2)), np.ones((3, 4, 2)), 0.5, SCALED_RAMP)

    @pytest.mark.parametrize("x_plus_shape, x_minus_shape", [
        ((4, 10, 2), (3, 10, 2)),  # resample axes differ
        ((4, 10, 2), (10, 2)),     # one set batched, the other not
        ((10, 2), (4, 10, 2)),
    ])
    def test_mismatched_resample_axes_rejected(self, x_plus_shape, x_minus_shape):
        model = DecisionModel(weights=[1.0, 0.0], bias=0.0)
        message = re.escape(f"{x_plus_shape} and {x_minus_shape}")
        for estimator in ESTIMATORS.values():
            with pytest.raises(ValueError, match=message):
                estimator(model, np.ones(x_plus_shape), np.ones(x_minus_shape), 0.5,
                          SCALED_RAMP)
