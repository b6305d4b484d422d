"""Estimator values, unbiasedness, ranges, and the convergence rate."""

import math
import re

import numpy as np
import pytest

from pnu.datasets import LabeledPool, gen_gaussian_artificial, gen_gaussian_labeled
from pnu.losses import SCALED_RAMP, ZERO_ONE, LossDescriptor, zero_one
from pnu.models import DecisionModel, EmpiricalKernelMap
from pnu.risk import (
    MODE_TABLE,
    _fmean,
    risk_nu,
    risk_pn,
    risk_pu,
    risk_true_gaussian,
    risk_true_mc,
)
from pnu.training import TrainConfig, train

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

    @pytest.mark.parametrize("feats, labels, message", [
        ([[1.0, 0.0], [2.0, 0.0]], [1, 2], r"labels must contain only \+1 and -1"),
        ([[1.0, 0.0], [2.0, 0.0]], [1, 0], r"labels must contain only \+1 and -1"),
        ([[1.0, 0.0], [2.0, 0.0]], [1, -1, 1], "one entry per feature row"),
        ([[1.0, 0.0], [2.0, 0.0]], [[1, -1]], "one entry per feature row"),
        ([[math.nan, 0.0], [2.0, 0.0]], [1, -1], "x must be finite"),
    ])
    def test_pair_source_follows_the_pool_rules(self, feats, labels, message):
        """A (features, labels) pair is held to LabeledPool's rules: label 2 is not a negative."""
        model = DecisionModel(weights=[1.0, 0.0], bias=0.0)
        with pytest.raises(ValueError, match=message):
            risk_true_mc(model, (feats, labels), ZERO_ONE)


def _two_label_zero_one(scores, labels) -> float:
    """The zero-one mean as each row's loss under its own label, summed pairwise."""
    positive = np.asarray(labels) == 1
    return float(_fmean(np.where(positive, zero_one(scores, +1), zero_one(scores, -1))))


class _FixedScores:
    """A stand-in model that gives every call a fresh copy of fixed scores."""

    def __init__(self, scores):
        self.scores = np.asarray(scores, dtype=float)

    def decision_values(self, x):
        return self.scores.copy()


class TestZeroOneMean:
    """The zero-one holdout error is the two-label formula's mean, bit for bit."""

    @staticmethod
    def _check(model, source):
        if isinstance(source, LabeledPool):
            feats, labels = source.features, source.labels
        else:
            feats, labels = source
        kept = [np.array(a, copy=True) for a in (feats, labels)]
        want = _two_label_zero_one(model.decision_values(feats), labels)
        got = risk_true_mc(model, source, ZERO_ONE)
        assert type(got) is float and got.hex() == want.hex(), (got, want)
        for before, after in zip(kept, (feats, labels)):
            after = np.asarray(after)
            assert after.dtype == before.dtype and after.tobytes() == before.tobytes()
        return got

    @pytest.mark.parametrize("n", [2, 3, 7, 10, 99, 1001, 100_000])
    def test_linear_models_on_pair_and_pool_sources(self, n):
        rng = np.random.default_rng(n)
        feats, labels = gen_gaussian_labeled(n, 0.4, n)
        labels[:2] = (1, -1)  # a pool needs both classes
        pool = LabeledPool(feats, labels)
        for _ in range(20):
            model = DecisionModel(rng.normal(size=2), float(rng.normal()))
            for source in ((feats, labels), (feats, labels.astype(float)),
                           (feats, labels.astype(object)), (feats.tolist(), labels.tolist()),
                           pool):
                self._check(model, source)

    def test_rows_on_the_boundary_count_half(self):
        """Every split of up to 12 rows into hits, errors and ties (scores of exactly 0)."""
        hit = DecisionModel([1.0, 0.0], 0.0)
        for n in range(1, 13):
            labels = np.where(np.arange(n) % 2 == 0, 1, -1)
            for lost in range(n + 1):
                for tied in range(n + 1 - lost):
                    margins = np.repeat([-1.0, 0.0, 1.0], [lost, tied, n - lost - tied])
                    feats = np.column_stack([labels * margins, np.zeros(n)])
                    assert self._check(hit, (feats, labels)) == (lost + tied / 2) / n
        feats, labels = gen_gaussian_labeled(11, 0.3, 2)
        assert self._check(DecisionModel([0.0, 0.0], 0.0), (feats, labels)) == 0.5

    @pytest.mark.parametrize("label", [1, -1, 1.0, -1.0])
    def test_one_class_labels(self, label):
        feats, _ = gen_gaussian_labeled(77, 0.5, 4)
        labels = np.full(77, label)
        for model in (DecisionModel([1.0, 1.0], 0.1), DecisionModel([0.0, 0.0], 0.0)):
            self._check(model, (feats, labels))

    def test_kernel_model(self):
        rng = np.random.default_rng(5)
        model = _kernel_model(rng, 30)
        feats, labels = gen_gaussian_labeled(20_003, 0.3, 6)
        self._check(model, (feats, labels))
        self._check(model, LabeledPool(feats, labels))

    def test_a_nan_score_gives_nan(self):
        feats, labels = np.zeros((3, 2)), np.array([1, -1, 1])
        for scores in ([0.5, math.nan, -1.0], [math.nan] * 3):
            assert math.isnan(risk_true_mc(_FixedScores(scores), (feats, labels), ZERO_ONE))


class TestExactLinearError:
    """Monte-Carlo holdout error of linear models against the closed form."""

    N = 100_000

    def _check(self, model, pi, seed):
        got = risk_true_mc(model, gen_gaussian_labeled(self.N, pi, seed), ZERO_ONE)
        want = risk_true_gaussian(model, pi, ZERO_ONE)
        se = math.sqrt(want * (1.0 - want) / self.N)
        assert abs(got - want) <= 5.0 * se, (got, want, se)

    def test_trained_pu_models(self):
        for seed in range(10):
            pi = (0.3, 0.5, 0.7)[seed % 3]
            triple = gen_gaussian_artificial(45, 5, 100, pi, seed)
            model = train("PU", triple, config=TrainConfig(seed=seed))
            assert np.linalg.norm(model.weights) > 0.0
            self._check(model, pi, 1000 + seed)

    @pytest.mark.parametrize("bias, want", [(-1.0, 0.3), (2.0, 0.7), (0.0, 0.5)])
    def test_constant_scores(self, bias, want):
        model = DecisionModel(weights=[0.0, 0.0], bias=bias)
        assert risk_true_gaussian(model, 0.3, ZERO_ONE) == want
        self._check(model, 0.3, 2000)


def _verify_model(seed):
    """The linear model the verify unbiasedness suite draws first from its seed."""
    rng = np.random.default_rng(seed)
    return DecisionModel(weights=rng.normal(size=2), bias=float(rng.normal(scale=0.2)))


class TestExactRampRisk:
    """The closed-form scaled-ramp risk against a 1e6-point Monte-Carlo mean."""

    N = 1_000_000
    MODELS = [
        _verify_model(0),
        DecisionModel(weights=[2.0, -0.5], bias=-0.7),
        DecisionModel(weights=[0.3, 0.1], bias=0.05),  # most margins inside the ramp
        DecisionModel(weights=[-4.0, -3.0], bias=1.5),  # most margins saturated
        DecisionModel(weights=[0.0, 0.0], bias=0.3),  # w = 0: a point mass
    ]

    @pytest.mark.parametrize("pi", [0.3, 0.5, 0.7])
    def test_agrees_with_monte_carlo_within_5_se(self, pi):
        feats, labels = gen_gaussian_labeled(self.N, pi, int(10 * pi))
        for model in self.MODELS:
            scores = model.decision_values(feats)
            point_losses = np.where(labels == 1, SCALED_RAMP.value(scores, +1),
                                    SCALED_RAMP.value(scores, -1))
            se = float(np.std(point_losses, ddof=1)) / math.sqrt(self.N)
            got = risk_true_mc(model, (feats, labels), SCALED_RAMP)
            want = risk_true_gaussian(model, pi, SCALED_RAMP)
            assert abs(got - want) <= 5.0 * se, (model, pi, got, want, se)

    def test_verify_seed_0_model(self):
        """The risk verify's seed-0 unbiasedness suite compares its estimators with."""
        assert risk_true_gaussian(_verify_model(0), 0.5, SCALED_RAMP) == pytest.approx(
            0.502254, abs=5e-7)

    @pytest.mark.parametrize("loss", [SCALED_RAMP, ZERO_ONE], ids=lambda l: l.name)
    @pytest.mark.parametrize("bias", [-1.5, -0.25, 0.0, 0.6, 3.0])
    def test_zero_weights_are_a_point_mass(self, loss, bias):
        """Every row scores the bias, so the risk mixes the two losses at that score."""
        model = DecisionModel(weights=[0.0, 0.0], bias=bias)
        want = 0.3 * loss.value(bias, +1) + 0.7 * loss.value(bias, -1)
        assert risk_true_gaussian(model, 0.3, loss) == want

    def test_other_models_and_losses_rejected(self):
        linear = DecisionModel(weights=[1.0, 0.0], bias=0.0)
        with pytest.raises(ValueError, match="'hinge'"):
            risk_true_gaussian(linear, 0.5, HINGE)
        with pytest.raises(ValueError, match="linear model"):
            risk_true_gaussian(_kernel_model(np.random.default_rng(0), 4), 0.5, SCALED_RAMP)
        with pytest.raises(ValueError, match="linear model"):
            risk_true_gaussian(DecisionModel(weights=[1.0, 0.0, 0.0], bias=0.0), 0.5, ZERO_ONE)
        with pytest.raises(ValueError, match="class prior"):
            risk_true_gaussian(linear, 1.0, ZERO_ONE)


class TestUnbiasedness:
    """Resampled estimator means converge to the exact synthetic risk."""

    def test_estimators_agree_with_truth(self):
        rng = np.random.default_rng(7)
        model = DecisionModel(weights=rng.normal(size=2), bias=float(rng.normal(scale=0.2)))
        pi, n, resamples = 0.5, 50, 3000
        truth = risk_true_gaussian(model, pi, SCALED_RAMP)

        rows = resamples * n
        triple = gen_gaussian_artificial(rows, rows, rows, pi, rng)
        x_pos, x_neg, x_unl = (x.reshape(resamples, n, 2)
                               for x in (triple.x_pos, triple.x_neg, triple.x_unl))
        values = {"PN": risk_pn(model, x_pos, x_neg, pi, SCALED_RAMP),
                  "PU": risk_pu(model, x_pos, x_unl, pi, SCALED_RAMP),
                  "NU": risk_nu(model, x_unl, x_neg, pi, SCALED_RAMP)}
        for mode, arr in values.items():
            se = float(np.std(arr, ddof=1)) / math.sqrt(arr.size)
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
        ((2,), (10, 2)),           # a single row is not a sample set
        ((10, 2), (2, 4, 10, 2)),  # nor is a set with two leading axes
    ])
    def test_mismatched_resample_axes_rejected(self, x_plus_shape, x_minus_shape):
        model = DecisionModel(weights=[1.0, 0.0], bias=0.0)
        message = re.escape(f"{x_plus_shape} and {x_minus_shape}")
        for estimator in ESTIMATORS.values():
            with pytest.raises(ValueError, match=message):
                estimator(model, np.ones(x_plus_shape), np.ones(x_minus_shape), 0.5,
                          SCALED_RAMP)

    @pytest.mark.parametrize("shape", [(10, 2), (3, 10, 2)])
    @pytest.mark.parametrize("mode", list(MODE_TABLE))
    def test_non_finite_set_rejected(self, mode, shape):
        """A NaN or inf row in either set fails as the rows are scored, in both forms."""
        model = DecisionModel(weights=[1.0, 0.0], bias=0.0)
        for side in (0, 1):
            sets = [np.ones(shape), np.ones(shape)]
            sets[side][(0,) * len(shape)] = math.nan if side else -math.inf
            with pytest.raises(ValueError, match="^x must be finite"):
                ESTIMATORS[mode](model, *sets, 0.5, SCALED_RAMP)
