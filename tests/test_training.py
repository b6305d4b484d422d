"""CCCP trainer: its objective, descent, stationarity, restarts, CV, and contract errors."""

import numpy as np
import pytest

from pnu.datasets import SampleTriple, gen_gaussian_artificial, gen_gaussian_labeled
from pnu.losses import SCALED_RAMP, ZERO_ONE
from pnu.models import DecisionModel
from pnu.risk import risk_nu, risk_pn, risk_pu, risk_true_mc
from pnu import training
from pnu.training import (
    CccpMonotonicityError,
    CvConfig,
    ModelTemplate,
    TrainConfig,
    build_objective,
    cross_validate,
    median_heuristic_width,
    train,
)

TOY_POS = np.array([[1.0, 0.5], [1.5, -0.2], [0.8, 0.3]])
TOY_NEG = np.array([[-1.2, -0.4], [-0.7, -0.9], [-1.0, 0.1]])


def _toy_triple():
    return SampleTriple(x_pos=TOY_POS, x_neg=TOY_NEG, x_unl=np.empty((0, 2)), pi=0.5)


def _theta(model):
    """A fitted model's parameters as the solver's one vector (w, b)."""
    return np.append(model.weights, model.bias)


def _grid_oracle(x_pos, x_neg, lam=1e-3):
    """Brute-force minimum of the PN objective over a coarse (w, b) grid.

    Independent of the CCCP path: enumerates w in [-4,4]^2 and b in [-2,2]
    at step 0.1 and evaluates the weighted ramp sum directly.
    """
    w1 = np.arange(-4.0, 4.0001, 0.1)
    w2 = np.arange(-4.0, 4.0001, 0.1)
    bs = np.arange(-2.0, 2.0001, 0.1)
    W1, W2, B = (a.ravel() for a in np.meshgrid(w1, w2, bs, indexing="ij"))
    X = np.vstack([x_pos, x_neg])
    y = np.concatenate([np.ones(len(x_pos)), -np.ones(len(x_neg))])
    c = np.full(len(X), 0.5 / len(x_pos))
    margins = X[:, 0][:, None] * W1[None, :] + X[:, 1][:, None] * W2[None, :] + B[None, :]
    ramp = np.clip((1.0 - margins * y[:, None]) * 0.5, 0.0, 1.0)
    values = c @ ramp + 0.5 * lam * (W1 ** 2 + W2 ** 2)
    return float(values.min())


def _fit_by_restart(monkeypatch, mode, triple, template, config):
    """Train with ``_solve`` wrapped: the model, and per restart its objectives and solves.

    A restart begins at each solve whose start is not the point the previous
    solve returned.  Its objectives are the value at that start, then after
    each solve; its solves are each call's (rows, s, result).
    """
    built, objectives, solves = [], [], []
    real_build, real_solve = training.build_objective, training._solve

    def solve(theta0, A, c, s, lam, minimizers):
        result = real_solve(theta0, A, c, s, lam, minimizers)
        if not solves or theta0 is not solves[-1][-1][2]:
            objectives.append([built[-1].value(theta0)])
            solves.append([])
        objectives[-1].append(built[-1].value(result))
        solves[-1].append((A, s, result))
        return result

    monkeypatch.setattr(training, "build_objective",
                        lambda *args: built.append(real_build(*args)) or built[-1])
    monkeypatch.setattr(training, "_solve", solve)
    model = train(mode, triple, template, config)
    return model, objectives, solves


def _stats_since(before: dict) -> dict:
    """``training.run_stats()`` less an earlier snapshot of it."""
    return {key: value - before[key] for key, value in training.run_stats().items()}


class TestObjective:
    @pytest.mark.parametrize("kind", ["linear", "kernel"])
    @pytest.mark.parametrize("mode", ["PN", "PU", "NU"])
    def test_objective_is_the_unbiased_ramp_risk(self, mode, kind):
        """Objective minus (lam/2)||w||^2 is the mode's estimator under the scaled ramp."""
        triple = gen_gaussian_artificial(20, 15, 30, 0.4, 21)
        config = TrainConfig(lam=1e-2, seed=22)
        model = train(mode, triple, ModelTemplate(kind=kind), config)
        obj = build_objective(mode, triple, model.feature_map, config.lam)
        w = model.weights
        penalty = 0.5 * config.lam * float(w @ w)
        estimator = {"PN": risk_pn, "PU": risk_pu, "NU": risk_nu}[mode]
        first, second = training.MODE_SETS[mode]
        want = estimator(model, getattr(triple, first), getattr(triple, second), triple.pi,
                         SCALED_RAMP)
        assert obj.value(_theta(model)) - penalty == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("kind", ["linear", "kernel"])
    @pytest.mark.parametrize("mode", ["PN", "PU", "NU"])
    def test_rows_are_built_once_in_margin_coordinates(self, mode, kind, monkeypatch):
        """A fit builds one row matrix, passes it to every solve, and its rows give the margins.

        Row i is y_i*(z_i, 1), so rows @ theta is label times the fitted
        model's decision value on the mode's training rows.
        """
        built, calls = [], []
        real_build, real_solve = training.build_objective, training._solve
        monkeypatch.setattr(training, "build_objective",
                            lambda *args: built.append(real_build(*args)) or built[-1])
        monkeypatch.setattr(training, "_solve",
                            lambda *args: calls.append(args) or real_solve(*args))
        triple = gen_gaussian_artificial(20, 15, 30, 0.4, 26)
        template = ModelTemplate(kind=kind, width=1.0 if kind == "kernel" else None)
        model = train(mode, triple, template, TrainConfig(seed=27))
        assert len(built) == 1 and len(calls) > 1
        assert all(args[1] is built[0].rows for args in calls)
        first, second = training.MODE_SETS[mode]
        want = np.concatenate([model.decision_values(getattr(triple, first)),
                               -model.decision_values(getattr(triple, second))])
        np.testing.assert_allclose(built[0].rows @ _theta(model), want, rtol=0, atol=1e-12)


class TestOuterStep:
    def test_first_step_from_zero_strictly_decreases(self, monkeypatch):
        """Checked against the brute-force grid oracle on the toy set."""
        triple = _toy_triple()
        obj = build_objective("PN", triple, None, 1e-3)
        oracle_min = _grid_oracle(TOY_POS, TOY_NEG)
        assert oracle_min == pytest.approx(6.85e-4, rel=1e-6)  # frozen from the oracle

        monkeypatch.setattr(training, "_MAX_OUTER", 1)
        stepped, (objectives,), _ = _fit_by_restart(monkeypatch, "PN", triple,
                                                    training.LINEAR_TEMPLATE,
                                                    TrainConfig(restarts=1))
        assert len(objectives) == 2  # zero init, then one outer step
        before = objectives[0]
        assert before == pytest.approx(0.5, abs=1e-12)
        after = obj.value(_theta(stepped))
        assert after == objectives[1]
        assert after < before
        assert after < 0.01  # separable: one convex solve nearly finishes the job
        assert after >= 0.0  # sanity: ramp sums and the quadratic are nonnegative here

    def test_trained_model_beats_grid_oracle(self):
        triple = _toy_triple()
        obj = build_objective("PN", triple, None, 1e-3)
        model = train("PN", triple, config=TrainConfig(seed=0))
        assert obj.value(_theta(model)) <= _grid_oracle(TOY_POS, TOY_NEG) + 1e-9

    def test_stationary_point_is_a_fixed_point(self, monkeypatch):
        """Every restart stops before the cap, where its tangent is the last solve's."""
        _, objectives, restarts = _fit_by_restart(monkeypatch, "PN", _toy_triple(),
                                                  training.LINEAR_TEMPLATE, TrainConfig(seed=0))
        assert len(restarts) == 2
        for values, solves in zip(objectives, restarts):
            steps = np.diff(values)
            assert 0 < len(steps) < training._MAX_OUTER
            assert np.all(steps <= training.MONOTONICITY_SLACK)
            A, s, theta = solves[-1]
            np.testing.assert_array_equal(np.where(A @ theta < -1.0, 0.5, 0.0), s)

    @pytest.mark.parametrize("kind", ["linear", "kernel"])
    @pytest.mark.parametrize("mode", ["PN", "PU", "NU"])
    def test_no_subproblem_is_solved_twice_in_a_row(self, mode, kind, monkeypatch):
        """A tangent equal to the last solve's stops the restart without a solve."""
        triple = gen_gaussian_artificial(45, 5, 20, 0.5, 28)
        template = ModelTemplate(kind=kind, width=1.0 if kind == "kernel" else None)
        _, _, restarts = _fit_by_restart(monkeypatch, mode, triple, template,
                                         TrainConfig(seed=29))
        assert len(restarts) == 2
        for solves in restarts:
            for (_, s0, _), (_, s1, _) in zip(solves, solves[1:]):
                assert not np.array_equal(s0, s1)

    @pytest.mark.parametrize("kind", ["linear", "kernel"])
    def test_subproblems_majorize_the_objective(self, kind, monkeypatch):
        """Each subproblem train solves, plus a constant, majorizes the objective.

        The ramp in the margin m is max(0, (1 - m)/2) - max(0, (-1 - m)/2); the
        subproblem keeps the convex hinge and replaces the concave part by s*m,
        its tangent at the start theta0 less a constant.  With that constant
        fixed at theta0, the subproblem lies above the objective at random
        points and touches it at theta0.
        """
        calls = []
        real = training._solve
        monkeypatch.setattr(training, "_solve", lambda *args: calls.append(args) or real(*args))
        triple = gen_gaussian_artificial(20, 15, 30, 0.4, 23)
        template = ModelTemplate(kind=kind, width=1.0 if kind == "kernel" else None)
        model = train("PU", triple, template, TrainConfig(seed=24))
        obj = build_objective("PU", triple, model.feature_map, 1e-3)
        rng = np.random.default_rng(25)
        linearized = 0
        for theta0, A, c, s, lam, _ in calls:
            m0 = A @ theta0
            concave0 = -np.maximum(0.0, (-1.0 - m0) * 0.5)
            const = obj.constant + float(c @ (concave0 - s * m0))
            value0 = obj.value(theta0)
            assert training._convex_value(theta0, A, c, s, lam) + const == \
                pytest.approx(value0, abs=1e-12)
            for scale in (0.1, 1.0, 10.0):
                theta = theta0 + rng.normal(0.0, scale, theta0.size)
                upper = training._convex_value(theta, A, c, s, lam) + const
                assert obj.value(theta) <= upper + 1e-12
            linearized += int(np.count_nonzero(s))
        assert len(calls) > 2 and linearized > 0  # some steps linearize rows below margin -1

    def test_pure_hinge_when_concave_inactive(self):
        """Margins inside the hinge region make the split a plain hinge problem."""
        triple = _toy_triple()
        obj = build_objective("PN", triple, None, 1e-3)
        theta = np.zeros(3)  # all margins 0, none below -1
        s = np.where(obj.rows @ theta < -1.0, 0.5, 0.0)
        assert np.all(s == 0.0)


class TestTrain:
    def test_monotone_objectives_and_counters(self, monkeypatch):
        before = training.run_stats()
        triple = gen_gaussian_artificial(40, 10, 60, 0.5, 0)
        solves = 0
        for mode in ("PN", "PU", "NU"):
            _, objectives, _ = _fit_by_restart(monkeypatch, mode, triple,
                                               training.LINEAR_TEMPLATE, TrainConfig(seed=1))
            for values in objectives:
                steps = np.diff(values)
                assert np.all(steps <= training.MONOTONICITY_SLACK)
                solves += len(steps)
        stats = _stats_since(before)
        assert stats["runs"] == 3
        assert stats["monotonicity_violations"] == 0
        assert stats["outer_steps"] == solves > 0

    def test_restart_dominance(self, monkeypatch):
        triple = gen_gaussian_artificial(30, 30, 30, 0.5, 2)
        obj = build_objective("PU", triple, None, 1e-3)
        model, objectives, _ = _fit_by_restart(monkeypatch, "PU", triple,
                                               training.LINEAR_TEMPLATE,
                                               TrainConfig(seed=3, restarts=4))
        finals = [values[-1] for values in objectives]
        assert len(finals) == 4
        returned = obj.value(_theta(model))
        assert returned == pytest.approx(min(finals), abs=1e-12)

    def test_missing_sample_set_rejected(self):
        triple = gen_gaussian_artificial(0, 5, 5, 0.5, 4)
        with pytest.raises(ValueError, match="x_pos"):
            train("PU", triple)
        with pytest.raises(ValueError, match="unknown mode"):
            train("XX", gen_gaussian_artificial(2, 2, 2, 0.5, 0))

    def test_kernel_template_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            train("XX", gen_gaussian_artificial(2, 2, 2, 0.5, 0), ModelTemplate(kind="kernel"))

    def test_non_finite_data_flagged(self):
        """A NaN row fails at the triple; finite rows that overflow fail at the first objective."""
        with pytest.raises(ValueError, match="x_pos must be finite"):
            SampleTriple(x_pos=np.array([[np.nan, 0.0]]), x_neg=-TOY_NEG,
                         x_unl=np.empty((0, 2)), pi=0.5)
        huge = np.full((3, 1000), 1.7e308)
        triple = SampleTriple(x_pos=huge, x_neg=-huge, x_unl=np.empty((0, 1000)), pi=0.5)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite objective"):
            train("PN", triple)

    @pytest.mark.parametrize("mode", ["PN", "PU", "NU"])
    @pytest.mark.parametrize("kind", ["linear", "kernel"])
    def test_rows_too_large_for_float64_fail_without_a_warning(self, kind, mode):
        """Finite rows of 1e300 overflow the kernel width, map or solve: one ValueError."""
        t = gen_gaussian_artificial(5, 5, 5, 0.5, 0)
        huge = SampleTriple(x_pos=1e300 * t.x_pos, x_neg=1e300 * t.x_neg,
                            x_unl=1e300 * t.x_unl, pi=0.5)
        first, second = training.MODE_SETS[mode]
        with pytest.raises(ValueError, match=f"non-finite objective: training on the {first} "
                                             f"and {second} rows overflowed float64"):
            train(mode, huge, ModelTemplate(kind=kind))

    def test_permutation_invariance(self):
        """Row order inside the sets does not move the holdout error."""
        rng = np.random.default_rng(5)
        triple = gen_gaussian_artificial(25, 25, 40, 0.5, 6)
        shuffled = SampleTriple(
            x_pos=triple.x_pos[rng.permutation(25)],
            x_neg=triple.x_neg[rng.permutation(25)],
            x_unl=triple.x_unl[rng.permutation(40)],
            pi=0.5,
        )
        holdout = gen_gaussian_labeled(20_000, 0.5, 7)
        config = TrainConfig(seed=8)
        err_a = risk_true_mc(train("PU", triple, config=config), holdout, ZERO_ONE)
        err_b = risk_true_mc(train("PU", shuffled, config=config), holdout, ZERO_ONE)
        assert err_a == err_b

    def test_regularization_path(self):
        """Growing lambda shrinks the weights toward zero.

        The zero-one holdout error is scale-blind, so the vanishing-norm
        model can still classify by direction; the degenerate error limits
        apply to genuinely constant scores, checked separately below.
        """
        triple = gen_gaussian_artificial(50, 50, 1, 0.5, 9)
        norms = []
        for lam in (1e-3, 1.0, 1e3, 1e6):
            model = train("PN", triple, config=TrainConfig(lam=lam, seed=10))
            norms.append(float(np.linalg.norm(model.weights)))
        assert all(a > b for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 1e-3

        feats = np.zeros((10, 2))
        labels = np.array([1] * 5 + [-1] * 5)
        zero_scores = DecisionModel(weights=np.zeros(2), bias=0.0)
        assert risk_true_mc(zero_scores, (feats, labels), ZERO_ONE) == 0.5
        constant_sign = DecisionModel(weights=np.zeros(2), bias=2.0)
        assert risk_true_mc(constant_sign, (feats, labels), ZERO_ONE) == 0.5  # min(pi, 1-pi)

    def test_monotonicity_guard(self, monkeypatch):
        """An inner solve that returns a worse point is a hard error, and counted."""
        monkeypatch.setattr(training, "_solve", lambda theta0, *args: theta0 + 1e4)
        before = training.run_stats()
        with pytest.raises(CccpMonotonicityError, match="objective increased"):
            train("PN", _toy_triple(), ModelTemplate(kind="kernel", width=1.0),
                  TrainConfig(seed=0))
        assert _stats_since(before) == {"runs": 1, "outer_steps": 1, "monotonicity_violations": 1}

    def test_models_do_not_alias_solver_buffers(self):
        """Later fits, linear and kernel, leave an earlier model's parameters alone."""
        config = TrainConfig(seed=11)
        templates = (ModelTemplate(), ModelTemplate(kind="kernel", width=1.0))
        first_data = gen_gaussian_artificial(15, 15, 20, 0.5, 21)
        other_data = gen_gaussian_artificial(12, 18, 25, 0.4, 22)
        firsts = [train("PU", first_data, template, config) for template in templates]
        kept = [(model.weights.copy(), model.bias) for model in firsts]
        laters = [train(mode, other_data, template, config)
                  for mode in ("PU", "NU") for template in templates]
        for model, (weights, bias) in zip(firsts, kept):
            assert model.weights.tobytes() == weights.tobytes()
            assert model.bias == bias
            assert not any(np.shares_memory(model.weights, later.weights) for later in laters)


def _subproblem(triple, mode, start, lam=1e-3, seed=0, feature_map=None):
    """A fit's CCCP subproblem, linearized at a zero or a random start.

    The fit is linear, or a kernel fit when ``feature_map`` is given.
    Returns the solver arguments (theta0, A, c, s, lam).  A random start
    of scale 1.5 puts some rows below margin -1, so their concave parts are
    linearized with a nonzero slope.
    """
    obj = build_objective(mode, triple, feature_map, lam)
    dim = obj.rows.shape[1]
    theta0 = np.zeros(dim) if start == "zero" else np.random.default_rng(seed).normal(0.0, 1.5, dim)
    s = np.where(obj.rows @ theta0 < -1.0, 0.5, 0.0)
    return theta0, obj.rows, obj.coeffs, s, lam


def _dual_value(beta, A, c, s, lam):
    """The subproblem's dual objective at row slopes beta, clipped to their boxes.

    Row i's term is max over beta_i in [lo_i, hi_i] of beta_i*m_i + hi_i - beta_i
    (``_row_slopes``), so minimizing over theta gives D(beta) = sum_i (hi_i -
    beta_i) - ||sum_i beta_i*y_i*z_i||^2/(2*lam) wherever sum_i beta_i*y_i = 0.
    Row i of A is y_i*(z_i, 1), so those sums are the columns of A.T @ beta.
    Every theta scores at least D(beta): weak duality, whatever solver found it.
    """
    lo, hi = training._row_slopes(c, s)
    beta = np.clip(beta, lo, hi)
    v = A[:, :-1].T.dot(beta)
    return float(np.sum(hi - beta)) - float(v.dot(v)) / (2.0 * lam)


def _certify(sub):
    """Solve a subproblem by the active set, capped at training._MAX_PIVOTS pivots.

    Checks its certificate and its duality gap, and returns the certified
    (theta, beta).
    """
    solved = training._solve_active_set(*sub)
    assert solved is not None, "the active set did not certify"
    theta, beta = solved
    _, A, c, s, lam = sub
    assert training._kkt_residual(theta, beta, A, c, s, lam) <= training._KKT_TOL
    primal = training._convex_value(theta, A, c, s, lam)
    assert abs(primal - _dual_value(beta, A, c, s, lam)) <= 1e-9
    return solved


def _never_uncertified(monkeypatch):
    """Make a subproblem that the active set does not certify fail the test."""
    real = training._solve_active_set

    def certified(*args):
        try:
            solved = real(*args)
        except np.linalg.LinAlgError:
            solved = None
        assert solved is not None, "a subproblem went uncertified"
        return solved

    monkeypatch.setattr(training, "_solve_active_set", certified)


def _kernel_map(mode, triple, width=None):
    return training._build_feature_map(ModelTemplate(kind="kernel", width=width), mode, triple)


def _certify_corpus(mode, kind):
    """Certify the acceptance design's subproblems: n_unl 5 to 200, three seeds, two starts."""
    linearized = 0
    for n_unl in (5, 10, 25, 70, 200):
        for seed in range(3):
            triple = gen_gaussian_artificial(45, 5, n_unl, 0.5, 100 * n_unl + seed)
            fmap = _kernel_map(mode, triple) if kind == "kernel" else None
            for start in ("zero", "random"):
                sub = _subproblem(triple, mode, start, seed=seed, feature_map=fmap)
                theta, beta = _certify(sub)
                # The certificate is not vacuous: a nearby point fails it.
                assert training._kkt_residual(theta + 1e-3, beta, *sub[1:]) > training._KKT_TOL
                linearized += int(np.count_nonzero(sub[3]))
    assert linearized > 0  # some random starts put rows below margin -1


class TestLinearActiveSet:
    """The exact inner solve of linear fits and its KKT certificate."""

    @pytest.mark.parametrize("mode", ["PN", "PU", "NU"])
    def test_certifies_a_corpus_of_subproblems(self, mode):
        _certify_corpus(mode, "linear")

    def test_degenerate_vertex_certifies(self):
        """At pi = 0.05 the PU optimum w = 0, b = -1 puts all 100 unlabeled rows on the kink."""
        triple = gen_gaussian_artificial(45, 5, 100, 0.05, 2)
        sub = _subproblem(triple, "PU", "zero")
        theta, _ = _certify(sub)
        assert np.abs(theta[:-1]).max() < 1e-6 and theta[-1] == pytest.approx(-1.0, abs=1e-6)
        A = sub[1]
        on_kink = np.abs(A @ theta - 1.0) <= training._KINK_BAND
        assert int(np.sum(on_kink & (A[:, -1] < 0))) == 100  # the label is the bias column

    @pytest.mark.parametrize("mode", ["PN", "PU", "NU"])
    def test_duplicate_rows_certify(self, mode, monkeypatch):
        """Repeated rows, which a CSV pool can hold, certify in every subproblem of a fit."""
        base = gen_gaussian_artificial(20, 8, 30, 0.5, 41)
        triple = SampleTriple(
            x_pos=np.vstack([base.x_pos, base.x_pos[:5]]),
            x_neg=np.vstack([base.x_neg, base.x_neg[:3]]),
            x_unl=np.vstack([base.x_unl, base.x_unl[:10], base.x_pos[:4], base.x_neg[:2]]),
            pi=0.5,
        )
        for start in ("zero", "random"):
            _certify(_subproblem(triple, mode, start, seed=42))
        _never_uncertified(monkeypatch)
        train(mode, triple, config=TrainConfig(seed=43))

    def test_flat_ray_past_the_last_kink_certifies(self):
        """A bias ray whose slope past its last kink is -2e-14 stops on that kink.

        With no working rows and a nonzero bias slope, the step is the bias
        ray, along which the quadratic has no curvature.  Rows 0 and 1 cross
        their kinks on it.  Row 2's margin moves 1e-13 per unit of bias,
        below the line search's threshold for a moving row, so past the last
        kink the slope stays -0.4*1e-13/2: flat up to rounding.  The search
        must stop on that kink, not give up as on an unbounded ray.
        """
        A = np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 1e-13]])
        theta, _ = _certify((np.zeros(2), A, np.array([0.3, 0.5, 0.4]), np.zeros(3), 1e-3))
        assert theta[0] == 0.0 and theta[1] == pytest.approx(1.0, abs=1e-12)

    def test_uncertified_solve_keeps_its_start(self, monkeypatch):
        """A solve cut off by a cap of one pivot returns its start bit for bit."""
        triple = gen_gaussian_artificial(45, 5, 50, 0.5, 46)
        sub = _subproblem(triple, "PU", "random", seed=47)
        assert training._solve(*sub).tobytes() != sub[0].tobytes()
        monkeypatch.setattr(training, "_MAX_PIVOTS", 1)
        assert training._solve_active_set(*sub) is None
        assert training._solve(*sub).tobytes() == sub[0].tobytes()

    def test_singular_system_keeps_its_start(self, monkeypatch):
        """A solve that meets a singular system returns its start bit for bit."""
        triple = gen_gaussian_artificial(45, 5, 50, 0.5, 46)
        sub = _subproblem(triple, "PU", "random", seed=47)
        calls = []

        def singular(*args):
            calls.append(args)
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(training.np.linalg, "solve", singular)
        assert training._solve(*sub).tobytes() == sub[0].tobytes()
        assert calls  # the solve reached a KKT system


class TestKernelActiveSet:
    """The same solve on a kernel fit's subproblem, a linear fit over the mapped rows."""

    @pytest.mark.parametrize("mode", ["PN", "PU", "NU"])
    def test_certifies_a_corpus_of_subproblems(self, mode):
        _certify_corpus(mode, "kernel")

    @pytest.mark.parametrize("seed", [43, 401])
    def test_rounding_sized_newton_step_certifies_at_once(self, seed, monkeypatch):
        """A last Newton step of rounding size is taken whole and certifies on the first check.

        Scaling it by -slope/curv, a ratio of rounding errors, once stretched
        it by about 2e11 (seed 43) and 1.3e13 (seed 401), off the cell's minimum.
        """
        triple = gen_gaussian_artificial(6, 6, 25, 0.3, seed)
        sub = _subproblem(triple, "PN", "zero", lam=1e-2,
                          feature_map=_kernel_map("PN", triple, width=0.5))
        residuals = []
        real = training._kkt_residual
        monkeypatch.setattr(training, "_kkt_residual",
                            lambda *args: residuals.append(real(*args)) or residuals[-1])
        _certify(sub)
        assert len(residuals) == 2  # the solve's own check, then _certify's
        assert residuals[0] <= training._KKT_TOL

    def test_small_fits_never_go_uncertified(self, monkeypatch):
        """240 small kernel fits: every mode, two priors, lambdas and widths, seeds 0-9."""
        _never_uncertified(monkeypatch)
        for seed in range(10):
            for pi in (0.3, 0.7):
                triple = gen_gaussian_artificial(6, 6, 25, pi, seed)
                for lam in (1e-2, 1e-3):
                    for width in (0.5, 1.0):
                        for mode in ("PN", "PU", "NU"):
                            train(mode, triple, ModelTemplate(kind="kernel", width=width),
                                  TrainConfig(lam=lam))


def _active_set_tangents(monkeypatch, uncertified=0):
    """The bytes of the tangent of every active-set solve from now on.

    The first ``uncertified`` solves return None, as an uncertified one does.
    """
    real, tangents = training._solve_active_set, []

    def solve(theta0, A, c, s, lam):
        tangents.append(s.tobytes())
        return None if len(tangents) <= uncertified else real(theta0, A, c, s, lam)

    monkeypatch.setattr(training, "_solve_active_set", solve)
    return tangents


class TestRestartsReuseMinimizers:
    """A fit's restarts share the point certified for each tangent (``_solve``)."""

    @pytest.mark.parametrize("kind", ["linear", "kernel"])
    @pytest.mark.parametrize("mode", ["PN", "PU", "NU"])
    def test_each_tangent_is_solved_at_most_once(self, mode, kind, monkeypatch):
        tangents = _active_set_tangents(monkeypatch)
        triple = gen_gaussian_artificial(20, 8, 30, 0.5, 3)
        train(mode, triple, ModelTemplate(kind=kind), TrainConfig(seed=3, restarts=4))
        assert tangents and len(tangents) == len(set(tangents))

    def test_merging_restarts_solve_fewer_times_than_they_step(self, monkeypatch):
        """Both restarts reach the same tangents, so half the outer steps reuse a point."""
        tangents = _active_set_tangents(monkeypatch)
        before = training.run_stats()
        train("PN", gen_gaussian_artificial(20, 8, 30, 0.5, 0), config=TrainConfig(seed=0))
        assert 0 < len(tangents) < _stats_since(before)["outer_steps"]

    def test_uncertified_solve_is_solved_again_by_a_later_restart(self, monkeypatch):
        """The zero start's first tangent does not certify; the random start reaches it again."""
        tangents = _active_set_tangents(monkeypatch, uncertified=1)
        triple = gen_gaussian_artificial(20, 8, 30, 0.5, 0)
        _, _, restarts = _fit_by_restart(monkeypatch, "PN", triple, training.LINEAR_TEMPLATE,
                                         TrainConfig(seed=0))
        assert len(restarts) == 2 and len(restarts[0]) == 1  # kept its start: a fixed point
        assert len(tangents) > 1 and tangents[1] == tangents[0]

    def test_remembered_point_is_returned_only_when_lower(self, monkeypatch):
        """A remembered point not strictly lower than the start returns the start bit for bit."""
        triple = gen_gaussian_artificial(45, 5, 50, 0.5, 46)
        sub = _subproblem(triple, "NU", "random", seed=47)
        minimizers = {}
        theta = training._solve(*sub, minimizers)
        assert list(minimizers) == [sub[3].tobytes()] and minimizers[sub[3].tobytes()] is theta
        tangents = _active_set_tangents(monkeypatch)
        assert training._solve(*sub, minimizers) is theta  # lower than the random start
        # Remembered: the minimizer itself (equal to the start), or a higher point.
        for remembered in (minimizers, {sub[3].tobytes(): sub[0]}):
            start = theta.copy()
            solved = training._solve(start, *sub[1:], remembered)
            assert solved is start and solved.tobytes() == theta.tobytes()
        assert not tangents

    def test_point_on_the_concave_kink_is_not_remembered(self):
        """w = 0, b = -1 puts the positive rows on margin -1, so that point is not remembered."""
        triple = gen_gaussian_artificial(45, 5, 5, 0.3, 5000)
        sub = _subproblem(triple, "PU", "zero")
        minimizers = {}
        theta = training._solve(*sub, minimizers)
        assert np.abs(sub[1] @ theta + 1.0).min() <= training._KINK_BAND
        assert not minimizers

    @pytest.mark.parametrize("mode, n_unl, pi, seed, restarts", [
        ("PU", 5, 0.3, 0, 2),  # restart 0 stalls on the concave kink, restart 1 does not
        ("NU", 10, 0.7, 11, 4),  # restarts 1 and 2 leave the kink that 0 and 3 stall on
        ("PU", 10, 0.7, 41, 4),
        ("NU", 200, 0.7, 44, 4),
        ("PU", 200, 0.7, 149, 4),
    ])
    def test_reuse_keeps_the_final_objective(self, mode, n_unl, pi, seed, restarts, monkeypatch):
        """Training with and without reuse reaches the same objective, to 1e-12."""
        triple = gen_gaussian_artificial(45, 5, n_unl, pi, 5000 + seed)
        config = TrainConfig(seed=seed, restarts=restarts)
        obj = build_objective(mode, triple, None, config.lam)
        reused = obj.value(_theta(train(mode, triple, config=config)))
        real = training._solve
        monkeypatch.setattr(training, "_solve", lambda *args: real(*args[:5]))
        afresh = obj.value(_theta(train(mode, triple, config=config)))
        assert reused == pytest.approx(afresh, abs=1e-12)

    def test_remembered_points_are_read_only(self, monkeypatch):
        records, real = [], training._solve
        monkeypatch.setattr(training, "_solve",
                            lambda *args: records.append(args[-1]) or real(*args))
        train("NU", gen_gaussian_artificial(20, 8, 30, 0.5, 1), config=TrainConfig(seed=1))
        minimizers = records[0]
        assert minimizers and all(record is minimizers for record in records)
        for theta in minimizers.values():
            assert not theta.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                theta += 1.0

    @pytest.mark.parametrize("kind", ["linear", "kernel"])
    def test_nothing_carries_over_between_fits(self, kind, monkeypatch):
        """A second fit on the same data solves every tangent again and returns the same bits."""
        tangents = _active_set_tangents(monkeypatch)
        triple = gen_gaussian_artificial(20, 8, 30, 0.5, 2)
        models = []
        for _ in range(2):
            models.append(train("PU", triple, ModelTemplate(kind=kind), TrainConfig(seed=2)))
        half = len(tangents) // 2
        assert half and tangents[:half] == tangents[half:]
        assert models[0].weights.tobytes() == models[1].weights.tobytes()
        assert models[0].bias == models[1].bias


class TestReducedCellStep:
    """Cells of _REDUCED_MIN_DIM unknowns or more step through the reduced (k + 1)^2 KKT system."""

    @staticmethod
    def _record_solves(monkeypatch):
        """The order of every np.linalg.solve system the test makes, in call order."""
        orders, real = [], np.linalg.solve
        monkeypatch.setattr(training.np.linalg, "solve",
                            lambda a, b: orders.append(a.shape[0]) or real(a, b))
        return orders

    @pytest.mark.parametrize("extra", [0, 1, 16, 82, 182])
    def test_matches_the_dense_step(self, extra, monkeypatch):
        """Random kernel-like cells with k = 1 to 14 working rows take the dense (p, mult) to 1e-9."""
        dim = training._REDUCED_MIN_DIM + extra
        rng = np.random.default_rng(dim)
        cells = [(rng.normal(0.0, 0.1, dim),
                  np.column_stack([rng.random((k, dim - 1)), rng.choice([-1.0, 1.0], k)]))
                 for k in range(1, 15)]
        orders = self._record_solves(monkeypatch)
        reduced = [training._cell_step(grad, kinked, 1e-3) for grad, kinked in cells]
        # A reduced solve and one refinement solve per cell.
        assert orders == [k + 1 for k in range(1, 15) for _ in range(2)]
        monkeypatch.setattr(training, "_REDUCED_MIN_DIM", 10**9)
        for (grad, kinked), (p, mult) in zip(cells, reduced):
            p_dense, mult_dense = training._cell_step(grad, kinked, 1e-3)
            for got, want in ((p, p_dense), (mult, mult_dense)):
                np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())

    def test_smaller_cells_solve_densely(self, monkeypatch):
        dim = training._REDUCED_MIN_DIM - 1
        orders = self._record_solves(monkeypatch)
        training._cell_step(np.ones(dim), np.random.default_rng(0).random((6, dim)), 1e-3)
        assert orders == [dim + 6]

    def test_large_kernel_fits_certify_and_match_the_dense_objective(self, monkeypatch):
        """n_unl = 200, so PU fits have 246 unknowns; seeds 0-4 and every mode.

        Every solve certifies, and each fit's final objective is the dense
        step's to 1e-12.
        """
        _never_uncertified(monkeypatch)
        fits = [(mode, gen_gaussian_artificial(45, 5, 200, 0.5, seed))
                for seed in range(5) for mode in ("PN", "PU", "NU")]

        def objectives():
            values = []
            for mode, triple in fits:
                model = train(mode, triple, ModelTemplate(kind="kernel"), TrainConfig())
                obj = build_objective(mode, triple, model.feature_map, TrainConfig().lam)
                values.append(obj.value(_theta(model)))
            return np.array(values)

        reduced = objectives()
        monkeypatch.setattr(training, "_REDUCED_MIN_DIM", 10**9)
        np.testing.assert_allclose(reduced, objectives(), rtol=0.0, atol=1e-12)


class TestKernelTraining:
    def test_anchor_sets_mirror_the_mode(self):
        triple = gen_gaussian_artificial(8, 6, 10, 0.5, 12)
        config = TrainConfig(seed=13)
        template = ModelTemplate(kind="kernel", width=1.0)
        expected = {"PN": 14, "PU": 18, "NU": 16}
        for mode, n_anchors in expected.items():
            model = train(mode, triple, template, config)
            assert model.feature_map.anchors.shape == (n_anchors, 2)
            assert model.weights.size == n_anchors

    def test_kernel_model_learns_a_toy_problem(self):
        triple = gen_gaussian_artificial(60, 60, 1, 0.5, 14)
        model = train("PN", triple, ModelTemplate(kind="kernel", width=None),
                      TrainConfig(seed=15))
        err = risk_true_mc(model, gen_gaussian_labeled(20_000, 0.5, 16), ZERO_ONE)
        assert err < 0.25


class TestMedianHeuristic:
    def test_matches_direct_median(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(40, 3))
        direct = np.median(
            [np.linalg.norm(a - b) for i, a in enumerate(x) for b in x[i + 1:]]
        )
        assert median_heuristic_width(x) == pytest.approx(float(direct), rel=1e-9)

    def test_degenerate_rows_fall_back(self):
        assert median_heuristic_width(np.zeros((5, 2))) == 1.0
        assert median_heuristic_width(np.ones((1, 2))) == 1.0  # one row has no pair
        with pytest.raises(ValueError, match="x must be finite"):
            median_heuristic_width([[np.nan, 0.0], [1.0, 0.0]])

    def test_many_rows_use_an_evenly_spaced_subset(self):
        x = np.random.default_rng(27).normal(size=(1500, 3))
        rows = np.linspace(0, 1499, training._MEDIAN_ROWS).astype(int)
        assert np.unique(rows).size == training._MEDIAN_ROWS < 1500
        assert median_heuristic_width(x) == median_heuristic_width(x[rows])


class TestCrossValidation:
    def test_single_cell_grid(self):
        triple = gen_gaussian_artificial(15, 10, 20, 0.5, 18)
        cv = CvConfig(folds=5, width_grid=(1.0,), lambda_grid=(1e-3,))
        width, lam, table = cross_validate(
            "PU", triple, ModelTemplate(kind="kernel"), cv,
            TrainConfig(seed=19),
        )
        assert (width, lam) == (1.0, 1e-3)
        assert len(table) == 1

    def test_duplicates_deduplicated_and_argmin_consistent(self):
        triple = gen_gaussian_artificial(15, 10, 20, 0.5, 20)
        cv = CvConfig(folds=5, width_grid=(1.0, 1.0, 2.0), lambda_grid=(1e-3, 1e-3, 1e-1))
        config = TrainConfig(seed=21)
        width, lam, table = cross_validate("PU", triple, ModelTemplate(kind="kernel"), cv, config)
        assert len(table) == 4  # 2 widths x 2 lambdas after dedup
        best_risk = min(risk for _, _, risk in table)
        chosen = [row for row in table if row[0] == width and row[1] == lam]
        assert chosen[0][2] == best_risk

    def test_tie_breaks_toward_larger_width_then_lambda(self):
        table = [
            (0.5, 1e-4, 0.3), (0.5, 1e-2, 0.3),
            (2.0, 1e-4, 0.3), (2.0, 1e-2, 0.3),
        ]
        assert training._select_best(table) == (2.0, 1e-2, 0.3)
        table[0] = (0.5, 1e-4, 0.25)  # a strict winner beats any tie-break
        assert training._select_best(table) == (0.5, 1e-4, 0.25)
        linear = [(None, 1e-4, 0.4), (None, 1e-2, 0.4)]
        assert training._select_best(linear) == (None, 1e-2, 0.4)

    def test_fold_emptying_rejected(self):
        triple = gen_gaussian_artificial(4, 10, 10, 0.5, 24)
        cv = CvConfig(folds=5, width_grid=(1.0,), lambda_grid=(1e-3,))
        with pytest.raises(ValueError, match="x_pos"):
            cross_validate("PN", triple, ModelTemplate(kind="kernel"), cv, TrainConfig())
        no_widths = CvConfig(folds=2, lambda_grid=(1e-3,))
        with pytest.raises(ValueError, match="needs a non-empty width_grid"):
            cross_validate("PN", triple, ModelTemplate(kind="kernel"), no_widths, TrainConfig())

    def test_validation_calls_go_through_the_module_estimator(self, monkeypatch):
        """A wrapper on ``training.risk_pu`` sees each of the folds x widths x lambdas calls."""
        scores = []
        real = training.risk_pu

        def counting(*args):
            scores.append(real(*args))
            return scores[-1]

        monkeypatch.setattr(training, "risk_pu", counting)
        triple = gen_gaussian_artificial(10, 10, 15, 0.4, 31)
        cv = CvConfig(folds=3, width_grid=(0.7, 1.5), lambda_grid=(1e-3, 1e-1))
        _, _, table = cross_validate("PU", triple, ModelTemplate(kind="kernel"), cv,
                                     TrainConfig(seed=32))
        assert len(scores) == 3 * 2 * 2
        assert [row[2] for row in table] == [float(np.mean(scores[k:k + 3]))
                                            for k in range(0, 12, 3)]

    def test_linear_template_ignores_width(self):
        triple = gen_gaussian_artificial(15, 15, 1, 0.5, 25)
        cv = CvConfig(folds=3, width_grid=(), lambda_grid=(1e-4, 1e-2))
        width, lam, table = cross_validate("PN", triple, ModelTemplate(kind="linear"), cv,
                                           TrainConfig(seed=26))
        assert width is None
        assert len(table) == 2

    def test_golden_kernel_cv_tables(self):
        """Fixed-seed CV tables from the kernel fits' active set, compared with ==.

        They pin the folds, the per-fold training sub-triples and the
        validation estimator of the two modes that use the unlabeled set.
        """
        triple = gen_gaussian_artificial(10, 10, 15, 0.4, 31)
        cv = CvConfig(folds=3, width_grid=(0.7, 1.5), lambda_grid=(1e-3, 1e-1))
        config = TrainConfig(seed=32)
        want = {
            "PU": (1.5, 0.1, [
                (1.5, 0.1, 0.04444444444444442), (1.5, 0.001, 0.11111111111111109),
                (0.7, 0.1, 0.17777777777777778), (0.7, 0.001, 0.15555555555555553),
            ]),
            "NU": (1.5, 0.1, [
                (1.5, 0.1, 0.3), (1.5, 0.001, 0.7999999999999999),
                (0.7, 0.1, 0.6333333333333333), (0.7, 0.001, 0.8333333333333334),
            ]),
        }
        for mode, expected in want.items():
            got = cross_validate(mode, triple, ModelTemplate(kind="kernel"), cv, config)
            assert got == expected


class TestConfigs:
    def test_train_config_from_dict_accepts_lambda_key(self):
        cfg = TrainConfig.from_dict({"lambda": 0.5, "restarts": 3})
        assert cfg.lam == 0.5
        assert cfg.restarts == 3

    def test_train_config_json_roundtrip(self, tmp_path):
        path = tmp_path / "train.json"
        path.write_text('{"lambda": 0.01, "restarts": 7}', encoding="utf-8")
        cfg = TrainConfig.from_json(path)
        assert cfg.lam == 0.01
        assert cfg.restarts == 7

    @pytest.mark.parametrize("doc, fragment", [
        ({"bogus": 1}, "'bogus'"),
        ([0.1], "JSON object"),
        ({"lam": "x"}, "'lam'"),
        ({"restarts": 2.0}, "'restarts'"),
        ({"seed": True}, "'seed'"),
    ])
    def test_train_config_rejects_bad_documents(self, doc, fragment):
        with pytest.raises(ValueError, match=fragment):
            TrainConfig.from_dict(doc)

    @pytest.mark.parametrize("doc, fragment", [
        ({"lambda_grid": 0.1}, "'lambda_grid'"),
        ({"folds": 2.5, "lambda_grid": [0.1]}, "'folds'"),
        ({"lambda_grid": [0.1, "x"]}, "'lambda_grid'"),
        ({"lambda_grid": [0.1], "grid": [1.0]}, "'grid'"),
        ("folds", "JSON object"),
    ])
    def test_cv_config_rejects_bad_documents(self, doc, fragment):
        with pytest.raises(ValueError, match=fragment):
            CvConfig.from_dict(doc)

    def test_cv_config_from_dict_accepts_lists(self):
        cv = CvConfig.from_dict({"folds": 3, "width_grid": [1, 2.5], "lambda_grid": [0.1]})
        assert cv == CvConfig(folds=3, width_grid=(1.0, 2.5), lambda_grid=(0.1,))

    @pytest.mark.parametrize("build, fragment", [
        (lambda: CvConfig(folds=2.5, lambda_grid=(0.1,)), "'folds'"),
        (lambda: TrainConfig(restarts=1.5), "'restarts'"),
        (lambda: TrainConfig(lam="x"), "'lam'"),
        (lambda: CvConfig(folds=1, lambda_grid=(0.1,)), "'folds'"),
        (lambda: CvConfig(width_grid=(0.0,), lambda_grid=(0.1,)), "'width_grid'"),
        (lambda: CvConfig(lambda_grid=()), "'lambda_grid'"),
        (lambda: TrainConfig(restarts=0), "'restarts'"),
    ], ids=["cv-folds-float", "train-restarts-float", "train-lam-str", "cv-folds-one",
            "cv-width-zero", "cv-lambda-empty", "train-restarts-zero"])
    def test_constructors_check_types(self, build, fragment):
        """Built directly, not only through from_dict, a config rejects bad values by name."""
        with pytest.raises(ValueError, match=fragment):
            build()

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lam=-1.0)
        with pytest.raises(ValueError, match="'lam'"):
            TrainConfig(lam=0.0)
        with pytest.raises(ValueError, match="'seed'"):
            TrainConfig(seed=-1)
        with pytest.raises(ValueError):
            TrainConfig(restarts=0)
        with pytest.raises(ValueError):
            CvConfig(folds=1, lambda_grid=(1e-3,))
        with pytest.raises(ValueError):
            CvConfig(folds=5, lambda_grid=())
        with pytest.raises(ValueError):
            ModelTemplate(kind="spline")
