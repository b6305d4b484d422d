"""Bound values, the finite-sample and asymptotic comparators, monotonicity."""

import math

import numpy as np
import pytest

from pnu.bounds import (
    VERDICT_NU,
    VERDICT_PU,
    VERDICT_TIE,
    BoundParams,
    ComparatorInput,
    alpha_nu_pn,
    alpha_nu_pn_from_ratios,
    alpha_nu_pn_matched_prior,
    alpha_pu_pn,
    alpha_pu_pn_from_ratios,
    alpha_pu_pn_matched_prior,
    alpha_star,
    bound_terms,
    bound_values,
    f_delta,
    matched_prior_argmin,
    matched_prior_min,
    rademacher_mc_check,
)


def _random_input(rng, n_max=10_000):
    return ComparatorInput(
        pi=rng.uniform(0.02, 0.98),
        n_pos=int(rng.integers(1, n_max)),
        n_neg=int(rng.integers(1, n_max)),
        n_unl=int(rng.integers(1, n_max)),
    )


class TestFDelta:
    def test_hand_value(self):
        # 4 * 0.5 * 1 + sqrt(2 ln 80) = 2 + 2.96041... by hand
        params = BoundParams(delta=0.05, lipschitz=0.5, complexity_const=1.0)
        assert f_delta(params) == pytest.approx(4.960414374601596, abs=1e-12)

    def test_delta_near_one_limit(self):
        params = BoundParams(delta=1.0 - 1e-12, lipschitz=0.5, complexity_const=1.0)
        assert f_delta(params) == pytest.approx(2.0 + math.sqrt(2.0 * math.log(4.0)), abs=1e-5)

    def test_linear_in_complexity(self):
        p1 = BoundParams(delta=0.1, lipschitz=0.5, complexity_const=1.0)
        p2 = BoundParams(delta=0.1, lipschitz=0.5, complexity_const=2.0)
        assert f_delta(p2) - f_delta(p1) == pytest.approx(4.0 * 0.5 * 1.0, abs=1e-12)


class TestBoundValues:
    def test_symmetric_hundreds(self):
        inp = ComparatorInput(pi=0.5, n_pos=100, n_neg=100, n_unl=100)
        t_pn, t_pu, t_nu = bound_terms(inp)
        assert t_pn == pytest.approx(0.1, abs=1e-15)
        assert t_pu == pytest.approx(0.2, abs=1e-15)
        assert t_nu == pytest.approx(0.2, abs=1e-15)

    def test_unbounded_unlabeled_drops_term(self):
        inp = ComparatorInput(pi=0.5, n_pos=45, n_neg=5, n_unl=None)
        _, t_pu, _ = bound_terms(inp)
        assert t_pu == pytest.approx(2.0 * 0.5 / math.sqrt(45.0), abs=1e-15)

    def test_scales_linearly_in_f(self):
        rng = np.random.default_rng(0)
        inp = _random_input(rng)
        small = BoundParams(delta=0.5, lipschitz=0.5, complexity_const=1.0)
        big = BoundParams(delta=0.5, lipschitz=0.5, complexity_const=7.0)
        ratio = f_delta(big) / f_delta(small)
        for v_small, v_big in zip(bound_values(inp, small), bound_values(inp, big)):
            assert v_big == pytest.approx(ratio * v_small, rel=1e-12)


class TestFiniteSampleComparators:
    def test_reference_configuration(self):
        """The 45/5/100 balanced case, evaluated by hand from the ratios."""
        inp = ComparatorInput(pi=0.5, n_pos=45, n_neg=5, n_unl=100)
        assert alpha_pu_pn(inp) == pytest.approx(0.7805469288332914, abs=1e-12)
        assert alpha_nu_pn(inp) == pytest.approx(4.341640786499874, abs=1e-12)

    def test_symmetric_limit(self):
        """Equal labeled sizes and huge n_unl push the comparator to 1."""
        inp = ComparatorInput(pi=0.5, n_pos=500, n_neg=500, n_unl=10**12)
        assert alpha_pu_pn(inp) == pytest.approx(1.0, abs=1e-4)

    def test_equivalence_with_bound_ordering(self):
        """alpha < 1 iff the corresponding bound value is below the PN one."""
        rng = np.random.default_rng(1)
        params = BoundParams(delta=0.37, lipschitz=0.5, complexity_const=2.5)
        for _ in range(10_000):
            inp = _random_input(rng)
            v_pn, v_pu, v_nu = bound_values(inp, params)
            assert (alpha_pu_pn(inp) < 1.0) == (v_pu < v_pn)
            assert (alpha_nu_pn(inp) < 1.0) == (v_nu < v_pn)

    def test_needs_finite_unlabeled(self):
        inp = ComparatorInput(pi=0.5, n_pos=10, n_neg=10, n_unl=None)
        with pytest.raises(ValueError):
            alpha_pu_pn(inp)
        with pytest.raises(ValueError):
            alpha_nu_pn(inp)


class TestCounts:
    @pytest.mark.parametrize("field", ["n_pos", "n_neg", "n_unl"])
    @pytest.mark.parametrize("value", [42.98, 43.0, True, 0])
    def test_rejects_non_integral_and_non_positive(self, field, value):
        counts = dict(n_pos=45, n_neg=5, n_unl=100)
        counts[field] = value
        with pytest.raises(ValueError, match=field):
            ComparatorInput(pi=0.5, **counts)

    def test_numpy_integers_are_stored_as_given(self):
        inp = ComparatorInput(pi=0.3, n_pos=np.int64(45), n_neg=np.int32(5), n_unl=np.int64(100))
        ref = ComparatorInput(pi=0.3, n_pos=45, n_neg=5, n_unl=100)
        assert (inp.n_pos, inp.n_neg, inp.n_unl) == (45, 5, 100)
        assert (alpha_pu_pn(inp), alpha_nu_pn(inp)) == (alpha_pu_pn(ref), alpha_nu_pn(ref))
        assert bound_values(inp, BoundParams()) == bound_values(ref, BoundParams())

    def test_alpha_and_bounds_agree_around_a_non_integer_count(self):
        """At this n_unl, alpha on int(n_unl) and the bounds on the float
        disagree on whether NU beats PN; the float is rejected, and both
        integer neighbours agree.
        """
        base = dict(pi=0.6817145794281033, n_pos=102, n_neg=3930)
        with pytest.raises(ValueError, match="n_unl"):
            ComparatorInput(**base, n_unl=256.74474299572785)
        for n_unl in (256, 257):
            inp = ComparatorInput(**base, n_unl=n_unl)
            v_pn, v_pu, v_nu = bound_values(inp, BoundParams())
            assert (alpha_pu_pn(inp) < 1.0) == (v_pu < v_pn)
            assert (alpha_nu_pn(inp) < 1.0) == (v_nu < v_pn)


class TestArrayInputs:
    """Array fields: one case per element, checked once, equal to scalar calls bit for bit."""

    @staticmethod
    def _arrays(cases=1_000):
        rng = np.random.default_rng(12)
        pi = rng.uniform(0.02, 0.98, cases)
        n_pos, n_neg, n_unl = (rng.integers(1, 10_000, cases) for _ in range(3))
        # Ties n_pos/n_neg = pi^2/(1-pi)^2: pi = 1/2 with n_neg = n_pos, pi = 1/5
        # with n_neg = 16 n_pos.
        pi[:10], n_neg[:10] = 0.5, n_pos[:10]
        pi[10:20], n_pos[10:20] = 0.2, rng.integers(1, 600, 10)
        n_neg[10:20] = 16 * n_pos[10:20]
        return pi, n_pos, n_neg, n_unl

    @staticmethod
    def _scalars(pi, n_pos, n_neg, n_unl):
        """The same cases as scalar inputs, with Python floats and ints."""
        n_unl = [None] * len(pi) if n_unl is None else n_unl.tolist()
        return [ComparatorInput(*case)
                for case in zip(pi.tolist(), n_pos.tolist(), n_neg.tolist(), n_unl)]

    def test_comparators_match_scalar_calls(self):
        arrays = self._arrays()
        inp, scalars = ComparatorInput(*arrays), self._scalars(*arrays)
        assert alpha_pu_pn(inp).tolist() == [alpha_pu_pn(s) for s in scalars]
        assert alpha_nu_pn(inp).tolist() == [alpha_nu_pn(s) for s in scalars]
        star = alpha_star(inp)
        scalar_stars = [alpha_star(s) for s in scalars]
        assert star.alpha_star_pu.tolist() == [r.alpha_star_pu for r in scalar_stars]
        assert star.alpha_star_nu.tolist() == [r.alpha_star_nu for r in scalar_stars]
        assert star.verdict.tolist() == [r.verdict for r in scalar_stars]
        assert set(star.verdict.tolist()) == {VERDICT_PU, VERDICT_NU, VERDICT_TIE}

    @pytest.mark.parametrize("unbounded", [False, True])
    def test_bound_values_match_scalar_calls(self, unbounded):
        pi, n_pos, n_neg, n_unl = self._arrays()
        n_unl = None if unbounded else n_unl
        params = BoundParams(delta=0.37, lipschitz=0.5, complexity_const=2.5)
        values = bound_values(ComparatorInput(pi, n_pos, n_neg, n_unl), params)
        scalar_values = [bound_values(s, params) for s in self._scalars(pi, n_pos, n_neg, n_unl)]
        assert [v.tolist() for v in values] == [list(v) for v in zip(*scalar_values)]

    def test_scalar_inputs_give_plain_results(self):
        for inp in (ComparatorInput(pi=0.5, n_pos=45, n_neg=5, n_unl=100),
                    ComparatorInput(pi=0.3, n_pos=np.int64(45), n_neg=np.int32(5),
                                    n_unl=np.int64(100))):
            assert type(alpha_pu_pn(inp)) is float and type(alpha_nu_pn(inp)) is float
            assert all(type(v) is float for v in bound_values(inp, BoundParams()))
            star = alpha_star(inp)
            assert type(star.alpha_star_pu) is float and type(star.alpha_star_nu) is float
            assert type(star.verdict) is str

    @pytest.mark.parametrize("field", ["n_pos", "n_neg", "n_unl"])
    @pytest.mark.parametrize("bad", [
        np.array([True, True, True]), np.array([45.0, 5.0, 100.0]), np.array([45, 0, 100]),
        np.array([45, 5]), 45,
    ], ids=["bool", "float", "zero", "short", "scalar"])
    def test_rejects_bad_count_arrays(self, field, bad):
        counts = dict(n_pos=np.array([45, 5, 100]), n_neg=np.array([5, 45, 100]),
                      n_unl=np.array([100, 100, 100]))
        counts[field] = bad
        with pytest.raises(ValueError, match=field):
            ComparatorInput(pi=np.array([0.5, 0.3, 0.7]), **counts)

    @pytest.mark.parametrize("pi", [[0.5, 0.0], [0.5, 1.0], [0.5, math.nan], []],
                             ids=["zero", "one", "nan", "empty"])
    def test_rejects_bad_pi_arrays(self, pi):
        pi = np.array(pi)
        counts = np.ones(pi.shape, dtype=np.int64)
        with pytest.raises(ValueError, match="pi"):
            ComparatorInput(pi=pi, n_pos=counts, n_neg=counts, n_unl=counts)


class TestFiniteConstants:
    """Ratio constants, bound constants and class-size constants must be finite and positive.

    The confidence level delta must lie strictly inside (0, 1).
    """

    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, True, "a"])
    @pytest.mark.parametrize("name, call", [
        ("rho_pn", lambda v: alpha_pu_pn_from_ratios(0.5, v, 1.0)),
        ("rho_pn", lambda v: alpha_nu_pn_from_ratios(0.5, v, 1.0)),
        ("rho_pu", lambda v: alpha_pu_pn_from_ratios(0.5, 1.0, v)),
        ("rho_pu", lambda v: alpha_pu_pn_matched_prior(0.5, v)),
        ("rho_nu", lambda v: alpha_nu_pn_from_ratios(0.5, 1.0, v)),
        ("rho_nu", lambda v: alpha_nu_pn_matched_prior(0.5, v)),
        ("rho", matched_prior_argmin),
        ("rho", matched_prior_min),
        ("lipschitz", lambda v: BoundParams(lipschitz=v)),
        ("complexity_const", lambda v: BoundParams(complexity_const=v)),
        ("delta", lambda v: BoundParams(delta=v)),
        ("c_w", lambda v: rademacher_mc_check(np.eye(2), v, 1.0, 1_000, 0)),
        ("c_phi", lambda v: rademacher_mc_check(np.eye(2), 1.0, v, 1_000, 0)),
    ], ids=["pu_from_ratios.rho_pn", "nu_from_ratios.rho_pn",
            "pu_from_ratios.rho_pu", "pu_matched_prior.rho_pu", "nu_from_ratios.rho_nu",
            "nu_matched_prior.rho_nu", "argmin.rho", "min.rho", "lipschitz",
            "complexity_const", "delta", "rademacher.c_w", "rademacher.c_phi"])
    def test_rejected_with_its_name(self, name, call, value):
        want = r"strictly inside \(0, 1\)" if name == "delta" else "finite and positive"
        with pytest.raises(ValueError, match=rf"^{name} must be {want}"):
            call(value)


class TestRatioForms:
    def test_counts_realize_ratios(self):
        """Count form and ratio form agree to 1e-12 when consistent."""
        rng = np.random.default_rng(2)
        for _ in range(2000):
            inp = _random_input(rng, n_max=3000)
            rho_pn = inp.n_pos / inp.n_neg
            a_pu = alpha_pu_pn_from_ratios(inp.pi, rho_pn, inp.n_pos / inp.n_unl)
            a_nu = alpha_nu_pn_from_ratios(inp.pi, rho_pn, inp.n_neg / inp.n_unl)
            assert a_pu == pytest.approx(alpha_pu_pn(inp), rel=1e-12)
            assert a_nu == pytest.approx(alpha_nu_pn(inp), rel=1e-12)

    def test_reference_ratios(self):
        # counts (45, 5, 100) give ratios (9, 0.45, 0.05)
        a_pu = alpha_pu_pn_from_ratios(0.5, 9.0, 0.45)
        a_nu = alpha_nu_pn_from_ratios(0.5, 9.0, 0.05)
        inp = ComparatorInput(pi=0.5, n_pos=45, n_neg=5, n_unl=100)
        assert a_pu == pytest.approx(alpha_pu_pn(inp), rel=1e-12)
        assert a_nu == pytest.approx(alpha_nu_pn(inp), rel=1e-12)


class TestMatchedPrior:
    def test_lower_bound_and_argmin(self):
        """(pi + sqrt(rho)) / sqrt(pi(1-pi)) >= 2 sqrt(rho + sqrt(rho))."""
        rng = np.random.default_rng(3)
        for _ in range(2000):
            rho = float(rng.uniform(0.001, 2.0))
            pi = float(rng.uniform(0.01, 0.99))
            value = alpha_pu_pn_matched_prior(pi, rho)
            floor = matched_prior_min(rho)
            assert value >= floor - 1e-12
        # equality exactly at the argmin
        rho = 0.04
        pi_bar = matched_prior_argmin(rho)
        assert pi_bar == pytest.approx(1.0 / 7.0, abs=1e-12)
        assert matched_prior_min(rho) == pytest.approx(0.9797958971132713, abs=1e-12)
        assert alpha_pu_pn_matched_prior(pi_bar, rho) == pytest.approx(
            matched_prior_min(rho), rel=1e-12
        )
        # a minimum below one is possible only with plentiful unlabeled data
        assert matched_prior_min(0.04) < 1.0
        assert matched_prior_min(0.1) > 1.0

    def test_unimodality(self):
        """Decreasing before the argmin, increasing after it."""
        rng = np.random.default_rng(4)
        for _ in range(500):
            rho = float(rng.uniform(0.001, 1.0))
            pi_bar = matched_prior_argmin(rho)
            lo = sorted(rng.uniform(0.005, pi_bar, size=2))
            assert alpha_pu_pn_matched_prior(lo[0], rho) > alpha_pu_pn_matched_prior(lo[1], rho)
            hi = sorted(rng.uniform(pi_bar, 0.995, size=2))
            assert alpha_pu_pn_matched_prior(hi[0], rho) < alpha_pu_pn_matched_prior(hi[1], rho)

    def test_nu_mirror(self):
        """The NU comparator under the matched prior mirrors in pi <-> 1-pi."""
        rng = np.random.default_rng(5)
        for _ in range(500):
            rho = float(rng.uniform(0.001, 1.0))
            pi = float(rng.uniform(0.01, 0.99))
            assert alpha_nu_pn_matched_prior(pi, rho) == pytest.approx(
                alpha_pu_pn_matched_prior(1.0 - pi, rho), rel=1e-12
            )
            assert alpha_nu_pn_matched_prior(pi, rho) >= matched_prior_min(rho) - 1e-12


class _Perturb:
    """Single-coordinate perturbation helpers for monotonicity checks."""

    @staticmethod
    def bump_count(rng, n):
        return n + int(rng.integers(1, 50))

    @staticmethod
    def bump_pi(rng, pi):
        return pi + float(rng.uniform(0.001, 0.98 - pi)) if pi < 0.97 else pi


class TestTableMonotonicity:
    """Randomized direction checks for every monotonicity column."""

    CASES = 1000

    def test_free_counts_pu(self):
        rng = np.random.default_rng(6)
        for _ in range(self.CASES):
            inp = _random_input(rng)
            base = alpha_pu_pn(inp)
            up_pi = ComparatorInput(pi=_Perturb.bump_pi(rng, inp.pi), n_pos=inp.n_pos,
                                    n_neg=inp.n_neg, n_unl=inp.n_unl)
            if up_pi.pi > inp.pi:
                assert alpha_pu_pn(up_pi) > base
            up_nn = ComparatorInput(pi=inp.pi, n_pos=inp.n_pos,
                                    n_neg=_Perturb.bump_count(rng, inp.n_neg), n_unl=inp.n_unl)
            assert alpha_pu_pn(up_nn) > base
            up_np = ComparatorInput(pi=inp.pi, n_pos=_Perturb.bump_count(rng, inp.n_pos),
                                    n_neg=inp.n_neg, n_unl=inp.n_unl)
            assert alpha_pu_pn(up_np) < base
            up_nu = ComparatorInput(pi=inp.pi, n_pos=inp.n_pos, n_neg=inp.n_neg,
                                    n_unl=_Perturb.bump_count(rng, inp.n_unl))
            assert alpha_pu_pn(up_nu) < base

    def test_free_counts_nu(self):
        rng = np.random.default_rng(7)
        for _ in range(self.CASES):
            inp = _random_input(rng)
            base = alpha_nu_pn(inp)
            up_np = ComparatorInput(pi=inp.pi, n_pos=_Perturb.bump_count(rng, inp.n_pos),
                                    n_neg=inp.n_neg, n_unl=inp.n_unl)
            assert alpha_nu_pn(up_np) > base
            up_pi = ComparatorInput(pi=_Perturb.bump_pi(rng, inp.pi), n_pos=inp.n_pos,
                                    n_neg=inp.n_neg, n_unl=inp.n_unl)
            if up_pi.pi > inp.pi:
                assert alpha_nu_pn(up_pi) < base
            up_nn = ComparatorInput(pi=inp.pi, n_pos=inp.n_pos,
                                    n_neg=_Perturb.bump_count(rng, inp.n_neg), n_unl=inp.n_unl)
            assert alpha_nu_pn(up_nn) < base
            up_nu = ComparatorInput(pi=inp.pi, n_pos=inp.n_pos, n_neg=inp.n_neg,
                                    n_unl=_Perturb.bump_count(rng, inp.n_unl))
            assert alpha_nu_pn(up_nu) < base

    def test_proportional_sizes(self):
        rng = np.random.default_rng(8)
        for _ in range(self.CASES):
            pi = float(rng.uniform(0.02, 0.97))
            rho_pn = float(rng.uniform(0.01, 50.0))
            rho_pu = float(rng.uniform(0.01, 50.0))
            rho_nu = float(rng.uniform(0.01, 50.0))
            d_pi = float(rng.uniform(0.001, 0.98 - pi))
            scale = float(rng.uniform(1.05, 3.0))

            base_pu = alpha_pu_pn_from_ratios(pi, rho_pn, rho_pu)
            assert alpha_pu_pn_from_ratios(pi + d_pi, rho_pn, rho_pu) > base_pu
            assert alpha_pu_pn_from_ratios(pi, rho_pn, rho_pu * scale) > base_pu
            assert alpha_pu_pn_from_ratios(pi, rho_pn * scale, rho_pu) < base_pu

            base_nu = alpha_nu_pn_from_ratios(pi, rho_pn, rho_nu)
            assert alpha_nu_pn_from_ratios(pi + d_pi, rho_pn, rho_nu) < base_nu
            assert alpha_nu_pn_from_ratios(pi, rho_pn * scale, rho_nu) > base_nu
            assert alpha_nu_pn_from_ratios(pi, rho_pn, rho_nu * scale) > base_nu

    def test_matched_prior_increasing_in_rho(self):
        rng = np.random.default_rng(9)
        for _ in range(self.CASES):
            pi = float(rng.uniform(0.02, 0.98))
            rho = float(rng.uniform(0.001, 10.0))
            scale = float(rng.uniform(1.05, 3.0))
            assert alpha_pu_pn_matched_prior(pi, rho * scale) > alpha_pu_pn_matched_prior(pi, rho)
            assert alpha_nu_pn_matched_prior(pi, rho * scale) > alpha_nu_pn_matched_prior(pi, rho)


class TestAlphaStar:
    def test_reference_case(self):
        inp = ComparatorInput(pi=0.5, n_pos=45, n_neg=5)
        res = alpha_star(inp)
        assert res.alpha_star_pu == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert res.verdict == VERDICT_PU

    def test_reciprocity(self):
        rng = np.random.default_rng(10)
        for _ in range(10_000):
            inp = ComparatorInput(
                pi=rng.uniform(0.02, 0.98),
                n_pos=int(rng.integers(1, 10_000)),
                n_neg=int(rng.integers(1, 10_000)),
            )
            res = alpha_star(inp)
            assert abs(res.alpha_star_pu * res.alpha_star_nu - 1.0) <= 1e-12

    def test_degenerate_tie(self):
        res = alpha_star(ComparatorInput(pi=0.5, n_pos=50, n_neg=50))
        assert res.alpha_star_pu == 1.0
        assert res.verdict == VERDICT_TIE

    def test_verdict_flips_exactly_at_the_boundary(self):
        """n_pos/n_neg crossing pi^2/(1-pi)^2 flips the verdict, tie on it."""
        assert alpha_star(ComparatorInput(pi=0.5, n_pos=100, n_neg=99)).verdict == VERDICT_PU
        assert alpha_star(ComparatorInput(pi=0.5, n_pos=100, n_neg=100)).verdict == VERDICT_TIE
        assert alpha_star(ComparatorInput(pi=0.5, n_pos=100, n_neg=101)).verdict == VERDICT_NU


class TestRademacherCheck:
    def test_single_row_is_exact(self):
        """n = 1: the estimate equals c_w * ||x|| with zero variance."""
        x = np.array([[0.6, 0.8]])  # norm 1
        res = rademacher_mc_check(x, c_w=2.0, c_phi=1.0, num_sigma_draws=1500, seed=0)
        assert res.estimate == pytest.approx(2.0, abs=1e-12)
        assert res.std_error == 0.0
        assert res.passed

    def test_orthonormal_rows_meet_bound_with_equality(self):
        """||sum sigma_i e_i|| = sqrt(n) for every sign vector."""
        n = 16
        res = rademacher_mc_check(np.eye(n), c_w=1.0, c_phi=1.0,
                                  num_sigma_draws=2000, seed=1)
        assert res.estimate == pytest.approx(res.bound, rel=1e-12)
        assert res.passed

    def test_random_samples_pass(self):
        rng = np.random.default_rng(2)
        for n in (1, 10, 100, 1000):
            x = rng.normal(size=(n, 5))
            x = x / np.linalg.norm(x, axis=1, keepdims=True) * rng.uniform(0.2, 1.0, (n, 1))
            res = rademacher_mc_check(x, c_w=1.5, c_phi=1.0, num_sigma_draws=2000, seed=rng)
            assert res.passed
            assert res.estimate <= res.bound + 3.0 * res.std_error + 1e-9

    def test_norm_precondition_enforced(self):
        with pytest.raises(ValueError, match="norm"):
            rademacher_mc_check(np.array([[2.0, 0.0]]), c_w=1.0, c_phi=1.0,
                                num_sigma_draws=1500, seed=0)
        with pytest.raises(ValueError, match="sample must be a non-empty matrix"):
            rademacher_mc_check(np.empty((0, 2)), c_w=1.0, c_phi=1.0,
                                num_sigma_draws=1500, seed=0)
        with pytest.raises(ValueError, match="sample must be finite"):
            rademacher_mc_check(np.array([[np.nan, 0.0]]), c_w=1.0, c_phi=1.0,
                                num_sigma_draws=1500, seed=0)

    def test_minimum_draws_enforced(self):
        with pytest.raises(ValueError, match="1000"):
            rademacher_mc_check(np.eye(2), c_w=1.0, c_phi=1.0, num_sigma_draws=100, seed=0)
