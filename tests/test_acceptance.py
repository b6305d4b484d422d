"""Acceptance gate: ten criteria covering estimators, comparators, training.

Each criterion prints one [PASS]/[FAIL] line (run with ``pytest -s`` to see
them as they complete).  The experiment criteria share one desk-scale run:
50 trials and 1e5 test points for the unlabeled-size sweep, the full 100
samplings for the prior sweep, all at a fixed master seed so the outcome
is reproducible bit for bit.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from pnu import training
from pnu.bounds import (
    VERDICT_NU,
    VERDICT_PU,
    VERDICT_TIE,
    ComparatorInput,
    alpha_nu_pn,
    alpha_nu_pn_from_ratios,
    alpha_nu_pn_matched_prior,
    alpha_pu_pn,
    alpha_pu_pn_from_ratios,
    alpha_pu_pn_matched_prior,
    alpha_star,
    bound_values,
    matched_prior_argmin,
    matched_prior_min,
    rademacher_mc_check,
)
from pnu.datasets import gen_gaussian_artificial, gen_gaussian_labeled
from pnu.harness import ExperimentGrid, estimate_pu_pn_crossing, run_sweep
from pnu.losses import SCALED_RAMP, ZERO_ONE, verify_calibration
from pnu.models import DecisionModel
from pnu.risk import risk_nu, risk_pn, risk_pu, risk_true_mc
from pnu.training import TrainConfig, train

MASTER_SEED = 20250810
BAYES_ERROR = 0.5 * (1.0 + math.erf(-1.0 / math.sqrt(2.0)))  # Phi(-1)

# Inverting alpha_pu_pn = 1 at pi=1/2, n_pos=45, n_neg=5:
# n_unl* = ((1-pi)/sqrt(n_neg) - pi/sqrt(n_pos))^(-2) = 45 exactly.
PREDICTED_CROSSING = 1.0 / (0.5 / math.sqrt(5.0) - 0.5 / math.sqrt(45.0)) ** 2


def _check(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def experiments():
    """The shared desk-scale experiment runs behind criteria 6, 7, 8, and 10."""
    before = training.run_stats()

    nu_grid = ExperimentGrid(
        sweep="nu", values=(5, 10, 15, 25, 45, 70, 110, 200),
        n_pos=45, n_neg=5, pi=0.5, trials=50, test_size=100_000, seed=MASTER_SEED,
    )
    nu_table = run_sweep(nu_grid)

    pi_grid = ExperimentGrid(
        sweep="pi", values=(0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95),
        n_pos=45, n_neg=5, n_unl=100, trials=100, test_size=100_000, seed=MASTER_SEED,
    )
    pi_table = run_sweep(pi_grid)

    big = gen_gaussian_artificial(500, 500, 1, 0.5, MASTER_SEED)
    model = train("PN", big, config=TrainConfig(seed=MASTER_SEED))
    pn_error = risk_true_mc(model, gen_gaussian_labeled(100_000, 0.5, MASTER_SEED + 1), ZERO_ONE)

    after = training.run_stats()
    stats = {key: after[key] - before[key] for key in after}
    return SimpleNamespace(nu_table=nu_table, pi_table=pi_table, pn_error=pn_error, stats=stats)


def test_criterion_01_unbiasedness_oracle():
    """Estimator means over 1e4 resamples match a 1e6-point Monte Carlo."""
    rng = np.random.default_rng(MASTER_SEED)
    model = DecisionModel(weights=rng.normal(size=2), bias=float(rng.normal(scale=0.2)))
    pi, n, resamples = 0.5, 50, 10_000

    feats, labels = gen_gaussian_labeled(1_000_000, pi, rng)
    scores = model.decision_values(feats)
    point_losses = np.where(
        labels == 1, SCALED_RAMP.value(scores, +1), SCALED_RAMP.value(scores, -1)
    )
    truth = float(np.mean(point_losses))
    se_truth = float(np.std(point_losses, ddof=1)) / math.sqrt(point_losses.size)

    values = {"PN": np.empty(resamples), "PU": np.empty(resamples), "NU": np.empty(resamples)}
    for k in range(resamples):
        triple = gen_gaussian_artificial(n, n, n, pi, rng)
        values["PN"][k] = risk_pn(model, triple.x_pos, triple.x_neg, pi, SCALED_RAMP)
        values["PU"][k] = risk_pu(model, triple.x_pos, triple.x_unl, pi, SCALED_RAMP)
        values["NU"][k] = risk_nu(model, triple.x_unl, triple.x_neg, pi, SCALED_RAMP)

    details = []
    ok = True
    for mode, vals in values.items():
        combined = math.hypot(float(np.std(vals, ddof=1)) / math.sqrt(resamples), se_truth)
        gap = abs(float(np.mean(vals)) - truth)
        ok &= gap <= 5.0 * combined
        details.append(f"{mode} |bias|={gap:.2e} vs 5se={5 * combined:.2e}")
    _check("1 (unbiasedness)", ok, "; ".join(details))


def test_criterion_02_comparator_equivalence():
    """alpha ordering agrees with bound-value ordering on 1e4 random inputs."""
    rng = np.random.default_rng(MASTER_SEED)
    violations = 0
    for _ in range(10_000):
        comp = ComparatorInput(
            pi=rng.uniform(0.02, 0.98),
            n_pos=int(rng.integers(1, 10_000)),
            n_neg=int(rng.integers(1, 10_000)),
            n_unl=int(rng.integers(1, 10_000)),
        )
        v_pn, v_pu, v_nu = bound_values(comp)
        violations += (alpha_pu_pn(comp) < 1.0) != (v_pu < v_pn)
        violations += (alpha_nu_pn(comp) < 1.0) != (v_nu < v_pn)
    _check("2 (comparator equivalence)", violations == 0,
           f"10000 random inputs, {violations} violations")


def test_criterion_03_reciprocity_and_tie():
    """Limit comparators multiply to 1; the verdict flips exactly on the boundary."""
    rng = np.random.default_rng(MASTER_SEED)
    worst = 0.0
    for _ in range(10_000):
        comp = ComparatorInput(
            pi=rng.uniform(0.02, 0.98),
            n_pos=int(rng.integers(1, 10_000)),
            n_neg=int(rng.integers(1, 10_000)),
        )
        res = alpha_star(comp)
        worst = max(worst, abs(res.alpha_star_pu * res.alpha_star_nu - 1.0))
    ok = worst <= 1e-12

    # exactly representable boundary families: pi/(1-pi) in {1, 3}
    flips_ok = True
    for pi, n_pos, n_neg in ((0.5, 64, 64), (0.75, 36, 4), (0.75, 324, 36)):
        tie = alpha_star(ComparatorInput(pi=pi, n_pos=n_pos, n_neg=n_neg))
        below = alpha_star(ComparatorInput(pi=pi, n_pos=n_pos + 1, n_neg=n_neg))
        above = alpha_star(ComparatorInput(pi=pi, n_pos=n_pos - 1, n_neg=n_neg))
        flips_ok &= (
            tie.verdict == VERDICT_TIE
            and below.verdict == VERDICT_PU
            and above.verdict == VERDICT_NU
        )
    _check("3 (reciprocity and tie)", ok and flips_ok,
           f"worst |product - 1| = {worst:.2e}; boundary flips {'ok' if flips_ok else 'broken'}")


def test_criterion_04_monotonicity_suite():
    """Every monotonicity column plus the constrained minimum at its argmin."""
    rng = np.random.default_rng(MASTER_SEED)
    cases = 1000
    failures = []

    def check(name, condition):
        if not condition:
            failures.append(name)

    for _ in range(cases):
        comp = ComparatorInput(
            pi=float(rng.uniform(0.02, 0.95)),
            n_pos=int(rng.integers(1, 5_000)),
            n_neg=int(rng.integers(1, 5_000)),
            n_unl=int(rng.integers(1, 5_000)),
        )
        d_pi = float(rng.uniform(0.001, 0.97 - comp.pi))
        dn = int(rng.integers(1, 100))

        def bumped(**kw):
            base = dict(pi=comp.pi, n_pos=comp.n_pos, n_neg=comp.n_neg, n_unl=comp.n_unl)
            base.update(kw)
            return ComparatorInput(**base)

        a0, b0 = alpha_pu_pn(comp), alpha_nu_pn(comp)
        check("pu inc pi", alpha_pu_pn(bumped(pi=comp.pi + d_pi)) > a0)
        check("pu inc n_neg", alpha_pu_pn(bumped(n_neg=comp.n_neg + dn)) > a0)
        check("pu dec n_pos", alpha_pu_pn(bumped(n_pos=comp.n_pos + dn)) < a0)
        check("pu dec n_unl", alpha_pu_pn(bumped(n_unl=comp.n_unl + dn)) < a0)
        check("nu inc n_pos", alpha_nu_pn(bumped(n_pos=comp.n_pos + dn)) > b0)
        check("nu dec pi", alpha_nu_pn(bumped(pi=comp.pi + d_pi)) < b0)
        check("nu dec n_neg", alpha_nu_pn(bumped(n_neg=comp.n_neg + dn)) < b0)
        check("nu dec n_unl", alpha_nu_pn(bumped(n_unl=comp.n_unl + dn)) < b0)

        pi = float(rng.uniform(0.02, 0.95))
        rho_pn, rho_pu, rho_nu = (float(rng.uniform(0.01, 20.0)) for _ in range(3))
        scale = float(rng.uniform(1.05, 4.0))
        d_pi = float(rng.uniform(0.001, 0.97 - pi))
        p0 = alpha_pu_pn_from_ratios(pi, rho_pn, rho_pu)
        check("pu-ratio inc pi", alpha_pu_pn_from_ratios(pi + d_pi, rho_pn, rho_pu) > p0)
        check("pu-ratio inc rho_pu", alpha_pu_pn_from_ratios(pi, rho_pn, rho_pu * scale) > p0)
        check("pu-ratio dec rho_pn", alpha_pu_pn_from_ratios(pi, rho_pn * scale, rho_pu) < p0)
        q0 = alpha_nu_pn_from_ratios(pi, rho_pn, rho_nu)
        check("nu-ratio dec pi", alpha_nu_pn_from_ratios(pi + d_pi, rho_pn, rho_nu) < q0)
        check("nu-ratio inc rho_pn", alpha_nu_pn_from_ratios(pi, rho_pn * scale, rho_nu) > q0)
        check("nu-ratio inc rho_nu", alpha_nu_pn_from_ratios(pi, rho_pn, rho_nu * scale) > q0)

        rho = float(rng.uniform(0.0005, 5.0))
        check("matched inc rho (pu)",
              alpha_pu_pn_matched_prior(pi, rho * scale) > alpha_pu_pn_matched_prior(pi, rho))
        check("matched inc rho (nu)",
              alpha_nu_pn_matched_prior(pi, rho * scale) > alpha_nu_pn_matched_prior(pi, rho))
        pi_bar = matched_prior_argmin(rho)
        floor = matched_prior_min(rho)
        check("matched floor", alpha_pu_pn_matched_prior(pi, rho) >= floor - 1e-12)
        check("matched min at argmin",
              abs(alpha_pu_pn_matched_prior(pi_bar, rho) - floor) <= 1e-12 * max(1.0, floor))
        lo = np.sort(rng.uniform(0.005, pi_bar, size=2))
        hi = np.sort(rng.uniform(pi_bar, 0.995, size=2))
        check("matched dec below argmin",
              alpha_pu_pn_matched_prior(float(lo[0]), rho)
              > alpha_pu_pn_matched_prior(float(lo[1]), rho))
        check("matched inc above argmin",
              alpha_pu_pn_matched_prior(float(hi[0]), rho)
              < alpha_pu_pn_matched_prior(float(hi[1]), rho))

    bad = sorted(set(failures))
    _check("4 (table monotonicity)", not bad,
           f"{cases} randomized cases per claim; failing claims: {bad or 'none'}")


def test_criterion_05_calibration_certificate():
    ok = verify_calibration()
    _check("5 (calibration certificate)", ok,
           "posterior grid step 0.05, score grid step 0.01 on [-2, 2], tolerance 1e-12")


def test_criterion_06_unlabeled_sweep(experiments):
    """Desk-scale reproduction of the unlabeled-size experiment.

    (a) With plentiful unlabeled data PU beats PN on identical samples;
    (b) with almost none it does not (beyond noise); (c) the empirical
    PU/PN crossing sits within a factor of two of the value where the
    finite-sample comparator crosses one (45 for this configuration).
    """
    table = experiments.nu_table
    nus, pu = table.series("PU")
    _, pn = table.series("PN")
    at = {int(v): i for i, v in enumerate(nus)}

    ok_a = pu[at[200]] < pn[at[200]]
    _check("6a (PU wins at n_unl=200)", ok_a,
           f"PU {pu[at[200]]:.4f} vs PN {pn[at[200]]:.4f}")

    ok_b = pu[at[5]] >= pn[at[5]] - 0.01
    _check("6b (PU not better at n_unl=5)", ok_b,
           f"PU {pu[at[5]]:.4f} vs PN {pn[at[5]]:.4f}")

    crossing = estimate_pu_pn_crossing(table)
    ok_c = crossing is not None and PREDICTED_CROSSING / 2 <= crossing <= PREDICTED_CROSSING * 2
    _check("6c (crossing near comparator prediction)", ok_c,
           f"empirical {crossing and round(crossing, 1)} vs predicted {PREDICTED_CROSSING:.1f}, "
           f"window [{PREDICTED_CROSSING / 2:.1f}, {PREDICTED_CROSSING * 2:.1f}]")


def test_criterion_07_prior_sweep(experiments):
    """PU best at small priors, NU best at large ones, PN best between."""
    table = experiments.pi_table
    values = sorted({row.sweep_value for row in table.rows})

    def best_mode(value):
        rows = [row for row in table.rows if row.sweep_value == value]
        return min(rows, key=lambda r: r.mean_error).mode

    first, last = values[0], values[-1]
    ok_small = best_mode(first) == "PU"
    _check("7a (PU best at smallest prior)", ok_small, f"best at pi={first} is {best_mode(first)}")
    ok_large = best_mode(last) == "NU"
    _check("7b (NU best at largest prior)", ok_large, f"best at pi={last} is {best_mode(last)}")
    interior = [v for v in values[1:-1] if best_mode(v) == "PN"]
    _check("7c (PN best in a middle band)", bool(interior),
           f"PN best at pi in {interior or 'nowhere'}")


def test_criterion_08_large_sample_sanity(experiments):
    """A 500+500 supervised fit lands within 0.02 of the Bayes error."""
    err = experiments.pn_error
    _check("8 (large-sample sanity)", abs(err - BAYES_ERROR) <= 0.02,
           f"holdout error {err:.4f} vs Bayes {BAYES_ERROR:.4f}")


def test_criterion_09_rademacher_check():
    """The complexity estimate respects its bound on 100 random samples."""
    rng = np.random.default_rng(MASTER_SEED)
    checked, failed = 0, 0
    for n in (1, 10, 100, 1000):
        for _ in range(25):
            d = int(rng.integers(1, 12))
            c_w = float(rng.uniform(0.5, 3.0))
            c_phi = float(rng.uniform(0.5, 2.0))
            x = rng.normal(size=(n, d))
            x = x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-12)
            x *= rng.uniform(0.0, 1.0, size=(n, 1)) ** 0.5 * c_phi
            res = rademacher_mc_check(x, c_w=c_w, c_phi=c_phi, seed=rng)
            checked += 1
            failed += not res.passed
    _check("9 (rademacher bound)", failed == 0,
           f"{checked} samples across n in (1, 10, 100, 1000), {failed} failures")


def test_criterion_10_cccp_monotonicity(experiments):
    """Every training run behind criteria 6-8 kept a non-increasing objective.

    The trainer asserts per-step descent at 1e-12 slack and raises on any
    violation, so a nonzero counter (or any completed run after a raise)
    is impossible; the counters make that explicit.
    """
    stats = experiments.stats
    expected_runs = (8 * 50 + 7 * 100) * 3 + 1
    ok = stats["monotonicity_violations"] == 0 and stats["runs"] == expected_runs
    _check("10 (CCCP monotonicity)", ok,
           f"{stats['runs']} training runs (expected {expected_runs}), "
           f"{stats['outer_steps']} outer steps, {stats['monotonicity_violations']} violations")
