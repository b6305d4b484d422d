"""Loss values, the symmetric condition, the DC split, and calibration."""

import numpy as np
import pytest

from pnu.losses import (
    SCALED_RAMP,
    calibration_failures,
    conditional_risk,
    dc_split,
    default_g_grid,
    default_pi_grid,
    half_hinge,
    scaled_ramp,
    verify_calibration,
    zero_one,
)


class TestScaledRamp:
    def test_midpoint(self):
        assert scaled_ramp(0.0, +1) == 0.5

    def test_saturation(self):
        assert scaled_ramp(3.0, +1) == 0.0
        assert scaled_ramp(-3.0, +1) == 1.0

    def test_negative_label_value(self):
        # (1 + 0.4)/2 by hand
        assert scaled_ramp(0.4, -1) == pytest.approx(0.7, abs=1e-15)

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError):
            scaled_ramp(0.0, 0)

    def test_symmetry_exact(self):
        """value(t,+1) + value(t,-1) = 1 exactly, over a million random margins."""
        t = np.random.default_rng(0).uniform(-10.0, 10.0, 1_000_000)
        total = scaled_ramp(t, +1) + scaled_ramp(t, -1)
        assert np.all(total == 1.0)

    def test_lipschitz_half(self):
        rng = np.random.default_rng(1)
        t1 = rng.uniform(-10, 10, 100_000)
        t2 = rng.uniform(-10, 10, 100_000)
        for y in (+1, -1):
            lhs = np.abs(scaled_ramp(t1, y) - scaled_ramp(t2, y))
            assert np.all(lhs <= 0.5 * np.abs(t1 - t2) + 1e-12)

    def test_bounded(self):
        t = np.random.default_rng(2).uniform(-1e6, 1e6, 10_000)
        for loss, y in ((scaled_ramp, +1), (scaled_ramp, -1), (zero_one, +1), (zero_one, -1)):
            vals = loss(t, y)
            assert np.all((0.0 <= vals) & (vals <= 1.0))

    def test_descriptor_constants(self):
        assert SCALED_RAMP.lipschitz == 0.5
        assert SCALED_RAMP.is_symmetric
        assert SCALED_RAMP.value(0.4, -1) == scaled_ramp(0.4, -1)


class TestZeroOne:
    def test_correct_sign(self):
        assert zero_one(2.0, +1) == 0.0

    def test_wrong_sign(self):
        assert zero_one(-1.0, +1) == 1.0

    def test_boundary_convention(self):
        # sign(0) = 0 makes the boundary cost half an error for either label
        assert zero_one(0.0, +1) == 0.5
        assert zero_one(0.0, -1) == 0.5

    def test_symmetry_exact(self):
        t = np.concatenate([np.random.default_rng(3).uniform(-5, 5, 10_000), [0.0]])
        assert np.all(zero_one(t, +1) + zero_one(t, -1) == 1.0)


class TestDcSplit:
    def test_interior(self):
        assert dc_split(0.0, +1) == (0.5, 0.0)

    def test_both_hinges_active(self):
        # convex hinge (1+3)/2 = 2, concave hinge -(−1+3)/2 = -1, sum 1
        convex, concave = dc_split(-3.0, +1)
        assert (convex, concave) == (2.0, -1.0)
        assert convex + concave == scaled_ramp(-3.0, +1)

    def test_both_inactive(self):
        assert dc_split(3.0, +1) == (0.0, 0.0)

    def test_parts_sum_to_ramp(self):
        rng = np.random.default_rng(4)
        t = rng.uniform(-10, 10, 200_000)
        edges = np.array([-np.inf, -1.0, 1.0, np.inf])
        for y in (+1, -1):
            convex, concave = dc_split(t, y)
            np.testing.assert_allclose(convex + concave, scaled_ramp(t, y), atol=1e-15)
            # The trainer's hinge is the convex part bit for bit.
            for margins in (t, edges):
                assert half_hinge(margins, y).tobytes() == dc_split(margins, y)[0].tobytes()

    def test_convexity_roles(self):
        """The convex part is a hinge (nonnegative), the concave part nonpositive."""
        t = np.random.default_rng(5).uniform(-10, 10, 10_000)
        convex, concave = dc_split(t, -1)
        assert np.all(convex >= 0.0)
        assert np.all(concave <= 0.0)


class TestConditionalRisk:
    def test_balanced_posterior_is_flat(self):
        for g in (-5.0, -1.0, 0.0, 0.3, 1.0, 5.0):
            assert conditional_risk(0.5, g) == 0.5

    def test_saturated_branches(self):
        assert conditional_risk(0.8, +1.0) == pytest.approx(0.2, abs=1e-15)
        assert conditional_risk(0.8, -1.0) == 0.8

    def test_matches_loss_mixture(self):
        """Equals pi_plus*ramp(g,+1) + pi_minus*ramp(g,-1) on a grid."""
        rng = np.random.default_rng(6)
        for _ in range(200):
            p = rng.uniform(0, 1)
            g = rng.uniform(-3, 3)
            direct = p * scaled_ramp(g, +1) + (1 - p) * scaled_ramp(g, -1)
            assert conditional_risk(p, g) == pytest.approx(direct, abs=1e-12)

    def test_rejects_bad_posterior(self):
        with pytest.raises(ValueError):
            conditional_risk(1.2, 0.0)


class TestCalibration:
    def test_default_grid_passes(self):
        assert verify_calibration()

    def test_acceptance_grid_passes(self):
        assert verify_calibration(default_pi_grid(0.05), default_g_grid(0.01))

    def test_balanced_prior_ties(self):
        """At pi_plus = 1/2 every g in [-1, 1] attains the minimum 1/2."""
        g = default_g_grid(0.01)
        risks = conditional_risk(0.5, g)
        inside = np.abs(g) <= 1.0
        assert np.all(risks[inside] == 0.5)
        assert np.all(risks >= 0.5)

    def test_pure_positive_class(self):
        g = default_g_grid(0.01)
        risks = conditional_risk(1.0, g)
        assert risks[np.argmin(risks)] == 0.0
        assert g[np.argmin(risks)] >= 1.0

    def test_coarse_spanning_grid_still_calibrates(self):
        """Any grid reaching the saturated branches attains the exact minimum."""
        assert calibration_failures([0.9], [-2.0, -0.25, 0.25, 2.0]) == []

    def test_rejects_grid_not_spanning(self):
        with pytest.raises(ValueError):
            calibration_failures([0.9], [-0.5, 0.0, 0.5])

    def test_rejects_empty_grids(self):
        with pytest.raises(ValueError):
            calibration_failures([], default_g_grid())
