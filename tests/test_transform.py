import mpmath
import numpy as np
import pytest

from powerlaw_blasius import (
    GridSpec,
    NoPlateauError,
    SolutionProfile,
    find_truncated_boundary,
    integrate_starred,
    make_parameter,
    recover_lambda,
    rescale_profile,
    solve,
)
from powerlaw_blasius import transform

#: Published nine-digit wall shear for the Newtonian case on the
#: benchmark grid (step 1e-3, truncated boundary 10).
BLASIUS_SKIN = 0.332057336215

#: Frozen regression values computed by this package on the benchmark
#: grid and cross-checked against the shooting oracle to ~1e-12.
P03_SLOPE = 1.5013277922420585
P03_LAMBDA = 0.8824697733137785
P03_SKIN = 0.39151534663993554
P03_PHYSICAL_END = 17.012795651962044
P15_SKIN = 0.36477352947444286


class TestIntegrateStarred:
    def test_newtonian_starred_run(self, solve_cached):
        starred = solve_cached(1.0).starred
        assert tuple(starred.values[0]) == (0.0, 0.0, 1.0)
        # classical unit-curvature asymptotic slope
        assert abs(starred.df[-1] - 2.08540) < 5e-5
        assert starred.d2f[-1] < 1e-3

    def test_monotone_profile(self, solve_cached):
        starred = solve_cached(1.0).starred
        assert np.diff(starred.df).min() >= -1e-10
        assert np.diff(starred.d2f).max() <= 1e-10

    def test_curvature_touchdown_freezes_at_zero(self, solve_cached):
        # for P > 1 the curvature has compact support: it reaches zero at
        # a finite station and must stay exactly zero from there on
        starred = solve_cached(1.5).starred
        assert (starred.d2f >= 0.0).all()
        frozen = np.flatnonzero(starred.d2f == 0.0)
        assert frozen.size > 0
        first = frozen[0]
        assert np.all(starred.d2f[first:] == 0.0)
        assert np.all(starred.df[first:] == starred.df[first])

    def test_explicit_grid(self):
        profile = integrate_starred(make_parameter(1.0), GridSpec(0.01, 10.0))
        assert profile.frame == "starred"
        assert profile.abscissae.size == 1001
        assert abs(profile.df[-1] - 2.08540) < 5e-4


class TestSolutionProfileValidation:
    def test_rejects_negative_curvature(self):
        with pytest.raises(ValueError, match="curvature"):
            SolutionProfile("starred", [0.0, 1.0], [[0.0, 0.0, 1.0], [1.0, 1.0, -0.1]])

    def test_rejects_nonuniform_spacing(self):
        with pytest.raises(ValueError, match="uniform"):
            SolutionProfile("starred", [0.0, 1.0, 3.0], [[0.0, 0.0, 1.0]] * 3)

    def test_rejects_offset_origin(self):
        with pytest.raises(ValueError, match="wall"):
            SolutionProfile("starred", [1.0, 2.0], [[0.0, 0.0, 1.0]] * 2)

    def test_rejects_unknown_frame(self):
        with pytest.raises(ValueError, match="frame"):
            SolutionProfile("rescaled", [0.0, 1.0], [[0.0, 0.0, 1.0]] * 2)


class TestFindTruncatedBoundary:
    def test_newtonian_lands_on_benchmark_boundary(self):
        assert find_truncated_boundary(make_parameter(1.0), 0.001).abscissae[-1] == 10.0

    def test_shear_thinning_boundary_regression(self):
        # algebraic curvature decay pushes the plateau far out; value is a
        # frozen regression constant from running the doubling procedure
        assert find_truncated_boundary(make_parameter(0.3), 0.001).abscissae[-1] == 640.0

    @pytest.mark.parametrize("p, step", [(0.8, 0.01), (1.5, 0.01), (1.0, 0.0032)])
    def test_profile_is_the_starred_integration(self, p, step):
        # the segments joined across candidates reproduce one integration
        # from the wall bit for bit; step 0.0032 does not divide the first
        # candidate 5, so it pins counting segment lengths from the wall
        param = make_parameter(p)
        searched = find_truncated_boundary(param, step)
        direct = integrate_starred(param, GridSpec(step, searched.abscissae[-1]))
        assert searched.frame == "starred"
        assert np.array_equal(searched.abscissae, direct.abscissae)
        assert np.array_equal(searched.values, direct.values)

    def test_doubling_cap_exhausted(self, monkeypatch):
        monkeypatch.setattr(transform, "_DOUBLING_CAP", 0)
        with pytest.raises(NoPlateauError, match="up to 5 "):
            find_truncated_boundary(make_parameter(0.3), 0.01)

    def test_start_must_cover_ten_steps(self):
        with pytest.raises(ValueError, match="10 steps"):
            solve(make_parameter(1.0), step=1.0, eta_inf="auto")


class TestRecoverLambda:
    def test_newtonian_square_root(self):
        assert recover_lambda(make_parameter(1.0), 4.0) == 2.0

    def test_newtonian_benchmark_slope(self):
        expected = float(mpmath.sqrt(mpmath.mpf("2.08540")))
        assert recover_lambda(make_parameter(1.0), 2.08540) == pytest.approx(expected, rel=1e-14)

    def test_shear_thinning_slope(self):
        expected = float(mpmath.mpf(2.0) ** (-mpmath.mpf("0.4") / mpmath.mpf("1.3")))
        assert recover_lambda(make_parameter(0.3), 2.0) == pytest.approx(expected, rel=1e-13)

    def test_exponent_forms_agree(self):
        # 1/(1 - delta) and (2p-1)/(p+1) are the same exponent
        for p in (0.05, 0.3, 0.8, 1.0, 1.5):
            param = make_parameter(p)
            for slope in (0.5, 1.0, 2.08540):
                assert recover_lambda(param, slope) == pytest.approx(
                    slope ** ((2.0 * p - 1.0) / (p + 1.0)), rel=1e-13
                )

    def test_rejects_nonpositive_slope(self):
        with pytest.raises(ValueError, match="positive"):
            recover_lambda(make_parameter(1.0), 0.0)


class TestRescaleProfile:
    def test_identity_at_unit_lambda(self):
        starred = integrate_starred(make_parameter(0.8), GridSpec(0.05, 10.0))
        physical = rescale_profile(starred, make_parameter(0.8), 1.0)
        assert physical.frame == "physical"
        assert np.array_equal(physical.abscissae, starred.abscissae)
        assert np.array_equal(physical.values, starred.values)

    def test_newtonian_group_action_on_node(self):
        starred = SolutionProfile("starred", [0.0, 1.0], [[0.0, 0.0, 1.0], [2.0, 4.0, 8.0]])
        physical = rescale_profile(starred, make_parameter(1.0), 2.0)
        # delta = -1: eta scales by 2, (f, f', f'') by (1/2, 1/4, 1/8)
        assert physical.abscissae[1] == 2.0
        assert tuple(physical.values[1]) == (1.0, 1.0, 1.0)

    def test_rejects_physical_input(self):
        starred = integrate_starred(make_parameter(0.8), GridSpec(0.05, 10.0))
        physical = rescale_profile(starred, make_parameter(0.8), 1.2)
        with pytest.raises(ValueError, match="starred"):
            rescale_profile(physical, make_parameter(0.8), 1.2)

    def test_rejects_nonpositive_lambda(self):
        starred = integrate_starred(make_parameter(0.8), GridSpec(0.05, 10.0))
        with pytest.raises(ValueError, match="positive"):
            rescale_profile(starred, make_parameter(0.8), 0.0)


class TestSolve:
    def test_newtonian_benchmark(self, solve_cached):
        result = solve_cached(1.0)
        assert abs(result.skin_friction - BLASIUS_SKIN) <= 1e-8

    def test_topfer_rule(self, solve_cached):
        # at P = 1 the pipeline must reduce to skin = slope**(-3/2)
        result = solve_cached(1.0)
        expected = result.starred_slope_at_infinity ** -1.5
        assert abs(result.skin_friction - expected) <= 1e-12 * expected

    def test_shear_thinning_regression(self, solve_cached):
        result = solve_cached(0.3)
        assert abs(result.skin_friction - 0.391515) <= 5e-4
        assert result.starred_slope_at_infinity == pytest.approx(P03_SLOPE, rel=1e-12)
        assert result.lam == pytest.approx(P03_LAMBDA, rel=1e-12)
        assert result.skin_friction == pytest.approx(P03_SKIN, rel=1e-12)

    def test_shear_thinning_domain_grows(self, solve_cached):
        # lam < 1 and delta > 0, so the physical domain extends beyond the
        # starred one: integrating on the short starred grid is the win
        result = solve_cached(0.3)
        assert result.physical.abscissae[-1] == pytest.approx(P03_PHYSICAL_END, rel=1e-12)
        assert result.physical.abscissae[-1] > result.starred.abscissae[-1]

    def test_shear_thickening_regression(self, solve_cached):
        # frozen value; the published table's 0.398432 is not reproducible
        # from the stated procedure and disagrees with the shooting oracle
        result = solve_cached(1.5)
        assert result.skin_friction == pytest.approx(P15_SKIN, rel=1e-12)

    def test_lambda_identity(self, solve_cached):
        for p in (0.3, 1.0, 1.5):
            result = solve_cached(p)
            expected = result.starred_slope_at_infinity ** (1.0 / (1.0 - result.param.delta))
            assert abs(result.lam - expected) <= 1e-12 * expected

    def test_lambda_elimination_identity(self, solve_cached):
        # skin * slope^(3/(P+1)) == 1 exercises both formulas jointly
        for p in (0.3, 1.0, 1.5):
            result = solve_cached(p)
            product = result.skin_friction * result.starred_slope_at_infinity ** (3.0 / (p + 1.0))
            assert abs(product - 1.0) <= 1e-10

    def test_boundary_conditions(self, solve_cached):
        for p in (0.3, 1.0, 1.5):
            physical = solve_cached(p).physical
            assert physical.f[0] == 0.0
            assert physical.df[0] == 0.0
            assert abs(physical.df[-1] - 1.0) <= 1e-6

    @pytest.mark.parametrize("p", [0.3, 1.0])
    def test_interior_residual(self, p, solve_cached):
        # the rescaled profile must satisfy the original equation; the
        # centered-difference residual is discretization-limited
        prof = solve_cached(p).physical
        h = prof.spacing
        d3f = (prof.d2f[2:] - prof.d2f[:-2]) / (2.0 * h)
        residual = p * (p + 1.0) * d3f + prof.f[1:-1] * prof.d2f[1:-1] ** (2.0 - p)
        assert np.abs(residual).max() <= 1e-5

    def test_default_step_shrinks_for_small_index(self, solve_cached):
        assert solve_cached(0.05).starred.spacing == pytest.approx(1e-4, rel=1e-12)
        assert solve_cached(0.2).starred.spacing == pytest.approx(1e-3, rel=1e-12)

    def test_small_index_regression(self, solve_cached):
        assert abs(solve_cached(0.05).skin_friction - 1.540752) <= 5e-3

    def test_explicit_grid_object(self):
        result = solve(make_parameter(1.0), step=0.01)
        assert abs(result.skin_friction - BLASIUS_SKIN) <= 1e-6

    def test_auto_boundary(self):
        result = solve(make_parameter(1.0), step=0.001, eta_inf="auto")
        assert result.truncated_boundary == 10.0
        assert abs(result.skin_friction - BLASIUS_SKIN) <= 1e-8

    def test_deterministic(self):
        a = solve(make_parameter(0.8), step=0.01)
        b = solve(make_parameter(0.8), step=0.01)
        assert a.skin_friction == b.skin_friction
        assert np.array_equal(a.physical.values, b.physical.values)

    def test_wrong_lambda_exponent_not_reproduced(self, solve_cached):
        # the sign of the recovery exponent matters: 1/(delta-1) would give
        # ~3.01 at P = 1 instead of the classical 0.3320...
        result = solve_cached(1.0)
        wrong = result.starred_slope_at_infinity ** (1.0 / (result.param.delta - 1.0))
        wrong_skin = wrong ** (2.0 * result.param.delta - 1.0)
        assert abs(wrong_skin - 3.01) < 0.01
        assert abs(result.skin_friction - wrong_skin) > 1.0
