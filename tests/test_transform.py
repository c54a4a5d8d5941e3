import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerlaw_blasius import (
    COOPER_VERNER_8,
    BlowUpError,
    CurvatureError,
    GridSpec,
    NoPlateauError,
    SolutionProfile,
    find_truncated_boundary,
    integrate,
    integrate_starred,
    make_parameter,
    recover_lambda,
    rescale_profile,
    solve,
)
from powerlaw_blasius import model, runge_kutta, transform

#: Published nine-digit wall shear for the Newtonian case on the
#: benchmark grid (step 1e-3, truncated boundary 10).
BLASIUS_SKIN = 0.332057336215

#: Boyd, SIAM Rev. 50 (2008): the Newtonian f''(0) to 17 digits.
BOYD = 0.33205733621519630

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

    def test_final_row_below_window_rejected(self, monkeypatch):
        # no later step checks the last stored row, so the projection must;
        # at P = 0.3 and 1000 steps that row ends the second block of 488
        real = transform.integrate

        def undershoot(rhs, tableau, grid, y0):
            eta, rows = real(rhs, tableau, grid, y0)
            if grid.step_count == 488:
                rows[-1, 2] = -1e-11
            return eta, rows

        monkeypatch.setattr(transform, "integrate", undershoot)
        with pytest.raises(CurvatureError, match="sign loss at row 1000"):
            integrate_starred(make_parameter(0.3), GridSpec(0.01, 10.0))

    def test_explicit_grid(self):
        profile = integrate_starred(make_parameter(1.0), GridSpec(0.01, 10.0))
        assert profile.frame == "starred"
        assert profile.abscissae.size == 1001
        assert abs(profile.df[-1] - 2.08540) < 5e-4


def _one_call(param, grid):
    """Starred states of one ``integrate`` call over the grid, projected: what a march must store."""
    states = integrate(model.ivp_rhs(param), COOPER_VERNER_8, grid, (0.0, 0.0, 1.0))[1]
    return model.project_curvature(param, states)


def _one_call_rows(param, step, stop):
    """Unprojected starred rows of one ``integrate`` call from the wall to row ``stop``."""
    return integrate(model.ivp_rhs(param), COOPER_VERNER_8, GridSpec(step, stop * step), (0.0, 0.0, 1.0))[1]


class TestMarch:
    @pytest.mark.parametrize("step", [1e-3, 0.01])
    @pytest.mark.parametrize("p", [0.05, 0.3, 0.9, 1.0, 1.1, 1.5, 1.7573, 1.7765, 1.84375, 1.9, 1.99])
    def test_matches_one_integrate_call(self, p, step):
        # past the P > 1 touchdown the rows come from numpy, not from
        # stepping, and must be what stepping gives; at step 0.01 from
        # P = 1.757 up a stage undershoots the touchdown by more than 1e-2
        param, grid = make_parameter(p), GridSpec(step, 10.0)
        assert integrate_starred(param, grid).values.tobytes() == _one_call(param, grid).tobytes()

    @pytest.mark.parametrize("p", [0.8, 1.5])
    @pytest.mark.parametrize("n", [10, 521, 522, 1024, 1025, 1033, 1034, 1536])
    def test_any_step_count(self, p, n):
        # 1025 steps leave one step after two calls of 512, too few for a
        # GridSpec: it joins the last call
        param, grid = make_parameter(p), GridSpec(0.01, n * 0.01)
        assert integrate_starred(param, grid).values.tobytes() == _one_call(param, grid).tobytes()

    def test_stepping_stops_past_the_touchdown(self, monkeypatch):
        param, grid = make_parameter(1.5), GridSpec(1e-3, 10.0)
        touchdown = int(np.argmax(_one_call(param, grid)[:, 2] == 0.0))
        steps = []
        real = transform.integrate

        def counting(rhs, tableau, grid, y0):
            steps.append(grid.step_count)
            return real(rhs, tableau, grid, y0)

        monkeypatch.setattr(transform, "integrate", counting)
        integrate_starred(param, grid)
        assert 0 < touchdown <= sum(steps) < touchdown + transform._CHUNK

    @pytest.mark.parametrize("step", [1e-3, 0.01])
    @pytest.mark.parametrize("p", [0.8, 1.5])
    @pytest.mark.parametrize("eta", [3.0, 5.12, 5.0], ids=["mid-block", "block-edge", "past-touchdown"])
    def test_resumes_with_the_bits_of_one_call(self, p, step, eta):
        # the march extends rows[:r + 1] to the stop as one call from the
        # wall stores them; r = 5.12 / step ends a 512-step block, and at
        # P = 1.5 r = 5 / step lies past the touchdown (eta* ~ 3.68), a
        # frozen row the search never resumes from
        param, stop, r = make_parameter(p), round(10.0 / step), round(eta / step)
        rows = _one_call_rows(param, step, stop)
        assert eta != 5.12 or r % transform._CHUNK == 0
        assert p != 1.5 or eta != 5.0 or rows[r, 2] <= 0.0
        resumed = transform._march(param, step, stop, rows[: r + 1].copy(), integrate)
        assert resumed.tobytes() == rows.tobytes()

    def test_blow_up_in_the_resumed_part_reports_the_one_call_time(self, monkeypatch):
        # rows up to eta = 5 stay inside the limit; the state leaves it at 7.72
        monkeypatch.setattr(runge_kutta, "STATE_LIMIT", 10.0)
        param = make_parameter(0.3)
        with pytest.raises(BlowUpError) as whole:
            integrate(model.ivp_rhs(param), COOPER_VERNER_8, GridSpec(0.01, 10.0), (0.0, 0.0, 1.0))
        rows = _one_call_rows(param, 0.01, 500)
        with pytest.raises(BlowUpError) as err:
            transform._march(param, 0.01, 1000, rows, integrate)
        assert whole.value.t == pytest.approx(7.72)
        assert (type(err.value), str(err.value), err.value.t) == (type(whole.value), str(whole.value), whole.value.t)


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

    @pytest.mark.parametrize(
        "eta, values", [([], np.empty((0, 3))), ([0.0], [[0.0, 0.0, 1.0]])], ids=["empty", "one-node"]
    )
    def test_rejects_fewer_than_two_nodes(self, eta, values):
        with pytest.raises(ValueError, match="n >= 2"):
            SolutionProfile("starred", eta, values)

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
        # the march across the candidate stops reproduces one integration
        # from the wall bit for bit; step 0.0032 does not divide the first
        # candidate 5, so it pins counting stop rows from the wall
        param = make_parameter(p)
        searched = find_truncated_boundary(param, step)
        direct = integrate_starred(param, GridSpec(step, searched.abscissae[-1]))
        assert searched.frame == "starred"
        assert np.array_equal(searched.abscissae, direct.abscissae)
        assert np.array_equal(searched.values, direct.values)

    @pytest.mark.parametrize("step", [1e-3, 0.01])
    @pytest.mark.parametrize("p", [1.2, 1.5, 1.9])
    def test_touchdown_accepted_at_first_candidate(self, p, step):
        # past the P > 1 touchdown the integrator stores a small negative
        # f*'' (down to -3e-4 at P = 1.9); the signed plateau test accepts
        # it and the projection zeroes it
        result = solve(make_parameter(p), step=step, eta_inf="auto")
        assert result.truncated_boundary == 5.0
        assert result.starred.d2f[-1] == 0.0

    def test_touchdown_carries_across_search_stops(self, monkeypatch):
        # at P = 1.1 the touchdown (row ~5780) lies past the first candidate
        # 5, so the search marches on to 10 and must stop stepping there
        param = make_parameter(1.1)
        direct = integrate_starred(param, GridSpec(1e-3, 10.0))
        touchdown = int(np.argmax(direct.d2f == 0.0))
        steps = []
        real = transform.integrate

        def counting(rhs, tableau, grid, y0):
            steps.append(grid.step_count)
            return real(rhs, tableau, grid, y0)

        monkeypatch.setattr(transform, "integrate", counting)
        searched = find_truncated_boundary(param, 1e-3)
        assert searched.abscissae[-1] == 10.0
        assert searched.values.tobytes() == direct.values.tobytes()
        assert 5000 < touchdown <= sum(steps) < touchdown + transform._CHUNK

    def test_blow_up_reports_time_from_the_wall(self, monkeypatch):
        # the state leaves the limit between the candidates 5 and 10; the
        # search must report the time one call from the wall reports
        monkeypatch.setattr(runge_kutta, "STATE_LIMIT", 10.0)
        param = make_parameter(0.3)
        with pytest.raises(BlowUpError) as whole:
            integrate(model.ivp_rhs(param), COOPER_VERNER_8, GridSpec(0.01, 10.0), (0.0, 0.0, 1.0))
        with pytest.raises(BlowUpError) as err:
            find_truncated_boundary(param, 0.01)
        assert whole.value.t == pytest.approx(7.72)
        assert (type(err.value), str(err.value), err.value.t) == (type(whole.value), str(whole.value), whole.value.t)

    def test_doubling_cap_exhausted(self, monkeypatch):
        monkeypatch.setattr(transform, "_DOUBLING_CAP", 0)
        with pytest.raises(NoPlateauError, match="up to 5 "):
            find_truncated_boundary(make_parameter(0.3), 0.01)

    def test_start_must_cover_ten_steps(self):
        with pytest.raises(ValueError, match="10 steps"):
            solve(make_parameter(1.0), step=1.0, eta_inf="auto")

    def test_start_below_one_step_rejected(self):
        # 5 / 20 rounds to row 0: still a grid error, not a march that never steps
        with pytest.raises(ValueError, match="endpoint must be positive, got 0.0"):
            solve(make_parameter(1.0), step=20.0, eta_inf="auto")


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

    @pytest.mark.parametrize("slope", [math.inf, math.nan, -1.0])
    def test_rejects_non_finite_slope(self, slope):
        with pytest.raises(ValueError, match="starred slope must be positive and finite"):
            recover_lambda(make_parameter(1.0), slope)


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

    @pytest.mark.parametrize("lam", [math.inf, math.nan])
    def test_rejects_non_finite_lambda(self, lam):
        starred = integrate_starred(make_parameter(1.0), GridSpec(0.05, 10.0))
        with pytest.raises(ValueError, match=f"lam must be positive and finite, got {lam!r}"):
            rescale_profile(starred, make_parameter(1.0), lam)

    # at P = 1, eta scales by lam and (f, f', f'') by (1/lam, 1/lam**2,
    # 1/lam**3): 1e-300 overflows a power, 1e308 only the product with eta
    @pytest.mark.parametrize("lam", [1e-300, 1e308])
    @pytest.mark.filterwarnings("error")
    def test_overflow_is_its_own_error(self, lam):
        starred = integrate_starred(make_parameter(1.0), GridSpec(0.05, 10.0))
        with pytest.raises(ValueError, match=re.escape(f"lam = {lam!r} overflows the group action at P=1")):
            rescale_profile(starred, make_parameter(1.0), lam)


class TestAutoStep:
    """``eta_inf="auto"`` with no step: halve from 0.05 while f''(0) moves (P <= 1)."""

    @staticmethod
    def searched_steps(monkeypatch, replace=None):
        steps = []
        real = transform.find_truncated_boundary

        def spy(param, step):
            steps.append(step)
            return (replace or real)(param, step)

        monkeypatch.setattr(transform, "find_truncated_boundary", spy)
        return steps

    @pytest.mark.parametrize("p", [0.6, 0.8, 1.0])
    def test_matches_benchmark_step(self, p, solve_cached):
        auto = solve_cached(p, eta_inf="auto")
        fixed = solve_cached(p, step=1e-3, eta_inf="auto")
        assert auto.truncated_boundary == fixed.truncated_boundary
        assert abs(auto.skin_friction - fixed.skin_friction) <= 5e-13
        assert auto.starred.spacing >= 0.0125

    def test_newtonian_lands_on_boyd(self, solve_cached):
        assert abs(solve_cached(1.0, eta_inf="auto").skin_friction - BOYD) <= 1e-13

    def test_stops_at_first_agreeing_pair_and_keeps_the_finer(self, monkeypatch):
        steps = self.searched_steps(monkeypatch)
        result = solve(make_parameter(1.0), eta_inf="auto")
        assert steps == [0.05, 0.025]
        assert result.starred.spacing == 0.025

    def test_pair_must_land_on_the_same_boundary(self, monkeypatch):
        # the coarsest level runs on to E = 20; at P = 1 its f''(0) is
        # within the budget of the next level's, which stops at E = 10
        def overrun(param, step):
            if step == 0.05:
                return integrate_starred(param, GridSpec(step, 20.0))
            return find_truncated_boundary(param, step)

        param = make_parameter(1.0)
        wall = [transform._wall_curvature(param, overrun(param, h)) for h in (0.05, 0.025)]
        assert abs(wall[0] - wall[1]) <= transform._AUTO_BUDGET
        steps = self.searched_steps(monkeypatch, overrun)
        result = solve(param, eta_inf="auto")
        assert steps == [0.05, 0.025, 0.0125]
        assert result.starred.spacing == 0.0125
        assert result.truncated_boundary == 10.0

    def test_unmet_budget_stops_at_the_floor(self, monkeypatch):
        monkeypatch.setattr(transform, "_AUTO_BUDGET", 0.0)
        steps = self.searched_steps(monkeypatch)
        result = solve(make_parameter(1.0), eta_inf="auto")
        assert steps == [0.05 / 2**k for k in range(7)]
        assert result.starred.spacing == 0.05 / 2**6 == 7.8125e-4
        assert result.truncated_boundary == 10.0

    def test_budget_is_relative_above_unit_wall_curvature(self, monkeypatch):
        # f''(0) ~ 7.29 at P = 0.01 rounds to ~3e-13 of itself, above an
        # absolute 1e-12; the floor step 7.8125e-4 gives 7.288358591084255
        # in about a minute
        steps = self.searched_steps(monkeypatch)
        result = solve(make_parameter(0.01), eta_inf="auto")
        assert steps == [0.05, 0.025, 0.0125]
        assert result.starred.spacing == 0.0125 and result.truncated_boundary == 2560.0
        assert abs(result.skin_friction - 7.288358591084255) <= 1e-12 * result.skin_friction

    @pytest.mark.parametrize("p", [1.2, 1.9])
    def test_shear_thickening_keeps_the_benchmark_step(self, p):
        auto = solve(make_parameter(p), eta_inf="auto")
        fixed = solve(make_parameter(p), step=1e-3, eta_inf="auto")
        assert auto.starred.spacing == pytest.approx(1e-3, rel=1e-12)
        assert auto.skin_friction == fixed.skin_friction
        assert auto.starred.values.tobytes() == fixed.starred.values.tobytes()
        assert auto.physical.values.tobytes() == fixed.physical.values.tobytes()

    def test_explicit_step_is_searched_once(self, monkeypatch):
        steps = self.searched_steps(monkeypatch)
        solve(make_parameter(1.0), step=0.01, eta_inf="auto")
        assert steps == [0.01]


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

    def test_default_step_is_the_benchmark_step(self, solve_cached):
        # one constant at every P; the small-index rows move by < 1.5e-13
        assert solve_cached(0.05).starred.spacing == pytest.approx(1e-3, rel=1e-12)
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

    @given(p=st.floats(min_value=1e-4, max_value=1.99).filter(lambda p: abs(2.0 * p - 1.0) >= model._SINGULAR_BAND))
    @settings(max_examples=40, deadline=None)
    def test_transform_properties(self, p):
        # f''(0) s^(3/(P+1)) = 1 loses digits near P = 0.5, where the
        # exponents 1/(1-delta) and 2 delta - 1 blow up, and two solves
        # agree bit for bit
        param = make_parameter(p)
        a, b = (solve(param, step=0.01) for _ in range(2))
        product = a.skin_friction * a.starred_slope_at_infinity ** (3.0 / (p + 1.0))
        assert abs(product - 1.0) <= 1e-12 * max(1.0, abs(2.0 * param.delta - 1.0))
        assert a.skin_friction == b.skin_friction
        assert a.starred.values.tobytes() == b.starred.values.tobytes()
        assert a.physical.values.tobytes() == b.physical.values.tobytes()

    @pytest.mark.parametrize("p", [0.4999, 0.5001])
    def test_solves_next_to_the_singular_band(self, p):
        result = solve(make_parameter(p), step=0.01)
        cross_check = mpmath.mpf(result.starred_slope_at_infinity) ** (-3 / (mpmath.mpf(p) + 1))
        assert result.skin_friction == pytest.approx(float(cross_check), rel=1e-11)
        assert abs(result.skin_friction - 0.33175) < 1e-4

    def test_wrong_lambda_exponent_not_reproduced(self, solve_cached):
        # the sign of the recovery exponent matters: 1/(delta-1) would give
        # ~3.01 at P = 1 instead of the classical 0.3320...
        result = solve_cached(1.0)
        wrong = result.starred_slope_at_infinity ** (1.0 / (result.param.delta - 1.0))
        wrong_skin = wrong ** (2.0 * result.param.delta - 1.0)
        assert abs(wrong_skin - 3.01) < 0.01
        assert abs(result.skin_friction - wrong_skin) > 1.0
