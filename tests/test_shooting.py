import math

import numpy as np
import pytest

from powerlaw_blasius import (
    COOPER_VERNER_8,
    BlowUpError,
    BracketError,
    ConvergenceError,
    CurvatureError,
    GridSpec,
    ShootingConfig,
    ShotDivergedError,
    integrate,
    make_parameter,
    matched_grid,
    shoot,
    solve_by_shooting,
)
from powerlaw_blasius import runge_kutta, shooting

from conftest import stepping

BLASIUS_SKIN = 0.332057336215
BENCH_GRID = GridSpec(0.001, 10.0)


class TestShoot:
    def test_residual_vanishes_at_known_root(self):
        assert abs(shoot(make_parameter(1.0), BLASIUS_SKIN, BENCH_GRID)) <= 1e-6

    def test_residual_sign_above_root(self):
        assert shoot(make_parameter(1.0), 1.0, BENCH_GRID) > 0.0

    def test_residual_sign_below_root(self):
        assert shoot(make_parameter(1.0), 0.1, BENCH_GRID) < 0.0

    def test_residual_monotone_in_guess(self):
        # monotonicity is what makes bracketing sound; coarse grid suffices,
        # and above P = 1 it holds across guesses whose stages undershoot
        # the touchdown deeply
        cases = [(0.8, GridSpec(0.01, 10.0), np.linspace(0.1, 1.0, 10))]
        cases += [(p, GridSpec(0.02, 10.0), np.geomspace(0.01, 10.0, 31)) for p in (1.5, 1.8, 1.99)]
        for p, grid, guesses in cases:
            residuals = [shoot(make_parameter(p), g, grid) for g in guesses]
            assert all(b > a for a, b in zip(residuals, residuals[1:]))

    def test_rejects_nonpositive_guess(self):
        with pytest.raises(ValueError, match="positive"):
            shoot(make_parameter(1.0), 0.0, BENCH_GRID)

    @pytest.mark.parametrize("guess", [math.inf, math.nan])
    def test_rejects_non_finite_guess(self, guess):
        with pytest.raises(ValueError, match=f"curvature guess must be positive and finite, got {guess!r}"):
            shoot(make_parameter(1.0), guess, GridSpec(0.01, 10.0))

    def test_divergent_shot_reports_guess(self):
        with pytest.raises(ShotDivergedError) as err:
            shoot(make_parameter(1.0), 1e300, GridSpec(0.01, 10.0))
        assert err.value.guess == 1e300

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.8])
    def test_rhs_overflow_reports_guess(self, p):
        # for P < 1 the first stage's (f'')**(2 - P) leaves the float range
        with pytest.raises(ShotDivergedError, match="guess 1e\\+300: rhs overflow") as err:
            shoot(make_parameter(p), 1e300, BENCH_GRID)
        assert err.value.guess == 1e300 and isinstance(err.value.__cause__, OverflowError)

    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_blow_up_past_first_call_reports_absolute_time(self, monkeypatch, p):
        # a shot reports the time stepping reports; at P = 1.5 the state
        # leaves the limit in the tail past the touchdown, which is filled
        monkeypatch.setattr(runge_kutta, "STATE_LIMIT", 10.0)
        param, grid = make_parameter(p), GridSpec(0.01, 20.0)
        with pytest.raises(BlowUpError, match="^state blow-up") as whole:
            integrate(stepping(param), COOPER_VERNER_8, grid, (0.0, 0.0, 1.0))
        with pytest.raises(ShotDivergedError) as err:
            shoot(param, 1.0, grid)
        assert err.value.__cause__.t == whole.value.t
        assert str(err.value) == f"shot diverged for initial curvature guess 1: {whole.value}"

    def test_stops_stepping_past_the_touchdown(self, solve_cached, stepped_rows):
        result = solve_cached(1.5)
        param, guess, grid = result.param, result.skin_friction, matched_grid(result)
        states = integrate(stepping(param), COOPER_VERNER_8, grid, (0.0, 0.0, guess))[1]
        touchdown = int(np.argmax(states[:, 2] <= 0.0))
        residuals = []
        assert stepped_rows(shooting, lambda: residuals.append(shoot(param, guess, grid))) == touchdown
        assert 0 < touchdown < grid.step_count and residuals == [float(states[-1, 1]) - 1.0]


class TestSolveByShooting:
    def test_newtonian_benchmark(self):
        config = ShootingConfig(0.1, 1.0, grid=BENCH_GRID, residual_tol=1e-10)
        root = solve_by_shooting(make_parameter(1.0), config)
        assert abs(root - BLASIUS_SKIN) <= 1e-8

    def test_shear_thinning_on_matched_domain(self, solve_cached):
        # the published value is only meaningful on the domain the
        # transform certified; the tail decays algebraically for P < 1
        result = solve_cached(0.3)
        config = ShootingConfig(0.05, 2.0, grid=matched_grid(result), residual_tol=1e-10)
        root = solve_by_shooting(result.param, config)
        assert abs(root - 0.391515) <= 5e-4
        assert abs(root - result.skin_friction) <= 1e-6

    def test_bracket_without_sign_change(self):
        config = ShootingConfig(1.0, 2.0, grid=BENCH_GRID, residual_tol=1e-10)
        with pytest.raises(BracketError, match="bracket invalid"):
            solve_by_shooting(make_parameter(1.0), config)

    def test_iteration_budget_enforced(self, monkeypatch):
        monkeypatch.setattr(shooting, "_MAX_ITERATIONS", 3)
        config = ShootingConfig(0.1, 1.0, grid=GridSpec(0.01, 10.0), residual_tol=1e-10)
        with pytest.raises(ConvergenceError, match="no convergence"):
            solve_by_shooting(make_parameter(1.0), config)

    def test_deterministic(self):
        config = ShootingConfig(0.1, 1.0, grid=GridSpec(0.01, 10.0), residual_tol=1e-10)
        a = solve_by_shooting(make_parameter(1.0), config)
        b = solve_by_shooting(make_parameter(1.0), config)
        assert a == b

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ShootingConfig(1.0, 0.5, grid=BENCH_GRID)
        with pytest.raises(ValueError):
            ShootingConfig(0.1, 1.0, grid=BENCH_GRID, residual_tol=0.0)
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="bracket_high"):
                ShootingConfig(0.1, bad, grid=BENCH_GRID)
            with pytest.raises(ValueError, match="residual_tol"):
                ShootingConfig(0.1, 1.0, grid=BENCH_GRID, residual_tol=bad)

    def test_divergent_bracket_end_reports_guess(self):
        config = ShootingConfig(0.1, 1e300, grid=BENCH_GRID, residual_tol=1e-10)
        with pytest.raises(ShotDivergedError) as err:
            solve_by_shooting(make_parameter(1.0), config)
        assert err.value.guess == 1e300

    def test_overflowing_bracket_end_reports_guess(self):
        config = ShootingConfig(0.05, 1e300, grid=BENCH_GRID, residual_tol=1e-10)
        with pytest.raises(ShotDivergedError, match="rhs overflow") as err:
            solve_by_shooting(make_parameter(0.3), config)
        assert err.value.guess == 1e300

    @pytest.mark.parametrize("p", [1.8, 1.99])
    def test_wide_bracket_above_newtonian(self, p):
        # a guess of 10 undershoots the touchdown by more than 1e-2 within
        # a stage; that is overshoot of the touchdown, not sign loss
        config = ShootingConfig(0.01, 10.0, grid=GridSpec(0.005, 10.0))
        root = solve_by_shooting(make_parameter(p), config)
        assert abs(shoot(make_parameter(p), root, config.grid)) < config.residual_tol

    def test_secant_on_a_bracket_end_falls_back_to_the_midpoint(self, monkeypatch):
        # a residual of -1e-300 at the lower end puts the secant root on
        # that end, outside the open bracket: the shot goes to the middle
        # of log f''(0), sqrt(0.1 * 2.5) = 0.5
        real, guesses = shooting.shoot, []

        def shoot_flat_low_end(param, guess, grid):
            guesses.append(guess)
            return -1e-300 if guess == 0.1 else real(param, guess, grid)

        monkeypatch.setattr(shooting, "shoot", shoot_flat_low_end)
        config = ShootingConfig(0.1, 2.5, grid=GridSpec(0.02, 10.0), residual_tol=1e-10)
        root = solve_by_shooting(make_parameter(1.0), config)
        assert guesses[2] == pytest.approx(0.5, rel=1e-15)
        assert abs(real(make_parameter(1.0), root, config.grid)) < 1e-10

    def test_curvature_sign_loss_reports_guess(self):
        # a guess so large that the first step overshoots into negative
        # curvature is a diverged shot too, not a bare CurvatureError
        config = ShootingConfig(0.05, 1e8, grid=GridSpec(1e-3, 20.0))
        with pytest.raises(ShotDivergedError, match="1e\\+08: negative curvature") as err:
            solve_by_shooting(make_parameter(1.0), config)
        assert err.value.guess == 1e8 and isinstance(err.value.__cause__, CurvatureError)


def _recorded_grids(monkeypatch):
    """List that collects the grid of every ``shooting.shoot`` call."""
    grids = []
    real = shooting.shoot

    def recording(param, guess, grid):
        grids.append(grid)
        return real(param, guess, grid)

    monkeypatch.setattr(shooting, "shoot", recording)
    return grids


def _half_shots(grids):
    """Shots at half the step of the first, coarse, recorded grid."""
    return sum(g.step_count == 2 * grids[0].step_count for g in grids)


def _unit_length(p, guess):
    """Physical length (P(P+1))**(1/3) guess**(-(2-P)/3) of a shot from curvature ``guess``."""
    return (p * (p + 1.0)) ** (1.0 / 3.0) * guess ** (-(2.0 - p) / 3.0)


def _coarse_step(monkeypatch, p, high, step):
    """Set the P <= 1 coarse grid of a bracket ending at ``high`` to ``step``."""
    monkeypatch.setattr(shooting, "_COARSE_KAPPA", step / _unit_length(p, high))


#: ``float.hex`` of the roots ``validate`` prints at its default P: bracket
#: (0.05, 2.5), tolerance 1e-10, on ``matched_grid(solve(P))``.  The
#: matched grid ends at the physical image of E, so these pin the last
#: bits of the transform's starred slope too.
_VALIDATE_ROOTS = {
    0.1: "0x1.a7281f4c8f9aap-1",
    0.2: "0x1.f61c30c3f646dp-2",
    0.3: "0x1.90e96626cda93p-2",
    0.4: "0x1.66ce1aa2ff572p-2",
    0.8: "0x1.4b4f0e388823ap-2",
    1.0: "0x1.5406d69e2306bp-2",
    1.5: "0x1.7587312e3a9cfp-2",
}


@pytest.mark.parametrize("p", sorted(_VALIDATE_ROOTS))
def test_validate_roots_are_pinned(solve_cached, p):
    result = solve_cached(p)
    config = ShootingConfig(0.05, 2.5, grid=matched_grid(result), residual_tol=1e-10)
    assert solve_by_shooting(result.param, config).hex() == _VALIDATE_ROOTS[p]


class TestTwoLevelRootFinder:
    @pytest.mark.parametrize("p", [0.1, 0.3, 1.0, 1.5])
    def test_root_certified_on_caller_grid(self, solve_cached, p):
        result = solve_cached(p)
        config = ShootingConfig(0.05, 2.5, grid=matched_grid(result), residual_tol=1e-10)
        root = solve_by_shooting(result.param, config)
        assert abs(shoot(result.param, root, config.grid)) < config.residual_tol

    def test_shear_thinning_finds_root_on_coarse_grid(self, solve_cached, monkeypatch):
        # at P <= 1 one shot at half the coarse step certifies the root,
        # so the caller's grid is never shot
        result = solve_cached(0.3)
        config = ShootingConfig(0.05, 2.5, grid=matched_grid(result), residual_tol=1e-10)
        grids = _recorded_grids(monkeypatch)
        root = solve_by_shooting(result.param, config)
        assert config.grid not in grids
        assert all(g.endpoint == config.grid.endpoint and g.step > 0.01 for g in grids[:-1])
        assert _half_shots(grids) == 1 and grids[-1].step_count == 2 * grids[0].step_count
        assert abs(shoot(result.param, root, config.grid)) < config.residual_tol

    @pytest.mark.parametrize("p", [1.2, 1.5, 1.9])
    def test_shear_thickening_finds_root_on_coarse_grid(self, solve_cached, monkeypatch, p):
        # the touchdown breaks the asymptotic error law, so two coarse
        # grids could agree by accident: no shot at half the coarse step
        result = solve_cached(p)
        config = ShootingConfig(0.05, 2.5, grid=matched_grid(result), residual_tol=1e-10)
        grids = _recorded_grids(monkeypatch)
        root = solve_by_shooting(result.param, config)
        assert any(g != config.grid for g in grids)
        assert _half_shots(grids) == 0 and config.grid in grids
        assert abs(shoot(result.param, root, config.grid)) < config.residual_tol

    def test_budget_counts_shots_on_both_grids(self, monkeypatch):
        # a budget of the coarse shots alone refuses the shot at half the
        # coarse step that would certify the root
        config = ShootingConfig(0.1, 1.0, grid=GridSpec(0.01, 10.0), residual_tol=1e-10)
        grids = _recorded_grids(monkeypatch)
        solve_by_shooting(make_parameter(1.0), config)
        assert len(set(grids)) == 2 and _half_shots(grids) == 1
        monkeypatch.setattr(shooting, "_MAX_ITERATIONS", sum(g == grids[0] for g in grids))
        with pytest.raises(ConvergenceError, match="no convergence"):
            solve_by_shooting(make_parameter(1.0), config)

    @pytest.mark.parametrize("tol", [1e-10, 1e-13])
    @pytest.mark.parametrize("p, bracket", [(0.3, (0.05, 2.5)), (0.3, (0.01, 10.0)), (0.6, (0.05, 2.5))])
    def test_caller_grid_goes_on_from_a_missed_coarse_root(self, solve_cached, monkeypatch, p, bracket, tol):
        # on a coarse step of 0.25 the coarse root is ~1e-11 off on the
        # caller's grid, so at 1e-13 the first shot there misses and the
        # loop goes on inside the coarse bracket; one more shot is what the
        # secant step through the coarse slope needed too.  At 1e-10 the
        # shot at half the coarse step certifies the coarse root instead
        _coarse_step(monkeypatch, p, bracket[1], 0.25)
        result = solve_cached(p)
        config = ShootingConfig(*bracket, grid=matched_grid(result, target_step=0.01), residual_tol=tol)
        grids = _recorded_grids(monkeypatch)
        root = solve_by_shooting(result.param, config)
        assert abs(shoot(result.param, root, config.grid)) < tol
        assert config.bracket_low < root < config.bracket_high
        assert sum(g == config.grid for g in grids) == (2 if tol == 1e-13 else 0)
        monkeypatch.setattr(shooting, "_MAX_ITERATIONS", len(grids) - 1)
        with pytest.raises(ConvergenceError, match="no convergence"):
            solve_by_shooting(result.param, config)

    def test_caller_grid_root_outside_the_last_coarse_bracket(self, solve_cached, monkeypatch):
        # on a coarse step of 0.25 at P = 0.6 the caller-grid root lies
        # beyond the last coarse bracket; the loop goes on in the first
        _coarse_step(monkeypatch, 0.6, 10.0, 0.25)
        result = solve_cached(0.6)
        config = ShootingConfig(0.01, 10.0, grid=matched_grid(result, target_step=0.01), residual_tol=1e-13)
        root = solve_by_shooting(result.param, config)
        assert abs(shoot(result.param, root, config.grid)) < config.residual_tol

    @pytest.mark.parametrize("p, coarse_step", [(1.5, shooting._COARSE_STEP), (0.3, 0.25)])
    def test_caller_grid_root_past_the_config_bracket(self, solve_cached, monkeypatch, p, coarse_step):
        # one bracket end sits halfway between the coarse root and the
        # caller-grid root (2.4e-7 apart relative at P = 1.5, 3.6e-11 at
        # P = 0.3), so only the coarse root lies inside; the chord steps on
        # the caller's grid leave the bracket by that offset
        monkeypatch.setattr(shooting, "_COARSE_STEP", coarse_step)
        _coarse_step(monkeypatch, p, 2.5, coarse_step)
        result = solve_cached(p)
        grid = matched_grid(result)
        grids = _recorded_grids(monkeypatch)
        caller = solve_by_shooting(result.param, ShootingConfig(0.05, 2.5, grid=grid, residual_tol=1e-13))
        coarse = solve_by_shooting(result.param, ShootingConfig(0.05, 2.5, grid=grids[0], residual_tol=1e-13))
        end = 0.5 * (coarse + caller)
        config = ShootingConfig(*((0.05, end) if coarse < caller else (end, 2.5)), grid=grid, residual_tol=1e-13)
        grids.clear()
        root = solve_by_shooting(result.param, config)
        assert not config.bracket_low < root < config.bracket_high
        assert abs(shoot(result.param, root, grid)) < config.residual_tol
        assert sum(g == grid for g in grids) <= 3

    def test_grid_coarser_than_search_grid_used_directly(self, monkeypatch):
        # the coarse step is 0.1008 here, kappa of the length 2**(1/3) of the
        # shot from the bracket's upper end f''(0) = 1
        config = ShootingConfig(0.1, 1.0, grid=GridSpec(0.125, 10.0), residual_tol=1e-10)
        grids = _recorded_grids(monkeypatch)
        root = solve_by_shooting(make_parameter(1.0), config)
        assert grids and all(g == config.grid for g in grids)
        assert abs(root - BLASIUS_SKIN) <= 1e-8


class TestStepDoubling:
    """At P <= 1 a shot at half the coarse step certifies the coarse root."""

    # P = 0.2 at 1e-12: the coarse root's residual is 0.96e-12, above the
    # 0.32e-12 the rounding allowance for 3,067 caller-grid steps leaves,
    # so the caller's grid is shot
    @pytest.mark.parametrize("tol, target_step", [(1e-10, 1e-3), (1e-12, 5e-3)])
    @pytest.mark.parametrize("p", [0.05, 0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9, 1.0])
    def test_root_meets_tolerance_on_caller_grid(self, solve_cached, monkeypatch, p, tol, target_step):
        result = solve_cached(p)
        config = ShootingConfig(0.05, 2.5, grid=matched_grid(result, target_step=target_step), residual_tol=tol)
        grids = _recorded_grids(monkeypatch)
        root = solve_by_shooting(result.param, config)
        assert _half_shots(grids) == 1
        assert (config.grid in grids) == ((p, tol) == (0.2, 1e-12))
        assert abs(shoot(result.param, root, config.grid)) < tol

    def test_tolerance_the_pair_cannot_meet_falls_back_to_caller_grid(self, solve_cached, monkeypatch):
        # on a coarse step of 0.25 the two coarse grids differ by ~1e-11
        _coarse_step(monkeypatch, 0.3, 2.5, 0.25)
        result = solve_cached(0.3)
        config = ShootingConfig(0.05, 2.5, grid=matched_grid(result, target_step=0.01), residual_tol=1e-11)
        grids = _recorded_grids(monkeypatch)
        root = solve_by_shooting(result.param, config)
        assert _half_shots(grids) == 1 and config.grid in grids
        assert abs(shoot(result.param, root, config.grid)) < config.residual_tol

    def test_tolerance_within_caller_grid_rounding_takes_no_half_shot(self, solve_cached, monkeypatch):
        # the coarse root for 5e-14 has |r_half| + |r - r_half| = 6.6e-15 but
        # a caller-grid residual of -5.7e-14, rounding over 14.6k steps that
        # the pair does not see; their allowance, 3.2e-12, exceeds the tolerance
        result = solve_cached(0.98)
        config = ShootingConfig(0.01, 10.0, grid=matched_grid(result), residual_tol=5e-14)
        grids = _recorded_grids(monkeypatch)
        root = solve_by_shooting(result.param, config)
        assert _half_shots(grids) == 0 and config.grid in grids
        assert abs(shoot(result.param, root, config.grid)) < config.residual_tol

    @pytest.mark.parametrize("target_step", [0.015, 0.01])
    def test_caller_grid_between_coarse_and_half_step_takes_no_half_shot(self, solve_cached, monkeypatch, target_step):
        # a caller grid no finer than half the coarse step, here 0.02, is
        # as cheap to shoot
        _coarse_step(monkeypatch, 0.3, 2.5, 0.02)
        result = solve_cached(0.3)
        config = ShootingConfig(0.05, 2.5, grid=matched_grid(result, target_step=target_step), residual_tol=1e-10)
        grids = _recorded_grids(monkeypatch)
        root = solve_by_shooting(result.param, config)
        assert grids[0].step_count < config.grid.step_count < 2 * grids[0].step_count
        assert config.grid in grids and all(g in (grids[0], config.grid) for g in grids)
        assert abs(shoot(result.param, root, config.grid)) < config.residual_tol


class TestCoarseGrid:
    """At P <= 1 the coarse step is ``_COARSE_KAPPA`` of the bracket-end shot's length."""

    @pytest.mark.parametrize("high", [2.5, 10.0])
    @pytest.mark.parametrize("p", [0.3, 1.0])
    def test_step_count_follows_the_bracket_end_length(self, solve_cached, monkeypatch, p, high):
        result = solve_cached(p)
        config = ShootingConfig(0.05, high, grid=matched_grid(result), residual_tol=1e-10)
        grids = _recorded_grids(monkeypatch)
        solve_by_shooting(result.param, config)
        coarse = shooting._COARSE_KAPPA * _unit_length(p, high)
        assert grids[0].step_count == round(config.grid.endpoint / coarse)
        assert grids[0].endpoint == config.grid.endpoint and grids[0].step_count < config.grid.step_count

    @pytest.mark.parametrize("eta_inf", [10.0, 160.0])
    def test_bracket_end_keeps_its_curvature_sign_at_twice_kappa(self, solve_cached, eta_inf):
        # the shot from f''(0) = 2.5 at P = 1 loses its curvature sign
        # from kappa = 0.178 of its length, on E = 14.4 and E = 231 alike,
        # so the coarse grid keeps a margin of two
        param, high = make_parameter(1.0), 2.5
        endpoint = matched_grid(solve_cached(1.0, eta_inf=eta_inf)).endpoint

        def grid_at(kappa):
            return GridSpec(endpoint / round(endpoint / (kappa * _unit_length(1.0, high))), endpoint)

        assert shoot(param, high, grid_at(2.0 * shooting._COARSE_KAPPA)) > 0.0
        with pytest.raises(ShotDivergedError, match="negative curvature"):
            shoot(param, high, grid_at(0.2))

    @pytest.mark.parametrize("p", [0.04, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0])
    def test_root_agrees_with_the_fixed_step_grid(self, solve_cached, monkeypatch, p):
        # the root is certified on the caller's grid and within 1e-13 of
        # the root found on a coarse step of 0.02 (4.8e-14 at P = 0.04)
        result = solve_cached(p)
        config = ShootingConfig(0.05, 2.5, grid=matched_grid(result), residual_tol=1e-10)
        root = solve_by_shooting(result.param, config)
        assert abs(shoot(result.param, root, config.grid)) < config.residual_tol
        _coarse_step(monkeypatch, p, 2.5, 0.02)
        assert root == pytest.approx(solve_by_shooting(result.param, config), rel=1e-13, abs=0.0)


class TestMatchedGrid:
    def test_endpoint_and_step(self, solve_cached):
        result = solve_cached(0.3)
        grid = matched_grid(result)
        assert grid.endpoint == result.physical.abscissae[-1]
        assert grid.step == pytest.approx(1e-3, rel=1e-3)

    @pytest.mark.parametrize("target_step", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_target_step(self, solve_cached, target_step):
        with pytest.raises(ValueError, match="target_step must be positive and finite"):
            matched_grid(solve_cached(1.0), target_step=target_step)
