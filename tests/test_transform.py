import hashlib
import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
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

from conftest import stepping

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
        # the march's last row is the profile's
        param, grid, real = make_parameter(0.3), GridSpec(0.01, 10.0), transform.integrate
        march = transform._march_grid(param, grid)

        def undershoot(rhs, tableau, grid, y0):
            eta, rows = real(rhs, tableau, grid, y0)
            if grid.step_count == march.step_count:
                rows[-1, 2] = -1e-11
            return eta, rows

        monkeypatch.setattr(transform, "integrate", undershoot)
        with pytest.raises(CurvatureError, match="sign loss at row 1000"):
            integrate_starred(param, grid)

    def test_explicit_grid(self):
        profile = integrate_starred(make_parameter(1.0), GridSpec(0.01, 10.0))
        assert profile.frame == "starred"
        assert profile.abscissae.size == 1001
        assert abs(profile.df[-1] - 2.08540) < 5e-4


def _one_call(param, grid):
    """Starred states of one ``integrate`` call over the grid that steps every row, projected."""
    states = integrate(stepping(param), COOPER_VERNER_8, grid, (0.0, 0.0, 1.0))[1]
    return model.project_curvature(param, states)


def _one_call_rows(param, step, stop):
    """Unprojected starred rows of one ``integrate`` call from the wall to row ``stop`` that steps every row."""
    return integrate(stepping(param), COOPER_VERNER_8, GridSpec(step, stop * step), (0.0, 0.0, 1.0))[1]


def _switch(param, grid):
    """(k, K): the last row of the march that is sampled onto ``grid``, and its row there.

    At P > 1 that is the row before the first with f''**(P-1) < 0.1,
    rounded down to a row on a node of ``grid``; the caller's grid is
    stepped from row K.  Else, and with no such row, the last row.
    """
    march = transform._march_grid(param, grid)
    n, N = march.step_count, grid.step_count
    low = _one_call(param, march)[:, 2] ** (param.p - 1.0) < 0.1
    if param.p <= 1.0 or n == N or not low.any():
        return n, N
    d = n // math.gcd(n, N)
    k = (int(low.argmax()) - 1) // d * d
    return k, k * N // n


class TestMarch:
    @pytest.mark.parametrize("step", [1e-3, 0.01])
    @pytest.mark.parametrize("p", [0.05, 0.3, 0.9, 1.0, 1.1, 1.5, 1.7573, 1.7765, 1.84375, 1.9, 1.99])
    def test_matches_one_integrate_call(self, p, step):
        # past the P > 1 touchdown the rows are filled, not stepped, and
        # must be what stepping gives; at step 0.01 from
        # P = 1.757 up a stage undershoots the touchdown by more than 1e-2.
        # A coarser march (P <= 1 at step 1/m, P > 1 at 0.01 from step
        # 1e-3) is sampled, and its rows on nodes of the profile are the
        # profile's, at P > 1 up to the row the caller's grid is stepped
        # from (TestTail).  At P = 0.05, m = 134 marches step 0.01 as given
        param, grid = make_parameter(p), GridSpec(step, 10.0)
        march = transform._march_grid(param, grid)
        n, N = march.step_count, grid.step_count
        common, (k, K) = math.gcd(n, N), _switch(param, grid)
        assert (n < N) == (step < 0.01 or 0.05 < p <= 1.0)
        assert k < n if p > 1.0 and n < N else k == n
        head = integrate_starred(param, grid).values[: K + 1 : N // common]
        assert head.tobytes() == _one_call(param, march)[: k + 1 : n // common].tobytes()

    @pytest.mark.parametrize("p", [0.8, 1.5])
    @pytest.mark.parametrize("n", [10, 521, 522, 1024, 1025, 1033, 1034, 1536])
    def test_any_step_count(self, p, n):
        # on the march's own step (1/45 at P = 0.8, 0.01 at P = 1.5) the
        # grid is marched as given, over any step count
        param = make_parameter(p)
        step = 0.01 if p > 1.0 else 1.0 / transform._march_rate(param)
        grid = GridSpec(step, n * step)
        assert transform._march_grid(param, grid) is grid
        assert integrate_starred(param, grid).values.tobytes() == _one_call(param, grid).tobytes()

    @pytest.mark.parametrize("p", [0.005, 1e-3, 1e-7, 1e-9])
    def test_small_index_marches_the_callers_grid(self, p):
        # the march step follows the starred unit length (P(P+1))**(1/3):
        # 1/292 at P = 0.005 and 1/500 at 1e-3 are sampled, and f''(0) is
        # within 1e-13 of a march on the caller's grid; at P = 1e-7 (step
        # 1/10773) and 1e-9 the caller's grid is marched.  A fixed march
        # at 0.01 gave f''(0) = 73923.99 against 73911.37 at P = 1e-6, and
        # P = 1e-7 raised CurvatureError
        param, grid = make_parameter(p), GridSpec(1e-3, 10.0)
        marched = _one_call(param, grid)
        result = solve(param, step=1e-3, eta_inf=10.0)
        assert (transform._march_grid(param, grid) is grid) == (p < 1e-3)
        assert abs(result.skin_friction / marched[-1, 1] ** (-3.0 / (p + 1.0)) - 1.0) <= 1e-13

    def test_stepping_stops_past_the_touchdown(self, stepped_rows):
        # the step from the first row with f'' <= 0 is the first one not
        # taken, by the march at 0.01 and by the tail on the caller's grid
        param, grid = make_parameter(1.5), GridSpec(1e-3, 10.0)
        march = _one_call(param, transform._march_grid(param, grid))
        profile = integrate_starred(param, grid)
        touchdown, K = int(np.argmax(profile.d2f == 0.0)), _switch(param, grid)[1]
        stepped = stepped_rows(transform, lambda: integrate_starred(param, grid))
        assert stepped == int(np.argmax(march[:, 2] == 0.0)) + touchdown - K == 515
        assert touchdown == 3677

    @pytest.mark.parametrize("step", [1e-3, 0.01])
    @pytest.mark.parametrize("p", [0.8, 1.5])
    @pytest.mark.parametrize("eta", [3.0, 5.12, 5.0], ids=["mid-block", "block-edge", "past-touchdown"])
    def test_resumes_with_the_bits_of_one_call(self, p, step, eta):
        # the march extends rows[:r + 1] to the stop as one call from the
        # wall stores them, from a row before the P = 1.5 touchdown
        # (eta* ~ 3.68) or past it, where the resumed call starts on a
        # frozen row and fills every row it adds
        param, stop, r = make_parameter(p), round(10.0 / step), round(eta / step)
        rows = _one_call_rows(param, step, stop)
        assert p != 1.5 or eta == 3.0 or rows[r, 2] <= 0.0
        resumed = transform._march(param, step, stop, rows[: r + 1].copy())
        assert resumed.tobytes() == rows.tobytes()

    def test_blow_up_in_the_resumed_part_reports_the_one_call_time(self, monkeypatch):
        # rows up to eta = 5 stay inside the limit; the state leaves it at 7.72
        monkeypatch.setattr(runge_kutta, "STATE_LIMIT", 10.0)
        param = make_parameter(0.3)
        with pytest.raises(BlowUpError) as whole:
            integrate(model.ivp_rhs(param), COOPER_VERNER_8, GridSpec(0.01, 10.0), (0.0, 0.0, 1.0))
        rows = _one_call_rows(param, 0.01, 500)
        with pytest.raises(BlowUpError) as err:
            transform._march(param, 0.01, 1000, rows)
        assert whole.value.t == pytest.approx(7.72)
        assert (type(err.value), str(err.value), err.value.t) == (type(whole.value), str(whole.value), whole.value.t)


#: P <= 1 grids the march at step 1/m fills: the benchmark grid, step
#: 1e-3 on E = 40, and step 0.0032 on E = 20, whose nodes meet the
#: march's (m = 45) only every 225th
_SAMPLED = [(0.001, 1e-3, 10.0), (0.01, 1e-3, 10.0), (0.05, 1e-3, 10.0), (0.3, 1e-3, 10.0), (0.5, 1e-3, 10.0)]
_SAMPLED += [(1.0, 1e-3, 10.0), (0.99, 1e-3, 40.0), (0.8, 0.0032, 20.0)]


class TestSample:
    """A P <= 1 grid finer than the march's step 1/m is filled by quintic Hermite interpolation from the march."""

    @pytest.mark.parametrize("p, step, eta_inf", _SAMPLED)
    def test_within_bound_of_one_call_on_the_callers_grid(self, p, step, eta_inf):
        # worst 2.7e-12, in f at P = 0.99 on E = 40
        param, grid = make_parameter(p), GridSpec(step, eta_inf)
        sampled, marched = integrate_starred(param, grid).values, _one_call(param, grid)
        for m in range(3):
            assert np.abs(sampled[:, m] - marched[:, m]).max() <= 1e-11 * max(1.0, np.abs(marched[:, m]).max())

    @pytest.mark.parametrize("p, step, eta_inf", _SAMPLED)
    def test_march_nodes_keep_the_marched_bits(self, p, step, eta_inf):
        # the rows on march nodes, the last one included, are the march's
        param, grid = make_parameter(p), GridSpec(step, eta_inf)
        march = transform._march_grid(param, grid)
        common = math.gcd(grid.step_count, march.step_count)
        sampled = integrate_starred(param, grid).values[:: grid.step_count // common]
        assert march.step_count < grid.step_count and len(sampled) == common + 1
        assert sampled.tobytes() == _one_call(param, march)[:: march.step_count // common].tobytes()

    @pytest.mark.parametrize(
        "p, digest",
        [
            (1.1, "b69647645ae24074be3cb33821f7feed094b30e0655a4b1204be89c9db8672d2"),
            (1.5, "4f23509d64dfe05aa8efa5fee9b8127df1af7d3352c1cf0af02c6fad36f325a4"),
            (1.9, "bfd5035aad1708ba515b786079efaacaa47503ecff109535e79e2c54bd942558"),
        ],
    )
    def test_shear_thickening_bytes_are_pinned(self, p, digest):
        # sha256 of the starred and physical rows, recorded when the tail
        # on the caller's grid came
        result = solve(make_parameter(p), step=1e-3, eta_inf=10.0)
        assert hashlib.sha256(result.starred.values.tobytes() + result.physical.values.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "p, digest",
        [
            (0.3, "ec2c784c15040580c1de910beba61c657107438108961ab281b44c3f2e562908"),
            (1.0, "de0f78364b3048ac8217ab0deb5582bd3c240e5e103fac38175461754f448f31"),
        ],
    )
    def test_sampled_bytes_are_pinned(self, p, digest):
        # sha256 of the starred rows on the benchmark grid, recorded when
        # the march step became 1/m (m = 69 at P = 0.3, 40 at P = 1)
        assert hashlib.sha256(solve(make_parameter(p), step=1e-3, eta_inf=10.0).starred.values.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("p", [0.01, 0.05, 0.3, 0.5, 0.8, 0.95, 1.0])
    @pytest.mark.parametrize("step, eta_inf", [(1e-3, 10.0), (0.0032, 20.0), (1e-3, 40.0)])
    def test_sampled_curvature_is_not_negative(self, p, step, eta_inf):
        # before the projection: at P = 1 on E = 40 the march's f'' falls to 1e-323
        param, grid = make_parameter(p), GridSpec(step, eta_inf)
        march = transform._march_grid(param, grid)
        states = integrate(model.ivp_rhs(param), COOPER_VERNER_8, march, (0.0, 0.0, 1.0))[1]
        sampled = transform._sample(param, states, march.step, np.empty((grid.step_count + 1, 3)))
        assert sampled[:, 2].min() >= 0.0

    @pytest.mark.parametrize("p, rows", [(0.05, 1340), (0.3, 690), (1.0, 400), (1.5, 515)])
    def test_stepped_rows_on_the_benchmark_grid(self, p, rows, stepped_rows):
        # P <= 1 marches E m rows: m = ceil(1 / (0.02 (P(P+1))**(1/3))) is
        # 134, 69 and 40, where a march at 0.01 stepped 1,000 at every P.
        # P = 1.5 marches 368 rows to its touchdown at 0.01 and steps 147
        # on the caller's grid from eta* = 3.53 to it, where one march on
        # the caller's grid stepped 3,677
        assert stepped_rows(transform, lambda: solve(make_parameter(p), step=1e-3, eta_inf=10.0)) == rows

    def test_peak_memory_of_a_million_rows(self):
        # a march on the caller's grid peaked at 76.3 MiB (Python 3.11,
        # numpy 2.4) and the sampled solve at 69.6 MiB, while it rescales.
        # The starred profile alone peaked at 61.2 MiB with an interval
        # index and theta per node, and at 39.1 MiB with one period of them
        param = make_parameter(0.3)
        solve(param, step=1e-3, eta_inf=10.0)
        tracemalloc.start()
        try:
            result = solve(param, step=1e-5, eta_inf=10.0)
            held, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            integrate_starred(param, GridSpec(1e-5, 10.0))
            starred_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert result.starred.values.shape == (1_000_001, 3)
        assert peak < 76 * 2**20 and starred_peak < 45 * 2**20


#: P > 1 on the benchmark grid and on step 0.0032, E = 20, whose nodes
#: meet the march's every 25th and whose tail starts on a multiple of 8
#: march rows.  At P = 1.001 the touchdown lies past both boundaries.
_SHEAR_THICKENING = [1.001, 1.05, 1.1, 1.5, 1.7765, 1.9, 1.99]
_TAIL_GRIDS = [(1e-3, 10.0), (0.0032, 20.0)]


class TestTail:
    """At P > 1 the march at 0.01 is sampled up to the touchdown's approach; the caller's grid is stepped from there."""

    @pytest.mark.parametrize("step, eta_inf", _TAIL_GRIDS)
    @pytest.mark.parametrize("p", _SHEAR_THICKENING)
    def test_within_bound_of_one_call_on_the_callers_grid(self, p, step, eta_inf):
        # each value against max(1, |value|): worst 9.2e-13, in f'' at
        # P = 1.7765 on the benchmark grid; f''(0) worst 1.4e-14, at P = 1.001
        param = make_parameter(p)
        marched = _one_call(param, GridSpec(step, eta_inf))
        result = solve(param, step=step, eta_inf=eta_inf)
        assert (np.abs(result.starred.values - marched) <= 1e-11 * np.maximum(1.0, np.abs(marched))).all()
        assert abs(result.skin_friction - marched[-1, 1] ** (-3.0 / (p + 1.0))) <= 1e-13

    @pytest.mark.parametrize("step, eta_inf", _TAIL_GRIDS)
    @pytest.mark.parametrize("p", _SHEAR_THICKENING)
    def test_head_keeps_the_marched_bits(self, p, step, eta_inf):
        param, grid = make_parameter(p), GridSpec(step, eta_inf)
        march = transform._march_grid(param, grid)
        (k, K), common = _switch(param, grid), math.gcd(grid.step_count, march.step_count)
        d, D = march.step_count // common, grid.step_count // common
        assert 10 <= K and k % d == 0
        head = integrate_starred(param, grid).values[: K + 1 : D]
        assert head.tobytes() == _one_call(param, march)[: k + 1 : d].tobytes()

    @pytest.mark.parametrize("step, eta_inf", _TAIL_GRIDS)
    @pytest.mark.parametrize("p", _SHEAR_THICKENING[1:])
    def test_tail_is_one_call_from_the_switch(self, p, step, eta_inf):
        # the rows from row K on are one integrate call on the caller's
        # grid from row K, through the touchdown
        param, grid = make_parameter(p), GridSpec(step, eta_inf)
        profile, K = integrate_starred(param, grid), _switch(param, grid)[1]
        tail = GridSpec(step, (grid.step_count - K) * step)
        rows = integrate(stepping(param), COOPER_VERNER_8, tail, profile.values[K])[1]
        assert profile.d2f[K] > 0.0 and profile.d2f[-1] == 0.0
        assert profile.values[K:].tobytes() == model.project_curvature(param, rows).tobytes()

    @pytest.mark.parametrize("p, eta_inf", [(1.001, 10.0), (1.1, 5.0)])
    def test_no_touchdown_is_sampled_whole(self, p, eta_inf, stepped_rows):
        # the march keeps f''**(P-1) >= 0.1 to E: its every row is sampled
        param, grid = make_parameter(p), GridSpec(1e-3, eta_inf)
        march = transform._march_grid(param, grid)
        assert _switch(param, grid) == (march.step_count, grid.step_count)
        sampled = []
        assert stepped_rows(transform, lambda: sampled.append(integrate_starred(param, grid))) == march.step_count
        assert sampled[0].values[::10].tobytes() == _one_call(param, march).tobytes()

    def test_tail_spans_at_least_ten_steps(self):
        # E = 3.56 at step 0.005 ends two march rows past the first with
        # v < 0.1 (row 354 of 356), so the tail would span 8 steps; it
        # starts from row 702 of 712 instead
        param, grid = make_parameter(1.5), GridSpec(0.005, 3.56)
        profile = integrate_starred(param, grid)
        rows = integrate(stepping(param), COOPER_VERNER_8, GridSpec(0.005, 10 * 0.005), profile.values[702])[1]
        assert profile.values[702:].tobytes() == model.project_curvature(param, rows).tobytes()
        marched = _one_call(param, grid)
        assert np.abs(profile.values - marched).max() <= 1e-11

    def test_grid_that_meets_the_march_only_at_the_ends_is_marched_from_the_wall(self):
        # 10001 steps share no node with the march's 1000 but the wall and
        # E, so no head can be sampled: k = 0
        param, grid = make_parameter(1.5), GridSpec(10.0 / 10001, 10.0)
        assert integrate_starred(param, grid).values.tobytes() == _one_call(param, grid).tobytes()


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

    @pytest.mark.parametrize(
        "eta, values",
        [
            ([0.0, 1.0, 2.0], [[0.0, 0.0, 1.0], [0.5, 1.0, math.nan], [1.0, 1.0, 0.0]]),
            ([0.0, 1.0, 2.0], [[0.0, 0.0, 1.0], [math.inf, 1.0, 0.5], [1.0, 1.0, 0.0]]),
            ([0.0, 1.0], [[0.0, 0.0, 1.0], [1.0, -math.inf, 0.5]]),
            ([0.0, math.inf], [[0.0, 0.0, 1.0]] * 2),
        ],
        ids=["nan-curvature", "inf-f", "inf-slope", "inf-abscissa"],
    )
    def test_rejects_non_finite(self, eta, values):
        # NaN is not < 0, so a sign test alone lets it through to
        # rescale_profile and the physical frame
        with pytest.raises(ValueError, match="finite"):
            SolutionProfile("starred", eta, values)


class TestFindTruncatedBoundary:
    def test_newtonian_lands_on_benchmark_boundary(self):
        assert find_truncated_boundary(make_parameter(1.0), 0.001).abscissae[-1] == 10.0

    def test_shear_thinning_boundary_regression(self, solve_cached):
        # algebraic curvature decay pushes the plateau far out; value is a
        # frozen regression constant from running the doubling procedure,
        # the same at step 1e-3 as at the automatic step 0.025
        result = solve_cached(0.3, eta_inf="auto")
        assert (result.starred.spacing, result.truncated_boundary) == (0.025, 640.0)

    @pytest.mark.parametrize(
        "p, step", [(0.8, 0.01), (1.5, 0.01), (1.0, 0.0032), (1.0, 1e-3), (1.1, 1e-3), (1.5, 1e-3), (1.9, 1e-3)]
    )
    def test_profile_is_the_starred_integration(self, p, step):
        # the march across the candidate stops reproduces one integration
        # from the wall bit for bit; step 0.0032 does not divide the first
        # candidate 5, so it pins counting stop rows from the wall.  At
        # P = 1 both steps are sampled from the same march at 1/40, and
        # at P > 1 step 1e-3 is stepped from the same row on
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

    @pytest.mark.parametrize(
        "p, digest",
        [
            (0.6, "aaae6cb0b653bfb3c36563986a26213bc0395c07df641f3b3efac33858375e63"),
            (1.0, "ad7d4cacf69f2c1fdd56604a04aad05bf21cb440b16e356bf748158665c11c31"),
            (1.3, "3267307927f1ed5e88e2d16e7ed9556a333d719113b0abbc03da1ffeebbf00a6"),
            (1.9, "cfaaa34189b6f35e0d715eff6beed07a7e3defe061ef638746a23b971deefa1c"),
        ],
    )
    def test_default_auto_bytes_are_pinned(self, p, digest):
        # sha256 of the starred and physical rows at the default step: at
        # P <= 1 the search marches its step 0.025 as given, since the
        # march step is at most 0.025 there; recorded at the fixed 0.01 march
        result = solve(make_parameter(p), eta_inf="auto")
        assert hashlib.sha256(result.starred.values.tobytes() + result.physical.values.tobytes()).hexdigest() == digest

    def test_unresolved_search_names_the_unit_length(self):
        # the search's step 0.025 is 54 times 0.02 of the unit length at
        # P = 1e-10, and its march loses the curvature sign before 5
        with pytest.raises(CurvatureError, match=re.escape("; a grid of 538610 steps on [0, 5] (step 9.28315")):
            solve(make_parameter(1e-10), eta_inf="auto")

    def test_touchdown_carries_across_search_stops(self, stepped_rows):
        # at P = 1.1 the touchdown (row ~5780) lies past the first candidate
        # 5, so the search marches on to 10 and must stop stepping there,
        # and step on the caller's grid as the fixed solve does
        param, direct, searched = make_parameter(1.1), [], []
        fixed = stepped_rows(transform, lambda: direct.append(integrate_starred(param, GridSpec(1e-3, 10.0))))
        touchdown = int(np.argmax(direct[0].d2f == 0.0))
        assert stepped_rows(transform, lambda: searched.append(find_truncated_boundary(param, 1e-3))) == fixed == 815
        assert 5000 < touchdown and searched[0].abscissae[-1] == 10.0
        assert searched[0].values.tobytes() == direct[0].values.tobytes()

    def test_blow_up_reports_time_from_the_wall(self, monkeypatch):
        # the state leaves the limit between the candidates 5 and 10; the
        # search must report the time one call from the wall reports
        # on the march grid (step 1/69)
        monkeypatch.setattr(runge_kutta, "STATE_LIMIT", 10.0)
        param = make_parameter(0.3)
        march = transform._march_grid(param, GridSpec(0.01, 10.0))
        with pytest.raises(BlowUpError) as whole:
            integrate(model.ivp_rhs(param), COOPER_VERNER_8, march, (0.0, 0.0, 1.0))
        with pytest.raises(BlowUpError) as err:
            find_truncated_boundary(param, 0.01)
        assert march.step_count == 690 and whole.value.t == pytest.approx(533 / 69)
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


class TestCandidatesTheStepDivides:
    """``find_truncated_boundary`` tests only the candidates ``GridSpec`` can end a grid on."""

    @pytest.mark.parametrize("p, boundary", [(1.2, 10.0), (1.5, 10.0), (0.8, 20.0)])
    def test_step_that_misses_five_lands_on_a_later_candidate(self, p, boundary):
        # 5 / 0.0032 = 1562.5 steps: the P > 1 touchdown lies before 5, but
        # the first candidate GridSpec can end a grid on is 10
        param = make_parameter(p)
        searched = solve(param, step=0.0032, eta_inf="auto")
        fixed = solve(param, step=0.0032, eta_inf=boundary)
        assert searched.truncated_boundary == boundary
        assert searched.skin_friction == fixed.skin_friction
        assert searched.starred.values.tobytes() == fixed.starred.values.tobytes()
        assert searched.physical.values.tobytes() == fixed.physical.values.tobytes()

    @pytest.mark.parametrize("p, step, boundary", [(0.3, 1e-3, 640.0)])
    def test_march_step_divides_every_candidate(self, p, step, boundary):
        # the march step 1/69 divides each candidate 5 * 2**j, so the one
        # march the search extends to 640 is the fixed solve's march
        param = make_parameter(p)
        searched = solve(param, step=step, eta_inf="auto")
        fixed = solve(param, step=step, eta_inf=boundary)
        assert transform._march_grid(param, GridSpec(step, boundary)).step == 1.0 / 69.0
        assert searched.truncated_boundary == boundary and searched.skin_friction == fixed.skin_friction
        assert searched.starred.values.tobytes() == fixed.starred.values.tobytes()
        assert searched.physical.values.tobytes() == fixed.physical.values.tobytes()

    @pytest.mark.parametrize("p", [0.8, 1.5])
    def test_step_that_divides_no_candidate_raises_before_marching(self, p, monkeypatch):
        calls = []
        monkeypatch.setattr(transform, "integrate", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=re.escape("step 0.003 divides none of the candidates 5 to 5120")):
            solve(make_parameter(p), step=0.003, eta_inf="auto")
        assert calls == []


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
        physical = rescale_profile(starred, make_parameter(1.0), 4.0)
        # slope 4 at P = 1: eta scales by 4**(1/2) = 2, (f, f', f'') by
        # (4**(-1/2), 1/4, 4**(-3/2)) = (1/2, 1/4, 1/8)
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

    @pytest.mark.parametrize("slope", [math.inf, math.nan])
    def test_rejects_non_finite_lambda(self, slope):
        starred = integrate_starred(make_parameter(1.0), GridSpec(0.05, 10.0))
        with pytest.raises(ValueError, match=f"starred slope must be positive and finite, got {slope!r}"):
            rescale_profile(starred, make_parameter(1.0), slope)

    # at P = 0.5, eta scales by the slope and (f, f', f'') by (1, 1/slope,
    # slope**-2): 1e-300 overflows a power, 1e308 only the product with eta
    @pytest.mark.parametrize("slope", [1e-300, 1e308])
    @pytest.mark.filterwarnings("error")
    def test_overflow_is_its_own_error(self, slope):
        starred = integrate_starred(make_parameter(0.5), GridSpec(0.05, 10.0))
        with pytest.raises(ValueError, match=re.escape(f"slope = {slope!r} overflows the group action at P=0.5")):
            rescale_profile(starred, make_parameter(0.5), slope)


class TestAutoStep:
    """``eta_inf="auto"`` with no step: one search at 0.025 (P <= 1)."""

    @staticmethod
    def searched_steps(monkeypatch):
        steps = []
        real = transform.find_truncated_boundary

        def spy(param, step):
            steps.append(step)
            return real(param, step)

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

    def test_searches_once_at_the_auto_step(self, monkeypatch):
        steps = self.searched_steps(monkeypatch)
        for p in (0.6, 1.0):
            assert solve(make_parameter(p), eta_inf="auto").starred.spacing == 0.025
        assert steps == [0.025, 0.025]

    def test_small_index_within_budget_of_the_floor_step(self, solve_cached):
        # f''(0) ~ 7.29 at P = 0.01: step 7.8125e-4 gives 7.288358591084255
        # (about a minute), and step 0.0125 is no closer to it than 0.025
        result = solve_cached(0.01, eta_inf="auto")
        assert result.starred.spacing == 0.025 and result.truncated_boundary == 2560.0
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

    @given(p=st.floats(min_value=1e-4, max_value=1.99))
    @example(p=0.5)
    @settings(max_examples=40, deadline=None)
    def test_transform_properties(self, p):
        # f''(0) s^(3/(P+1)) = 1 to a few ulp on the whole domain, and
        # two solves agree bit for bit
        param = make_parameter(p)
        a, b = (solve(param, step=0.01) for _ in range(2))
        product = a.skin_friction * a.starred_slope_at_infinity ** (3.0 / (p + 1.0))
        assert abs(product - 1.0) <= 1e-15
        assert a.skin_friction == b.skin_friction
        assert a.starred.values.tobytes() == b.starred.values.tobytes()
        assert a.physical.values.tobytes() == b.physical.values.tobytes()

    # the band is the |2P - 1| < 1e-6 that make_parameter rejected while
    # the rescale went through lam and delta; it is in the domain now
    @pytest.mark.parametrize("p", [0.4999, 0.5001])
    def test_solves_next_to_the_singular_band(self, p):
        result = solve(make_parameter(p), step=0.01)
        cross_check = mpmath.mpf(result.starred_slope_at_infinity) ** (-3 / (mpmath.mpf(p) + 1))
        assert result.skin_friction == pytest.approx(float(cross_check), rel=1e-11)
        assert abs(result.skin_friction - 0.33175) < 1e-4

    def test_wall_curvature_within_two_ulp_of_its_slope(self):
        # f''(0) against a 40-digit s**(-3/(P+1)) on the same double slope s:
        # 41 P across [0.49, 0.51], 0.5 and its neighbours down to one ulp,
        # and 199 P across the domain
        near = [0.49 + k * 5e-4 for k in range(41)]
        half = [0.5 + d for d in (1e-6, -1e-6, 1e-10, -1e-10, 1e-12, -1e-12)]
        half += [0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0)]
        sweep = [k / 100 for k in range(1, 200)]
        with mpmath.workdps(40):
            for p in near + half + sweep:
                result = solve(make_parameter(p), step=0.05)
                exact = mpmath.mpf(result.starred_slope_at_infinity) ** (-3 / (mpmath.mpf(p) + 1))
                assert abs(result.skin_friction - exact) <= 2 * math.ulp(float(exact)), p

    def test_half_index_is_a_pure_stretch(self):
        # at P = 0.5, eta = s eta*, f = f*, f' = f*'/s, f'' = f*''/s**2 and lam = 1
        result = solve(make_parameter(0.5), step=0.01)
        s = result.starred_slope_at_infinity
        assert result.lam == 1.0
        assert np.array_equal(result.physical.abscissae, result.starred.abscissae * s)
        assert np.array_equal(result.physical.f, result.starred.f)
        assert np.array_equal(result.physical.df, result.starred.df / s)
        assert result.physical.df[-1] == 1.0
        assert result.skin_friction == s**-2.0 == result.physical.d2f[0]
        assert abs(result.skin_friction - 0.331746097) < 5e-10

    def test_wrong_lambda_exponent_not_reproduced(self, solve_cached):
        # the sign of the recovery exponent matters: 1/(delta-1) would give
        # ~3.01 at P = 1 instead of the classical 0.3320...
        result = solve_cached(1.0)
        wrong = result.starred_slope_at_infinity ** (1.0 / (result.param.delta - 1.0))
        wrong_skin = wrong ** (2.0 * result.param.delta - 1.0)
        assert abs(wrong_skin - 3.01) < 0.01
        assert abs(result.skin_friction - wrong_skin) > 1.0


class TestTaylorOracle:
    """mpmath's Taylor-series ``odefun`` at 25 digits, an oracle that shares
    neither the Runge-Kutta core nor double rounding with the package."""

    @staticmethod
    def starred(p):
        """The starred IVP in the f'' form, P (P + 1) f''' = -f f''**(2 - P), from (0, 0, 1); call under ``workdps(25)``."""
        P = mpmath.mpf(p)
        return mpmath.odefun(lambda eta, y: [y[1], y[2], -y[0] * y[2] ** (2 - P) / (P * (P + 1))], 0, [0, 0, 1])

    @pytest.mark.parametrize("p", [0.5, 1.0])
    def test_wall_curvature_on_the_benchmark_boundary(self, p):
        # f''(0) = f*'(10)**(-3/(P + 1)) on E = 10.  The solves err
        # 1.8e-15 / 7.2e-16 at P = 0.5 and 1.6e-15 / 1.6e-15 at P = 1, at
        # steps 1e-3 / 0.025.  Step 1e-3 is sampled from a march at 1/56
        # and 1/40 (a march at 0.01 erred 1.6e-15 and 2.7e-15); a march at
        # 1e-3 erred 9.3e-15 and 2.2e-14, the roundoff of its 10k steps
        with mpmath.workdps(25):
            exact = float(self.starred(p)(10)[1] ** (-3 / (mpmath.mpf(p) + 1)))
        for step in (1e-3, 0.025):
            assert abs(solve(make_parameter(p), step=step, eta_inf=10.0).skin_friction - exact) <= 5e-15

    @pytest.mark.parametrize("p", [0.5, 1.0])
    def test_sampled_rows_between_march_nodes(self, p):
        # rows 123, 3567 and 9999 of the step-1e-3 grid lie inside march
        # intervals.  Worst, relative to max(1, |column|): 8.6e-15, in f''
        # at eta* = 3.567 and P = 1.  A march at 0.01 was 3.2e-14 off, in f
        # at eta* = 9.999, and a march at 1e-3 2.6e-13 there; the march at
        # 0.03 of the unit length (1/37 at P = 0.5) 2.3e-13, in f'' at 0.123
        starred = solve(make_parameter(p), step=1e-3, eta_inf=10.0).starred
        with mpmath.workdps(25):
            ivp = self.starred(p)
            for row in (123, 3567, 9999):
                exact = [float(v) for v in ivp(mpmath.mpf(row) / 1000)]
                for value, reference in zip(starred.values[row], exact):
                    assert abs(value - reference) <= 1e-13 * max(1.0, abs(reference)), (row, value, reference)
