import hashlib
import math
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerlaw_blasius import (
    COOPER_VERNER_8,
    BlowUpError,
    ButcherTableau,
    CurvatureError,
    GridSpec,
    integrate,
    make_parameter,
    model,
    runge_kutta,
    solve,
)
from powerlaw_blasius.runge_kutta import STATE_LIMIT, _constant_rows, _kernel

from conftest import stepping

SRC = Path(__file__).resolve().parent.parent / "src"


def exp_rhs(t, y):
    return (y[0],)


def reference_step(rhs, tableau, t, y, h):
    """One step of the sparse tableau, term by term: the arithmetic the generated loop must match."""
    idx = range(len(y))
    k = []
    for stage, (ci, row) in enumerate(zip(tableau.nodes, tableau.coupling)):
        ys = list(y)
        for j, a in enumerate(row):
            if a == 0.0:
                continue
            ha = h * a
            for m in idx:
                ys[m] += ha * k[j][m]
        ts = t + ci * h
        ki = rhs(ts, tuple(ys))
        for v in ki:
            if not math.isfinite(v):
                raise BlowUpError(ts, f"rhs blow-up at t={ts:.6g} (stage {stage})")
        k.append(ki)
    out = list(y)
    for j, b in enumerate(tableau.weights):
        if b == 0.0:
            continue
        hb = h * b
        for m in idx:
            out[m] += hb * k[j][m]
    return tuple(out)


def reference_integrate(rhs, tableau, grid, y0, adjust_state=None):
    """The per-step loop around :func:`reference_step`, with integrate's state check."""
    y = tuple(float(v) for v in y0)
    h = grid.step
    out = np.empty((grid.step_count + 1, len(y)))
    out[0] = y
    for i in range(grid.step_count):
        t_next = (i + 1) * h
        y = reference_step(rhs, tableau, i * h, y, h)
        if adjust_state is not None:
            y = adjust_state(t_next, y)
        for v in y:
            if not -STATE_LIMIT <= v <= STATE_LIMIT:
                raise BlowUpError(t_next, f"state blow-up at t={t_next:.6g}: component exceeds {STATE_LIMIT:.1e}")
        out[i + 1] = y
    return grid.abscissae(), out


def reference_guard(param):
    """Post-step curvature projection, per state: applied after every step it must store what
    :func:`model.project_curvature` stores after the run."""
    window = model._clamp_window(param)

    def guard(t, y):
        if y[2] < 0.0:
            if y[2] < window:
                raise CurvatureError(f"curvature sign loss at eta={t:.6g}: f''={y[2]:.6g} (P={param.p:g})")
            return (y[0], y[1], 0.0)
        return y

    return guard


def guarded_reference(param, tableau, grid, guess=1.0):
    """States of the reference loop with the guard applied after every step."""
    return reference_integrate(model.ivp_rhs(param), tableau, grid, (0.0, 0.0, guess), reference_guard(param))[1]


def projected(param, tableau, grid, guess=1.0):
    """States of :func:`integrate` with the curvature projected once afterwards."""
    states = integrate(model.ivp_rhs(param), tableau, grid, (0.0, 0.0, guess))[1]
    return model.project_curvature(param, states)


def outcome(run):
    """Bytes of the states ``run()`` returns, or the type, message and fields of what it raises."""
    try:
        states = run()
    except (ArithmeticError, CurvatureError) as exc:
        return type(exc), str(exc), vars(exc)
    return np.asarray(states).tobytes()


class TestButcherTableau:
    def test_embedded_tableaus_are_consistent(self):
        for tab in (COOPER_VERNER_8, CLASSIC_RK4):
            assert math.isclose(math.fsum(tab.weights), 1.0, abs_tol=1e-14)
            for i, row in enumerate(tab.coupling):
                assert math.isclose(math.fsum(row), tab.nodes[i], abs_tol=1e-14)

    def test_stage_counts_and_orders(self):
        assert COOPER_VERNER_8.stage_count == 11
        assert COOPER_VERNER_8.declared_order == 8
        assert CLASSIC_RK4.stage_count == 4
        assert CLASSIC_RK4.declared_order == 4

    def test_rejects_non_explicit_coupling(self):
        with pytest.raises(ValueError, match="explicit"):
            ButcherTableau(nodes=(0.0, 0.5), weights=(0.5, 0.5), coupling=((0.0,), (0.5,)), declared_order=2)

    def test_rejects_inconsistent_weights(self):
        with pytest.raises(ValueError, match="weights"):
            ButcherTableau(nodes=(0.0, 1.0), weights=(0.5, 0.6), coupling=((), (1.0,)), declared_order=2)

    def test_rejects_row_sum_violation(self):
        with pytest.raises(ValueError, match="row-sum"):
            ButcherTableau(nodes=(0.0, 0.5), weights=(0.5, 0.5), coupling=((), (1.0,)), declared_order=2)

    @pytest.mark.parametrize(
        "nodes,weights,coupling",
        [
            ((0.0, math.nan), (0.5, 0.5), ((), (math.nan,))),
            ((0.0, math.inf), (0.5, 0.5), ((), (math.inf,))),
            ((math.nan, 1.0), (0.5, 0.5), ((), (1.0,))),
            ((0.0, 1.0), (0.5, math.nan), ((), (1.0,))),
            ((0.0, 1.0), (math.inf, -math.inf), ((), (1.0,))),
        ],
        ids=["nan", "inf", "nan-node", "nan-weight", "inf-weights"],
    )
    def test_rejects_non_finite_coefficients(self, nodes, weights, coupling):
        with pytest.raises(ValueError, match="finite"):
            ButcherTableau(nodes=nodes, weights=weights, coupling=coupling, declared_order=2)

    @pytest.mark.parametrize("order", [1.5, 0, -1, 2.0, "2"])
    def test_rejects_non_integer_order(self, order):
        with pytest.raises(ValueError, match="positive integer"):
            ButcherTableau(nodes=(0.0, 1.0), weights=(0.5, 0.5), coupling=((), (1.0,)), declared_order=order)


class TestGridSpec:
    def test_valid_grid(self):
        g = GridSpec(0.001, 10.0)
        assert g.step_count == 10000

    def test_abscissae_multiplicative_and_endpoint_exact(self):
        g = GridSpec(0.001, 10.0)
        t = g.abscissae()
        assert t.size == g.step_count + 1
        assert t[0] == 0.0
        assert t[-1] == 10.0
        i = np.arange(g.step_count + 1)
        assert np.array_equal(t[:-1], (0.001 * i)[:-1])

    @pytest.mark.parametrize(
        "step,endpoint",
        [(0.3, 1.0), (-0.1, 1.0), (0.0, 1.0), (0.1, -1.0), (1.0, 9.0), (0.1, float("nan"))],
    )
    def test_invalid_grids_rejected(self, step, endpoint):
        with pytest.raises(ValueError):
            GridSpec(step, endpoint)


class TestIntegrate:
    def test_zero_field_fixes_every_state(self):
        _, y = integrate(lambda t, y: (0.0, 0.0, 0.0), COOPER_VERNER_8, GridSpec(0.5, 5.0), (1.0, 2.0, 3.0))
        assert np.array_equal(y, np.tile([1.0, 2.0, 3.0], (11, 1)))

    def test_constant_field_exact_for_consistent_scheme(self):
        for tab in (COOPER_VERNER_8, CLASSIC_RK4):
            t, y = integrate(lambda t, y: (1.0,), tab, GridSpec(0.25, 2.5), (0.0,))
            # exact per step; ten steps add a few ulps of rounding at |y| <= 2.5
            assert y[:, 0] == pytest.approx(t, abs=1e-14)

    def test_rejects_empty_state_before_building_a_loop(self):
        built = _kernel.cache_info().currsize
        with pytest.raises(ValueError, match="at least one component"):
            integrate(exp_rhs, COOPER_VERNER_8, GridSpec(0.1, 1.0), ())
        assert _kernel.cache_info().currsize == built

    def test_rejects_non_finite_state(self):
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="finite"):
                integrate(exp_rhs, COOPER_VERNER_8, GridSpec(0.1, 1.0), (bad,))

    @given(
        scale=st.floats(min_value=0.1, max_value=10.0),
        alpha=st.floats(min_value=-2.0, max_value=2.0),
    )
    @settings(max_examples=200)
    def test_linear_rhs_commutes_with_state_scaling(self, scale, alpha):
        matrix = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-0.3, -0.2, -0.1]])

        def rhs(t, y):
            return tuple(alpha * (matrix @ y))

        y0 = (1.0, -0.5, 0.25)
        grid = GridSpec(0.05, 0.5)
        stepped = integrate(rhs, COOPER_VERNER_8, grid, y0)[1]
        scaled = integrate(rhs, COOPER_VERNER_8, grid, tuple(scale * v for v in y0))[1]
        assert np.allclose(scaled, scale * stepped, rtol=1e-13, atol=1e-300)

    def test_exponential_growth(self):
        t, y = integrate(exp_rhs, COOPER_VERNER_8, GridSpec(0.1, 1.0), (1.0,))
        assert abs(y[-1, 0] - math.e) < 1e-12

    def test_exponential_decay(self):
        t, y = integrate(lambda t, y: (-2.0 * y[0],), COOPER_VERNER_8, GridSpec(0.05, 1.0), (1.0,))
        assert abs(y[-1, 0] - math.exp(-2.0)) < 1e-12

    def test_quadratic_integrated_exactly(self):
        # f''' = 0 from (0, 0, 1): solution (eta^2/2, eta, 1)
        rhs = lambda t, y: (y[1], y[2], 0.0)
        t, y = integrate(rhs, COOPER_VERNER_8, GridSpec(0.01, 2.0), (0.0, 0.0, 1.0))
        assert np.allclose(y[-1], [2.0, 2.0, 1.0], rtol=1e-13)

    def test_sample_layout(self):
        grid = GridSpec(0.1, 2.0)
        t, y = integrate(exp_rhs, COOPER_VERNER_8, grid, (1.0,))
        assert t.shape == (21,) and y.shape == (21, 1)
        assert y[0, 0] == 1.0
        assert t[-1] == 2.0

    def test_deterministic(self):
        run = lambda: integrate(exp_rhs, COOPER_VERNER_8, GridSpec(0.01, 1.0), (1.0,))[1]
        assert np.array_equal(run(), run())

    def test_order_of_convergence_eighth(self):
        coarse = abs(integrate(exp_rhs, COOPER_VERNER_8, GridSpec(0.1, 1.0), (1.0,))[1][-1, 0] - math.e)
        fine = abs(integrate(exp_rhs, COOPER_VERNER_8, GridSpec(0.05, 1.0), (1.0,))[1][-1, 0] - math.e)
        assert coarse / fine >= 2.0**7.5

    def test_order_of_convergence_fourth(self):
        coarse = abs(integrate(exp_rhs, CLASSIC_RK4, GridSpec(0.1, 1.0), (1.0,))[1][-1, 0] - math.e)
        fine = abs(integrate(exp_rhs, CLASSIC_RK4, GridSpec(0.05, 1.0), (1.0,))[1][-1, 0] - math.e)
        assert 12.0 <= coarse / fine <= 20.0

    def test_rhs_blow_up_reports_time_and_stage(self):
        def rhs(t, y):
            return (float("nan"),) if t > 0.5 else (y[0],)

        with pytest.raises(BlowUpError, match="^rhs blow-up at t=") as err:
            integrate(rhs, COOPER_VERNER_8, GridSpec(0.1, 1.0), (1.0,))
        assert err.value.t > 0.5
        stage = re.fullmatch(r"rhs blow-up at t=\S+ \(stage (\d+)\)", str(err.value)).group(1)
        assert 0 <= int(stage) < COOPER_VERNER_8.stage_count

    def test_state_blow_up_detected(self):
        with pytest.raises(BlowUpError, match="^state blow-up at t=") as err:
            integrate(lambda t, y: (3.0 * y[0],), COOPER_VERNER_8, GridSpec(0.1, 20.0), (1.0,))
        assert err.value.t < 20.0


def filled(tableau, grid, y, k):
    """Rows from ``y`` over the grid as :func:`_constant_rows` fills them for the constant derivative ``k``."""
    rows = np.empty((grid.step_count + 1, len(y)))
    rows[0] = y
    _constant_rows(tableau, grid.step, k, rows)
    return rows


# tableaus no solver steps with, for the loop generator: Heun's order-2
# method and the classical order-4 method
HEUN = ButcherTableau(nodes=(0.0, 1.0), weights=(0.5, 0.5), coupling=((), (1.0,)), declared_order=2)
CLASSIC_RK4 = ButcherTableau(
    nodes=(0.0, 1 / 2, 1 / 2, 1.0),
    weights=(1 / 6, 1 / 3, 1 / 3, 1 / 6),
    coupling=((), (1 / 2,), (0, 1 / 2), (0, 0, 1.0)),
    declared_order=4,
)


class TestConstantRows:
    # past the P > 1 touchdown every stage derivative is one constant k, and
    # the rows numpy fills must be the ones the loop would store
    @pytest.mark.parametrize("tableau", [COOPER_VERNER_8, CLASSIC_RK4, HEUN], ids=["cv8", "rk4", "heun"])
    @pytest.mark.parametrize("k", [(1.7, 0.0, -0.0), (0.3, -0.0, 0.0), (-2.1, 1e-3, -0.0), (0.0, -0.0, 3.3)])
    @pytest.mark.parametrize("y", [(0.3, 1.2, -1e-3), (0.0, -0.0, 0.0), (4.1, 2.0, -0.0)])
    def test_matches_integrate_bit_for_bit(self, tableau, k, y):
        for h, n in [(1e-3, 3000), (0.01, 1025), (0.37, 10)]:
            grid = GridSpec(h, n * h)
            states = integrate(lambda t, s: k, tableau, grid, y)[1]
            assert filled(tableau, grid, y, k).tobytes() == states.tobytes()

    @pytest.mark.parametrize("tableau", [COOPER_VERNER_8, CLASSIC_RK4, HEUN], ids=["cv8", "rk4", "heun"])
    def test_bound_check_matches_integrate(self, tableau):
        grid, y, k = GridSpec(0.1, 20.0), (1.0, 2.0, 0.0), (STATE_LIMIT / 15.0, 0.0, -0.0)
        got = outcome(lambda: filled(tableau, grid, y, k))
        assert got == outcome(lambda: integrate(lambda t, s: k, tableau, grid, y)[1])
        assert got[0] is BlowUpError and got[2]["t"] < 20.0


class TestGeneratedLoop:
    # one projection after the run stores the bits a guard after every
    # step stored: once f'' <= 0 each stage sees zero curvature, so the
    # undershoot stays frozen until the projection zeroes it
    @pytest.mark.parametrize("tableau", [COOPER_VERNER_8, CLASSIC_RK4], ids=["cv8", "rk4"])
    @pytest.mark.parametrize("p", [0.3, 1.0, 1.5, 1.9])
    def test_model_matches_reference_bit_for_bit(self, tableau, p):
        param, grid = make_parameter(p), GridSpec(0.01, 10.0)
        assert projected(param, tableau, grid).tobytes() == guarded_reference(param, tableau, grid).tobytes()

    @pytest.mark.parametrize("tableau", [COOPER_VERNER_8, CLASSIC_RK4], ids=["cv8", "rk4"])
    @pytest.mark.parametrize("p", [0.3, 1.0, 1.5, 1.9])
    def test_projection_matches_guard_on_benchmark_step(self, tableau, p):
        param, grid = make_parameter(p), GridSpec(1e-3, 10.0)
        assert projected(param, tableau, grid).tobytes() == guarded_reference(param, tableau, grid).tobytes()

    @given(
        tableau=st.sampled_from([COOPER_VERNER_8, CLASSIC_RK4]),
        dim=st.sampled_from([1, 3]),
        data=st.data(),
        step=st.floats(min_value=1e-3, max_value=0.5),
        n=st.integers(min_value=10, max_value=40),
    )
    @settings(max_examples=100, deadline=None)
    def test_linear_rhs_matches_reference_bit_for_bit(self, tableau, dim, data, step, n):
        coef = st.floats(min_value=-3.0, max_value=3.0)
        matrix = data.draw(st.lists(st.lists(coef, min_size=dim + 1, max_size=dim + 1), min_size=dim, max_size=dim))
        y0 = tuple(data.draw(st.lists(coef, min_size=dim, max_size=dim)))

        def rhs(t, y):  # time enters through the last column
            return tuple(row[-1] * t + sum(a * v for a, v in zip(row, y)) for row in matrix)

        grid = GridSpec(step, n * step)
        assert outcome(lambda: integrate(rhs, tableau, grid, y0)[1]) == outcome(
            lambda: reference_integrate(rhs, tableau, grid, y0)[1]
        )

    @pytest.mark.parametrize("tableau", [COOPER_VERNER_8, CLASSIC_RK4], ids=["cv8", "rk4"])
    @pytest.mark.parametrize(
        "rhs,error",
        [
            (lambda t, y: (float("nan"), y[1], 0.0) if t > 0.55 else (y[1], y[2], 0.0), "rhs blow-up"),
            (lambda t, y: (3.0 * y[0], y[2], y[0]), "state blow-up"),
        ],
        ids=["nan-rhs", "state-blow-up"],
    )
    def test_errors_match_reference(self, tableau, rhs, error):
        grid = GridSpec(0.1, 20.0)
        got = outcome(lambda: integrate(rhs, tableau, grid, (1.0, 0.0, 1.0))[1])
        assert got == outcome(lambda: reference_integrate(rhs, tableau, grid, (1.0, 0.0, 1.0))[1])
        assert got[0] is BlowUpError and got[1].startswith(error)

    def test_built_on_first_use_and_reused(self):
        code = "import powerlaw_blasius.runge_kutta as rk; print(rk._kernel.cache_info().currsize)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert done.stdout.split() == ["0"], done.stderr

        heun = ButcherTableau(nodes=(0.0, 1.0), weights=(0.5, 0.5), coupling=((), (1.0,)), declared_order=2)
        built = _kernel.cache_info().currsize
        integrate(exp_rhs, heun, GridSpec(0.1, 1.0), (1.0,))
        assert _kernel.cache_info().currsize == built + 1
        kernel = _kernel(heun, 1)
        integrate(exp_rhs, heun, GridSpec(0.05, 1.0), (2.0,))
        assert _kernel.cache_info().currsize == built + 1 and _kernel(heun, 1) is kernel
        # a pickled copy is equal, so it shares the cached loop
        copy = pickle.loads(pickle.dumps(heun))
        assert copy == heun and _kernel(copy, 1) is kernel


class TestInlinedStage:
    # the model's right-hand side carries its source, and the loop steps it
    # inlined; wrapped in a plain function it is called, and the two agree
    @staticmethod
    def both(p, grid, y0):
        """Outcomes of the model's RHS at P, inlined and called, from ``y0`` over ``grid``."""
        rhs = model.ivp_rhs(make_parameter(p))
        return [
            outcome(lambda: integrate(f, COOPER_VERNER_8, grid, y0)[1])
            for f in (rhs, lambda t, y: rhs(t, y))
        ]

    @pytest.mark.parametrize("step", [1e-3, 0.01, 0.025])
    @pytest.mark.parametrize("p", [0.05, 0.3, 0.5, 1.0, 1.5, 1.9])
    def test_states_match_the_called_stage(self, p, step):
        inlined, called = self.both(p, GridSpec(step, 10.0), (0.0, 0.0, 1.0))
        assert isinstance(inlined, bytes) and inlined == called

    @pytest.mark.parametrize(
        "p,y0,error,message",
        [
            (0.3, (100.0, 0.0, 1.0), CurvatureError, "negative curvature f''="),
            (0.3, (0.0, 0.0, 1e300), OverflowError, ""),
            (1.5, (1.79e308, 1e307, 1.0), BlowUpError, "rhs blow-up at t=0.0827327 (stage 3)"),
        ],
        ids=["sign-loss", "power-overflow", "rhs-blow-up"],
    )
    def test_errors_match_the_called_stage(self, p, y0, error, message):
        inlined, called = self.both(p, GridSpec(0.1, 1.0), y0)
        assert inlined == called
        assert inlined[0] is error and inlined[1].startswith(message)

    def test_state_blow_up_matches_the_called_stage(self, monkeypatch):
        monkeypatch.setattr(runge_kutta, "STATE_LIMIT", 10.0)
        inlined, called = self.both(1.0, GridSpec(0.01, 20.0), (0.0, 0.0, 1.0))
        assert inlined == called
        assert inlined[0] is BlowUpError and inlined[1].startswith("state blow-up at t=")

    def test_a_right_hand_side_with_source_is_not_called(self):
        rhs, calls = model.ivp_rhs(make_parameter(1.0)), []

        def counted(t, y):
            calls.append(t)
            return rhs(t, y)

        counted.source, counted.constants = rhs.source, rhs.constants
        grid = GridSpec(0.01, 1.0)
        stepped = integrate(counted, COOPER_VERNER_8, grid, (0.0, 0.0, 1.0))[1]
        assert calls == []
        assert stepped.tobytes() == integrate(rhs, COOPER_VERNER_8, grid, (0.0, 0.0, 1.0))[1].tobytes()

    def test_one_loop_serves_every_index(self):
        # the per-P constants are the loop's arguments, not compiled into it
        _kernel.cache_clear()
        for p in (0.3, 0.5, 1.0, 1.5, 1.9):
            solve(make_parameter(p), step=1e-3, eta_inf=10)
        assert _kernel.cache_info().currsize == 1


class TestAbsorbingState:
    # from a state the model's RHS absorbs (f'' in the clamp window) the
    # loop stops stepping and the rest is filled; the rows must be the
    # ones stepping every row stores, and an error the one it raises
    @staticmethod
    def both(p, grid, y0):
        """Outcomes of the model's RHS at P, with and without its absorbing test, from ``y0`` over ``grid``."""
        param = make_parameter(p)
        return [outcome(lambda: integrate(f, COOPER_VERNER_8, grid, y0)[1]) for f in (model.ivp_rhs(param), stepping(param))]

    @staticmethod
    def fills(monkeypatch):
        """The rows each ``_constant_rows`` call of ``integrate`` starts from, recorded as it runs."""
        starts, real = [], runge_kutta._constant_rows
        monkeypatch.setattr(runge_kutta, "_constant_rows", lambda *a: starts.append(a[4]) or real(*a))
        return starts

    @pytest.mark.parametrize("step", [1e-3, 0.01, 0.025])
    @pytest.mark.parametrize("p", [0.3, 1.0, 1.1, 1.5, 1.7765, 1.84375, 1.9, 1.99])
    def test_starred_rows_match_stepping(self, p, step):
        filled, stepped = self.both(p, GridSpec(step, 10.0), (0.0, 0.0, 1.0))
        assert isinstance(filled, bytes) and filled == stepped

    @pytest.mark.parametrize(
        "p,y0",
        [(1.5, (2.0, 1.3, -1e-3)), (1.9, (0.5, 0.7, 0.0)), (1.0, (1.0, 2.0, -5e-13)), (0.3, (3.0, 1.5, -1e-12))],
        ids=["overshoot", "zero", "newtonian-window", "window-edge"],
    )
    def test_call_from_an_absorbing_row(self, monkeypatch, p, y0):
        starts = self.fills(monkeypatch)
        filled, stepped = self.both(p, GridSpec(0.01, 5.0), y0)
        assert starts == [0] and isinstance(filled, bytes) and filled == stepped

    def test_row_below_the_window_is_stepped(self, monkeypatch):
        # at P <= 1 an f'' below -1e-12 is a sign loss, not a frozen row
        starts = self.fills(monkeypatch)
        filled, stepped = self.both(0.3, GridSpec(0.01, 5.0), (3.0, 1.5, -2e-12))
        assert starts == [] and filled == stepped and filled[0] is CurvatureError

    def test_blow_up_in_the_filled_tail(self, monkeypatch):
        # f grows linearly past the P = 1.5 touchdown (eta* ~ 3.68) and
        # leaves the limit in the filled rows, timed from the call's row 0
        monkeypatch.setattr(runge_kutta, "STATE_LIMIT", 10.0)
        starts = self.fills(monkeypatch)
        filled, stepped = self.both(1.5, GridSpec(0.01, 20.0), (0.0, 0.0, 1.0))
        assert starts == [368] and filled == stepped
        assert filled[0] is BlowUpError and filled[2]["t"] == pytest.approx(5.59)

    @pytest.mark.parametrize(
        "p,y0", [(1.5, (0.05, -1.0, -0.0)), (1.0, (-1.0, 1.0, -0.0)), (0.3, (-0.0, -0.0, -1e-13))]
    )
    def test_state_with_a_negative_zero_is_stepped(self, monkeypatch, p, y0):
        # the fill would keep a -0.0 that stepping turns into +0.0
        starts = self.fills(monkeypatch)
        filled, stepped = self.both(p, GridSpec(0.01, 1.0), y0)
        assert starts == [] and filled == stepped

    def test_without_the_test_every_row_is_stepped(self, monkeypatch):
        starts = self.fills(monkeypatch)
        integrate(stepping(make_parameter(1.5)), COOPER_VERNER_8, GridSpec(1e-3, 10.0), (0.0, 0.0, 1.0))
        assert starts == []


def decay(name):
    """y' = -2y, inlined from a source that reads the rate from the constant ``name``."""
    def rhs(t, y):
        return (-2.0 * y[0],)

    rhs.source, rhs.constants = f"{{k0}} = -{name} * {{y0}}\n", {name: 2.0}
    return rhs


class TestConstantNames:
    # a constant is a loop argument; one that shares a name the loop binds
    # or reads would be misread or make the generated source invalid
    def test_free_name_is_inlined(self):
        grid = GridSpec(0.01, 1.0)
        inlined = integrate(decay("rate"), COOPER_VERNER_8, grid, (1.0,))[1]
        called = integrate(lambda t, y: decay("rate")(t, y), COOPER_VERNER_8, grid, (1.0,))[1]
        assert inlined.tobytes() == called.tobytes()
        assert inlined[-1, 0] == pytest.approx(math.exp(-2.0), rel=1e-14)

    @pytest.mark.parametrize("name", ["j", "i", "t", "h"])
    def test_name_the_loop_uses_is_rejected(self, name):
        built = _kernel.cache_info().currsize
        with pytest.raises(ValueError, match=f"^rhs constant '{name}' is a name the stepping loop binds or reads$"):
            integrate(decay(name), COOPER_VERNER_8, GridSpec(0.01, 1.0), (1.0,))
        assert _kernel.cache_info().currsize == built

    @pytest.mark.parametrize("name", ["2x", "a-b", "lambda"])
    def test_name_that_is_not_an_identifier_is_rejected(self, name):
        rhs = decay("rate")
        rhs.constants = {**rhs.constants, name: 1.0}
        with pytest.raises(ValueError, match=f"^rhs constant '{name}' is not an identifier$"):
            integrate(rhs, COOPER_VERNER_8, GridSpec(0.01, 1.0), (1.0,))

    def test_constant_of_the_absorbing_test_is_checked(self):
        rhs = decay("rate")
        rhs.absorbing, rhs.constants = "{y0} <= t", {"rate": 2.0, "t": 0.5}
        with pytest.raises(ValueError, match="^rhs constant 't' is a name"):
            integrate(rhs, COOPER_VERNER_8, GridSpec(0.01, 1.0), (1.0,))


def _cv8_states(p):
    return projected(make_parameter(p), COOPER_VERNER_8, GridSpec(1e-3, 10))


def _rk4_states(p, guess):
    return projected(make_parameter(p), CLASSIC_RK4, GridSpec(1e-3, 10), guess)


# sha256 of the state arrays as the per-step loop stored them before the
# generated loop replaced it.  The CV8 rows are one march on the
# benchmark grid, not ``solve``'s profile: at P <= 1 that is sampled from
# a march at step 0.01
@pytest.mark.parametrize(
    "states,digest",
    [
        ((_cv8_states, 0.3), "4707629656441dc781de4071d8fc4f26f3233bcf9b1a143c850361ffab742722"),
        ((_cv8_states, 1.0), "74add58c0a15674bf0e90fa57ff7781c1d95a8fe50eabfd7a42f6cb5d808f165"),
        ((_cv8_states, 1.5), "a0c558841a44a1299bdfae814ab196f28519679e1c795db6d7260880614231c8"),
        ((_rk4_states, 1.0, 0.33), "615a7fe387b6699f0eb25399d21a568cb3aed793284e6df295655bc28f31ed7e"),
        ((_rk4_states, 1.5, 0.4), "d37dbc32d279ace7b5009589815804d7ccadd4520f8486fd608f1615fccbdbfd"),
    ],
    ids=["cv8-P0.3", "cv8-P1.0", "cv8-P1.5", "rk4-P1.0", "rk4-P1.5"],
)
def test_golden_bytes(states, digest):
    fn, *args = states
    assert hashlib.sha256(fn(*args).tobytes()).hexdigest() == digest
