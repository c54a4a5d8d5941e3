import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from powerlaw_blasius import (
    CurvatureError,
    DomainError,
    make_parameter,
    pohlhausen_skin_friction,
    reference_table,
)
from powerlaw_blasius.model import ModelParameter, ivp_rhs, project_curvature


def rhs(param, y):
    """The model right-hand side at state y, as the integrators evaluate it."""
    return ivp_rhs(param)(0.0, y)


valid_index = st.floats(min_value=1e-4, max_value=1.9999)


class TestMakeParameter:
    def test_newtonian_case(self):
        param = make_parameter(1.0)
        assert param.p == 1.0
        assert param.delta == -1.0

    def test_shear_thinning_case(self):
        assert make_parameter(0.3).delta == pytest.approx(4.25, rel=1e-14)

    @pytest.mark.parametrize("p,message", [
        (0.0, "nonpositive index"),
        (-1.0, "nonpositive index"),
        (2.0, "outside laminar range"),
        (2.5, "outside laminar range"),
        (float("nan"), "non-finite index"),
        (float("inf"), "outside laminar range"),
    ])
    def test_rejected_indices(self, p, message):
        with pytest.raises(DomainError, match=message.replace("=", "=")):
            make_parameter(p)

    def test_half_index_reports_delta_as_the_ieee_quotient(self):
        # (P - 2)/(2P - 1) = -1.5/+0.0 at P = 0.5; not NaN, so equality holds
        param = make_parameter(0.5)
        assert param == make_parameter(0.5) == ModelParameter(p=0.5, delta=-math.inf)

    @given(p=valid_index)
    @settings(max_examples=1000)
    def test_delta_satisfies_invariance_identity(self, p):
        assume(p != 0.5)  # delta * (2P - 1) is -inf * 0 there
        param = make_parameter(p)
        assert abs(param.delta * (2.0 * p - 1.0) - (p - 2.0)) < 1e-13


class TestRhs:
    def test_wall_state_newtonian(self):
        param = make_parameter(1.0)
        assert rhs(param, (0.0, 0.0, 1.0)) == (0.0, 1.0, -0.0)

    def test_nonlinear_term_newtonian(self):
        param = make_parameter(1.0)
        assert rhs(param, (1.0, 0.0, 1.0)) == (0.0, 1.0, -0.5)

    def test_fractional_power_value(self):
        # independent high-precision evaluation of -2 * 0.25^1.7 / 0.39
        expected = float(-2 * mpmath.mpf(0.25) ** mpmath.mpf(1.7) / (mpmath.mpf(0.3) * mpmath.mpf(1.3)))
        out = rhs(make_parameter(0.3), (2.0, 0.5, 0.25))
        assert out[0] == 0.5 and out[1] == 0.25
        assert out[2] == pytest.approx(expected, rel=1e-14)

    def test_noise_scale_curvature_clamped(self):
        out = rhs(make_parameter(0.3), (1.0, 0.5, -1e-13))
        assert out[1] == 0.0
        assert out[2] == 0.0

    def test_genuinely_negative_curvature_rejected(self):
        with pytest.raises(CurvatureError, match="negative curvature"):
            rhs(make_parameter(0.3), (1.0, 0.5, -1e-11))

    @given(
        f=st.floats(min_value=-3.0, max_value=3.0),
        df=st.floats(min_value=-2.0, max_value=2.0),
        d2f=st.floats(min_value=0.0, max_value=2.0),
    )
    @settings(max_examples=300)
    def test_newtonian_reduction(self, f, df, d2f):
        # at P = 1 the system is (f', f'', -f f''/2), the classical form
        out = rhs(make_parameter(1.0), (f, df, d2f))
        assert out == (df, d2f, -f * d2f / 2.0)

    def test_touchdown_window_above_newtonian(self):
        # for P > 1 the curvature falls monotonically to zero and stays
        # there, so every negative stage curvature is touchdown overshoot
        # and is clamped, where the rounding window rejects -1e-11 at P = 0.3
        for d2f in (-1e-6, -0.1, -1e300, -math.inf):
            out = rhs(make_parameter(1.5), (1.0, 0.5, d2f))
            assert out[1] == 0.0 and out[2] == 0.0

    @given(
        p=st.floats(min_value=0.05, max_value=1.9),
        a=st.floats(min_value=0.5, max_value=2.0),
        f=st.floats(min_value=0.1, max_value=3.0),
        df=st.floats(min_value=0.0, max_value=2.0),
        d2f=st.floats(min_value=0.01, max_value=2.0),
    )
    @example(p=0.5, a=2.0, f=1.0, df=0.5, d2f=1.0)
    @settings(max_examples=300)
    def test_scaling_group_invariance(self, p, a, f, df, d2f):
        # under f -> a^(2P-1) f, f' -> a^(P+1) f', f'' -> a^3 f'' the third
        # derivative must scale with a^(5-P): the stretching group of the
        # model, smooth through P = 0.5
        param = make_parameter(p)
        base = rhs(param, (f, df, d2f))[2]
        assume(abs(base) > 1e-290)
        scaled = rhs(param, (a ** (2.0 * p - 1.0) * f, a ** (p + 1.0) * df, a**3 * d2f))[2]
        assert scaled == pytest.approx(a ** (5.0 - p) * base, rel=1e-12)


class TestProjectCurvature:
    @pytest.mark.parametrize("p,inside,below", [(0.3, -1e-13, -1e-11), (1.5, -5e-3, -2e-2)])
    def test_window_on_the_final_row(self, p, inside, below):
        # the projection is the only check the integrator's last stored
        # row gets: no later step evaluates the RHS on it
        param = make_parameter(p)
        values = np.array([[0.0, 0.0, 1.0], [0.5, 0.9, -0.0], [1.0, 1.0, inside]])
        assert project_curvature(param, values) is values
        assert values[-1, 2] == 0.0 and math.copysign(1.0, values[-1, 2]) == 1.0
        # -0.0 is not an undershoot and keeps its sign bit
        assert math.copysign(1.0, values[1, 2]) == -1.0
        values[-1, 2] = below
        if p > 1.0:
            # every P > 1 undershoot is the touchdown, however deep
            project_curvature(param, values)
            assert values[-1, 2] == 0.0
        else:
            with pytest.raises(CurvatureError, match="sign loss at row 2"):
                project_curvature(param, values)


class TestPohlhausen:
    def test_newtonian_value(self):
        # printed formula gives sqrt(39/280 * 0.75) = 0.32321, the published
        # table rounds it to 0.323
        value = pohlhausen_skin_friction(1.0)
        assert value == pytest.approx(0.32321, abs=5e-6)
        assert value == pytest.approx(math.sqrt(39.0 / 280.0 * 0.75), rel=1e-15)

    def test_newtonian_exponent_is_half(self):
        assert 1.0**2 / (1.0 + 1.0) == 0.5

    def test_small_index_value_disagrees_with_published_column(self):
        # the formula as printed gives ~0.996 while the published table
        # lists 0.214892; kept as printed, the discrepancy is reported
        expected = float((mpmath.mpf(39) / 280 * mpmath.mpf("1.5") / mpmath.mpf("1.05")) ** (mpmath.mpf("0.05") ** 2 / mpmath.mpf("1.05")))
        value = pohlhausen_skin_friction(0.05)
        assert value == pytest.approx(expected, rel=1e-14)
        assert abs(value - 0.214892) > 0.5

    def test_valid_at_half(self):
        # the lam/delta form of the group is singular at 0.5; the estimate is not
        assert pohlhausen_skin_friction(0.5) > 0.0

    @pytest.mark.parametrize("p,message", [
        (0.0, "nonpositive index"),
        (2.0, "outside laminar range"),
        (float("inf"), "outside laminar range"),
    ])
    def test_domain(self, p, message):
        with pytest.raises(DomainError, match=message):
            pohlhausen_skin_friction(p)

    def test_positive_and_continuous_on_domain(self):
        grid = [0.01 + 0.01 * i for i in range(199)]
        values = [pohlhausen_skin_friction(p) for p in grid]
        assert all(v > 0.0 for v in values)
        jumps = [abs(b - a) for a, b in zip(values, values[1:])]
        assert max(jumps) < 0.05


class TestReferenceTable:
    def test_twelve_rows_in_order(self):
        rows = reference_table()
        assert [row.p for row in rows] == [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.5]

    def test_spot_values(self):
        rows = {row.p: row for row in reference_table()}
        assert rows[0.1].acrivos == 0.729857
        assert rows[0.1].pohlhausen == 0.221302
        assert rows[0.1].nonitm == 0.826478
        assert rows[1.0].acrivos == 0.33206
        assert rows[1.0].pohlhausen == 0.323
        assert rows[1.0].nonitm == 0.332057

    def test_blank_cells(self):
        rows = {row.p: row for row in reference_table()}
        assert rows[0.5].nonitm is None
        assert rows[0.5].acrivos == 0.331200
        assert rows[0.4].acrivos is None and rows[0.4].pohlhausen is None
        assert rows[0.4].nonitm == 0.350396
        for p in (0.6, 0.7, 0.8, 0.9):
            assert rows[p].acrivos is None and rows[p].pohlhausen is None
            assert rows[p].nonitm is not None

    def test_present_values_positive(self):
        for row in reference_table():
            for value in (row.acrivos, row.pohlhausen, row.nonitm):
                assert value is None or value > 0.0
