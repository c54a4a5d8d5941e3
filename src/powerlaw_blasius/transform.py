"""Non-iterative solution of the power-law Blasius problem.

The boundary-value problem is solved without any iteration on the
missing wall curvature:

1. integrate the same ODE as an initial-value problem in *starred*
   variables with f*(0) = f*'(0) = 0 and f*''(0) = 1 up to a truncated
   boundary eta*_inf;
2. read off the asymptotic slope s = f*'(eta*_inf) and recover the
   group parameter lam = s**(1/(1 - delta)), chosen so that the
   rescaled far-field slope is exactly one;
3. the missing wall curvature is f''(0) = lam**(2*delta - 1), and the
   full physical profile follows from the pointwise group action

       eta = lam**(-delta) eta*,   f   = lam**(-1)     f*,
       f'  = lam**(delta-1) f*',   f'' = lam**(2*delta-1) f*''.

Eliminating lam gives the cross-check f''(0) = s**(-3/(P+1)), which at
P = 1 is Topfer's classical rule f''(0) = s**(-3/2).

Note the exponent in step 2: deriving it from the group action (the
slope transforms with lam**(1-delta) and must land on 1) forces
1/(1 - delta).  The sign matters -- at P = 1 the alternative 1/(delta-1)
would yield f''(0) ~ 3.01 instead of 0.332057336215.

Every integration goes through ``_march``, one march from the wall
that steps in calls of ``_CHUNK`` steps up to a stop row.  For P > 1
it stops stepping after the call that reaches the touchdown: past it
f' is constant and f linear, and the rows left are the stepping loop's
constant-derivative rows, which numpy produces with the bits stepping
would give.

The truncated boundary is "found by trial" with ``eta_inf="auto"``:
the candidates 5, 10, 20, ... are the stops of one march, which ends
at the first whose wall shear has decayed.  When the caller gives no
step and P <= 1, the trial also picks the step: it starts at 0.05 and
halves until f''(0) holds still to 1e-12 of max(1, f''(0)).  An
explicit step and every fixed boundary keep the caller's grid (by
default the benchmark step 1e-3) bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import BlowUpError, NoPlateauError
from .model import ModelParameter
from .runge_kutta import COOPER_VERNER_8, MAX_STEP_COUNT, GridSpec, _constant_rows, integrate

__all__ = [
    "SolutionProfile",
    "TransformResult",
    "integrate_starred",
    "find_truncated_boundary",
    "recover_lambda",
    "rescale_profile",
    "solve",
]


@dataclass(frozen=True)
class SolutionProfile:
    """Uniform-grid samples of (f, f', f'') in one frame.

    ``frame`` is ``"starred"`` for the unit-curvature initial-value run
    and ``"physical"`` for the rescaled solution of the original
    problem.  ``values`` has one row (f, f', f'') per abscissa.
    """

    frame: str
    abscissae: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.frame not in ("starred", "physical"):
            raise ValueError(f"unknown frame {self.frame!r}")
        eta = np.asarray(self.abscissae, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "abscissae", eta)
        object.__setattr__(self, "values", vals)
        if eta.ndim != 1 or eta.size < 2 or vals.shape != (eta.size, 3):
            raise ValueError("profile needs n >= 2 abscissae and (n, 3) values")
        if eta[0] != 0.0:
            raise ValueError("profile must start at the wall (eta = 0)")
        spacing = np.diff(eta)
        h = spacing[0]
        # the final node is pinned to the grid endpoint, so spacing may
        # deviate by up to ~1e-12 of the domain length there
        if not (spacing > 0).all() or abs(spacing - h).max() > 1e-12 * max(eta[-1], h):
            raise ValueError("abscissae must increase with uniform spacing")
        if (vals[:, 2] < 0.0).any():
            raise ValueError("profile curvature must be non-negative everywhere")

    @property
    def spacing(self) -> float:
        return float(self.abscissae[1] - self.abscissae[0])

    @property
    def f(self) -> np.ndarray:
        return self.values[:, 0]

    @property
    def df(self) -> np.ndarray:
        return self.values[:, 1]

    @property
    def d2f(self) -> np.ndarray:
        return self.values[:, 2]


@dataclass(frozen=True)
class TransformResult:
    """Everything one non-iterative solve produces.

    ``lam`` is the scaling-group parameter, ``skin_friction`` the
    recovered missing initial condition f''(0), and the two profiles are
    the starred run and its physical rescaling.  ``truncated_boundary``
    is the starred endpoint actually used.
    """

    param: ModelParameter
    truncated_boundary: float
    starred_slope_at_infinity: float
    lam: float
    skin_friction: float
    starred: SolutionProfile
    physical: SolutionProfile


#: Grid step when the caller picks none: the published benchmark step,
#: for every fixed-boundary solve and for ``eta_inf="auto"`` at P > 1.
_DEFAULT_STEP = 1e-3

#: Automatic step of ``eta_inf="auto"`` at P <= 1: the first step, the
#: f''(0) agreement two successive halvings must reach (of max(1, f''(0))),
#: and the finest step tried (the first halving below the benchmark step).
_AUTO_START = 0.05
_AUTO_BUDGET = 1e-12
_AUTO_FLOOR = _AUTO_START / 2**6


#: Steps per ``integrate`` call of :func:`_march`.  Past the P > 1
#: touchdown a march steps on to the end of its call, so a longer call
#: wastes more steps there and a shorter one costs more calls elsewhere;
#: of 64 to 2048, 512 gave the fastest step-1e-3 solves at P = 0.3 to 1.9.
_CHUNK = 512

#: Truncated-boundary search: the first candidate, the wall shear
#: |f*''(E)| that accepts a candidate, and the number of doublings.
_SEARCH_START = 5.0
_SEARCH_TOL = 1e-8
_DOUBLING_CAP = 10


def _march(param: ModelParameter, step: float, stops, y0, integrate) -> np.ndarray:
    """The states one CV8 ``integrate`` call stores from ``y0`` up to a stop row, bit for bit.

    ``stops`` yields increasing row numbers and is read one at a time.
    The march ends at the first stop whose stored f'' is below
    ``_SEARCH_TOL`` (the boundary search's acceptance; the test is
    signed, so a P > 1 touchdown overshoot passes), or at the last stop.
    It works in blocks of ``_CHUNK`` steps; a remainder under the ten
    steps a GridSpec needs joins the block that reaches the stop.  A
    block that ends on a stored f'' the model clamps (any f'' <= 0 at
    P > 1: the touchdown, however deep the overshoot) ends the
    stepping: from that state on every stage derivative is its ``rhs``,
    (f', 0, -0), so every later block is the loop's constant-derivative
    rows, one numpy pass each.  A blow-up past the first block is raised
    again by one call from ``y0`` to the stop being marched to, so it
    reports the time that call reports.  ``integrate`` is the caller's
    own name for :func:`runge_kutta.integrate`, so each solver's calls
    go through its module.
    """
    rhs, window = model.ivp_rhs(param), model._clamp_window(param)
    blocks = [np.array([y0], dtype=float)]
    done, k = 0, None
    try:
        for stop in stops:
            # even a first stop at row 0 makes one block, for GridSpec to reject
            while done < stop or not done:
                m = stop - done if stop - done < _CHUNK + 10 else _CHUNK
                if k is None:
                    rows = integrate(rhs, COOPER_VERNER_8, GridSpec(step, m * step), blocks[-1][-1])[1]
                    if window <= rows[-1, 2] <= 0.0:
                        k = rhs((done + m) * step, rows[-1].tolist())
                else:
                    rows = np.empty((m + 1, 3))
                    rows[0] = blocks[-1][-1]
                    _constant_rows(COOPER_VERNER_8, step, k, rows)
                blocks.append(rows[1:])
                done += m
            if blocks[-1][-1, 2] < _SEARCH_TOL:
                break
    except BlowUpError:
        if done:
            integrate(rhs, COOPER_VERNER_8, GridSpec(step, stop * step), y0)
        raise
    return np.concatenate(blocks)


def integrate_starred(param: ModelParameter, grid: GridSpec) -> SolutionProfile:
    """Integrate the model in starred variables from (0, 0, 1).

    The returned profile has f*''(0) = 1 exactly, non-negative
    curvature everywhere (:func:`model.project_curvature` sets touchdown
    overshoot to zero) and, for a converged boundary, a slope plateau
    near the endpoint.
    """
    states = _march(param, grid.step, (grid.step_count,), (0.0, 0.0, 1.0), integrate)
    values = model.project_curvature(param, states)
    return SolutionProfile(frame="starred", abscissae=grid.abscissae(), values=values)


def find_truncated_boundary(param: ModelParameter, step: float) -> SolutionProfile:
    """Starred profile up to the first of 5, 10, 20, ... with |f*''| < 1e-8.

    Operationalizes truncation "found by trial": the wall-shear decay
    |f*''(E)| < 1e-8 certifies that the slope has stopped changing (for
    the Newtonian case E lands on the benchmark boundary 10).  The
    candidates are stops of one march from the wall, at rows
    round(E / step), so the profile equals :func:`integrate_starred` on
    ``GridSpec(step, E)`` bit for bit, a step that does not divide 5
    still lands on the later candidates, and a blow-up reports its time
    from the wall.  The test is signed, f*''(E) < 1e-8: for P > 1 the
    stored curvature past the touchdown may be an undershoot, which the
    final projection zeroes.

    Raises ``ValueError`` when 5 spans fewer than ten steps, E is not a
    multiple of the step or a candidate reached spans more than
    ``MAX_STEP_COUNT`` steps, and :class:`NoPlateauError` once the
    doubling cap (2**10 * 5) is exhausted.
    """
    endpoints = []

    def stops():
        for j in range(_DOUBLING_CAP + 1):
            endpoints.append(_SEARCH_START * 2.0**j)
            ratio = endpoints[-1] / step
            if ratio > MAX_STEP_COUNT:  # before round(): a subnormal step makes ratio inf
                raise ValueError(f"endpoint/step = {ratio:.3g}: more than {MAX_STEP_COUNT:.0e} steps")
            yield round(ratio)

    states = _march(param, step, stops(), (0.0, 0.0, 1.0), integrate)
    if not states[-1, 2] < _SEARCH_TOL:
        raise NoPlateauError(
            f"no plateau: |f*''| stayed above {_SEARCH_TOL:g} up to {endpoints[-1]:g} (P={param.p:g})"
        )
    eta = GridSpec(step, endpoints[-1]).abscissae()
    return SolutionProfile(frame="starred", abscissae=eta, values=model.project_curvature(param, states))


def recover_lambda(param: ModelParameter, starred_slope: float) -> float:
    """Group parameter from the starred asymptotic slope.

    lam = slope**(1/(1-delta)) = slope**((2P-1)/(P+1)); this is the
    unique scaling that maps the starred far-field slope onto the
    physical boundary condition f'(inf) = 1.
    """
    if not 0.0 < starred_slope < math.inf:
        raise ValueError(f"starred slope must be positive and finite, got {starred_slope!r}")
    return starred_slope ** (1.0 / (1.0 - param.delta))


def _wall_curvature(param: ModelParameter, starred: SolutionProfile) -> float:
    """f''(0) = lam**(2*delta - 1) recovered from a starred profile's final slope."""
    return recover_lambda(param, float(starred.df[-1])) ** (2.0 * param.delta - 1.0)


def _auto_starred(param: ModelParameter) -> SolutionProfile:
    """Searched starred profile on a step chosen by halving from ``_AUTO_START``.

    Stops at the first pair of successive steps whose searches land on
    the same boundary with f''(0) within ``_AUTO_BUDGET`` of
    max(1, f''(0)) and returns the finer one; at ``_AUTO_FLOOR`` it
    returns that level whatever the agreement.
    """
    step = _AUTO_START
    fine = find_truncated_boundary(param, step)
    while step > _AUTO_FLOOR:
        coarse, step = fine, step / 2.0
        fine = find_truncated_boundary(param, step)
        skin = _wall_curvature(param, fine)
        if (
            fine.abscissae[-1] == coarse.abscissae[-1]
            and abs(skin - _wall_curvature(param, coarse)) <= _AUTO_BUDGET * max(1.0, skin)
        ):
            break
    return fine


def rescale_profile(starred: SolutionProfile, param: ModelParameter, lam: float) -> SolutionProfile:
    """Map a starred profile through the group action into physical variables.

    Abscissae scale with lam**(-delta) and the columns (f, f', f'') with
    lam**(-1), lam**(delta-1), lam**(2*delta-1); lam = 1 is the identity
    apart from the frame tag.  Uniform spacing is preserved.
    """
    if starred.frame != "starred":
        raise ValueError("rescale_profile expects a starred-frame profile")
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lam must be positive and finite, got {lam!r}")
    d = param.delta
    try:
        with np.errstate(over="raise"):
            eta = starred.abscissae * lam**-d
            values = starred.values * np.array([lam**-1.0, lam ** (d - 1.0), lam ** (2.0 * d - 1.0)])
    except (OverflowError, FloatingPointError):
        raise ValueError(f"lam = {lam!r} overflows the group action at P={param.p:g}") from None
    return SolutionProfile(frame="physical", abscissae=eta, values=values)


def solve(
    param: ModelParameter, *, step: float | None = None, eta_inf: float | str | None = None
) -> TransformResult:
    """Run the full non-iterative pipeline for one parameter value.

    Two knobs set the starred grid: ``step`` (default 1e-3) and the
    truncated boundary ``eta_inf`` (default 10.0; with the default step
    that is the published benchmark grid).  ``eta_inf="auto"`` takes the
    starred profile the boundary search :func:`find_truncated_boundary`
    integrated.  With no ``step`` and P <= 1 it also picks the step: it
    searches at 0.05 and halves until two successive steps land on the
    same boundary with f''(0) within 1e-12 of max(1, f''(0)), down to
    0.05/2**6, and keeps the finer profile.  The boundary must be an
    integer multiple of the step, else :class:`GridSpec` raises
    ``ValueError``.
    """
    h = _DEFAULT_STEP if step is None else float(step)
    if eta_inf != "auto":
        starred = integrate_starred(param, GridSpec(h, 10.0 if eta_inf is None else float(eta_inf)))
    elif step is None and param.p <= 1.0:
        starred = _auto_starred(param)
    else:
        starred = find_truncated_boundary(param, h)
    slope = float(starred.df[-1])
    lam = recover_lambda(param, slope)
    skin = lam ** (2.0 * param.delta - 1.0)
    physical = rescale_profile(starred, param, lam)
    return TransformResult(
        param=param,
        truncated_boundary=float(starred.abscissae[-1]),
        starred_slope_at_infinity=slope,
        lam=lam,
        skin_friction=skin,
        starred=starred,
        physical=physical,
    )
