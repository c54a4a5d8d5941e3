"""Non-iterative solution of the power-law Blasius problem.

The boundary-value problem is solved without any iteration on the
missing wall curvature:

1. integrate the same ODE as an initial-value problem in *starred*
   variables with f*(0) = f*'(0) = 0 and f*''(0) = 1 up to a truncated
   boundary eta*_inf;
2. read off the asymptotic slope s = f*'(eta*_inf); the group element
   a = s**(1/(P+1)) of :mod:`powerlaw_blasius.model` maps it onto the
   physical far-field slope one;
3. the missing wall curvature is f''(0) = s**(-3/(P+1)), and the full
   physical profile follows from the pointwise group action

       eta = s**((2-P)/(P+1)) eta*,   f   = s**((1-2P)/(P+1)) f*,
       f'  = f*' / s,                 f'' = s**(-3/(P+1)) f*''.

Every exponent is smooth on 0 < P < 2: P = 0.5 is the pure stretch
eta = s eta*, and P = 1 gives Topfer's rule f''(0) = s**(-3/2).  The
literature's lam = s**((2P-1)/(P+1)) = s**(1/(1 - delta)) is only
reported; at P = 1 the sign-flipped 1/(delta - 1) would give f''(0)
~ 3.01 instead of 0.332057336215.

Every integration goes through ``_march``, which extends the rows
marched from the wall to one stop row in calls of ``_CHUNK`` steps,
with the bits of one call from the wall.  For P > 1 it stops stepping
after the call that reaches the touchdown: past it f' is constant and
f linear, and the rows left are the stepping loop's constant-derivative
rows, which numpy produces with the bits stepping would give.

The truncated boundary is "found by trial" with ``eta_inf="auto"``:
the search extends one march candidate by candidate, 5, 10, 20, ...,
and accepts the first whose wall shear has decayed.  When the caller
gives no step, that one search runs at step 0.025 for P <= 1 and at
the benchmark step 1e-3 for P > 1.  An explicit step and every fixed
boundary keep the caller's grid (by default 1e-3) bit for bit.
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

    ``lam`` is the reported group parameter, ``skin_friction`` the
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
#: for every fixed-boundary solve and for ``eta_inf="auto"`` at P > 1,
#: where the scheme loses order across the touchdown.
_DEFAULT_STEP = 1e-3

#: Step of ``eta_inf="auto"`` at P <= 1 when the caller picks none.  From
#: P = 0.01 to 1 its f''(0) is within 1e-12 of max(1, f''(0)) of the value
#: at half the step, far below the truncation error the boundary keeps.
_AUTO_STEP = 0.025


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


def _march(param: ModelParameter, step: float, stop: int, states: np.ndarray, integrate) -> np.ndarray:
    """``states`` extended to row ``stop``: bit for bit the rows of one CV8 ``integrate`` call from ``states[0]``.

    ``states`` holds the rows already marched from the wall, at least
    one.  The march works in blocks of ``_CHUNK`` steps; a remainder
    under the ten steps a GridSpec needs joins the block that reaches
    the stop.  A block that ends on a stored f'' the model clamps (any
    f'' <= 0 at P > 1: the touchdown, however deep the overshoot) ends
    the stepping: from that state on every stage derivative is its
    ``rhs``, (f', 0, -0), so every later block is the loop's
    constant-derivative rows, one numpy pass each; a march resumed
    from such a row steps its first block, which gives the same bits.
    A blow-up past row 0 is raised again by one call from ``states[0]``
    to the stop, so it reports the time that call reports.
    ``integrate`` is the caller's own name for
    :func:`runge_kutta.integrate`, so each solver's calls go through
    its module.
    """
    rhs, window = model.ivp_rhs(param), model._clamp_window(param)
    blocks, done, k = [states], len(states) - 1, None
    try:
        # even a stop at row 0 makes one block, for GridSpec to reject
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
    except BlowUpError:
        if done:
            integrate(rhs, COOPER_VERNER_8, GridSpec(step, stop * step), states[0])
        raise
    return np.concatenate(blocks)


def integrate_starred(param: ModelParameter, grid: GridSpec) -> SolutionProfile:
    """Integrate the model in starred variables from (0, 0, 1).

    The returned profile has f*''(0) = 1 exactly, non-negative
    curvature everywhere (:func:`model.project_curvature` sets touchdown
    overshoot to zero) and, for a converged boundary, a slope plateau
    near the endpoint.
    """
    states = _march(param, grid.step, grid.step_count, np.array([(0.0, 0.0, 1.0)]), integrate)
    values = model.project_curvature(param, states)
    return SolutionProfile(frame="starred", abscissae=grid.abscissae(), values=values)


def find_truncated_boundary(param: ModelParameter, step: float) -> SolutionProfile:
    """Starred profile up to the first of 5, 10, 20, ... with |f*''| < 1e-8.

    Operationalizes truncation "found by trial": the wall-shear decay
    |f*''(E)| < 1e-8 certifies that the slope has stopped changing (for
    the Newtonian case E lands on the benchmark boundary 10).  The
    search extends one march from the wall candidate by candidate, to
    rows round(E / step), so the profile equals
    :func:`integrate_starred` on ``GridSpec(step, E)`` bit for bit and
    a blow-up reports its time from the wall.  Only a candidate the step
    divides (GridSpec's 1e-12 rule) is tested, so a step that does not
    divide 5 lands on the later candidates.  The test is signed,
    f*''(E) < 1e-8: for P > 1 the stored curvature past the touchdown
    may be an undershoot, which the final projection zeroes.

    Raises ``ValueError`` before marching when the step divides no
    candidate, and when 5 spans fewer than ten steps or a candidate reached
    spans more than ``MAX_STEP_COUNT`` steps; :class:`NoPlateauError`
    once the doubling cap (2**10 * 5) is exhausted.
    """
    ends = [_SEARCH_START * 2.0**j for j in range(_DOUBLING_CAP + 1)]
    # a candidate past the step cap counts as a fit: reaching it raises below
    fits = [E / step > MAX_STEP_COUNT or abs(round(E / step) * step - E) <= 1e-12 * E for E in ends]
    if not any(fits):
        raise ValueError(f"step {step!r} divides none of the candidates 5 to {ends[-1]:g}")
    states = np.array([(0.0, 0.0, 1.0)])
    for endpoint, fit in zip(ends, fits):
        ratio = endpoint / step
        if ratio > MAX_STEP_COUNT:  # before round(): a subnormal step makes ratio inf
            raise ValueError(f"endpoint/step = {ratio:.3g}: more than {MAX_STEP_COUNT:.0e} steps")
        states = _march(param, step, round(ratio), states, integrate)
        if fit and states[-1, 2] < _SEARCH_TOL:
            eta = GridSpec(step, endpoint).abscissae()
            return SolutionProfile(frame="starred", abscissae=eta, values=model.project_curvature(param, states))
    raise NoPlateauError(f"no plateau: |f*''| stayed above {_SEARCH_TOL:g} up to {endpoint:g} (P={param.p:g})")


def recover_lambda(param: ModelParameter, starred_slope: float) -> float:
    """The reported group parameter lam = slope**((2P-1)/(P+1)), 1 at P = 0.5.

    lam = slope**(1/(1-delta)) is the literature's scaling f = f*/lam
    that maps the starred far-field slope onto the physical boundary
    condition f'(inf) = 1; the solve itself rescales by the slope.
    """
    if not 0.0 < starred_slope < math.inf:
        raise ValueError(f"starred slope must be positive and finite, got {starred_slope!r}")
    return starred_slope ** ((2.0 * param.p - 1.0) / (param.p + 1.0))


def rescale_profile(starred: SolutionProfile, param: ModelParameter, slope: float) -> SolutionProfile:
    """Map a starred profile through the group action that takes ``slope`` to one.

    Abscissae scale with slope**((2-P)/(P+1)) and the columns
    (f, f', f'') with slope**((1-2P)/(P+1)), 1/slope and
    slope**(-3/(P+1)); slope = 1 is the identity apart from the frame
    tag.  Uniform spacing is preserved.
    """
    if starred.frame != "starred":
        raise ValueError("rescale_profile expects a starred-frame profile")
    if not 0.0 < slope < math.inf:
        raise ValueError(f"starred slope must be positive and finite, got {slope!r}")
    p, q = param.p, param.p + 1.0
    try:
        with np.errstate(over="raise"):
            eta = starred.abscissae * slope ** ((2.0 - p) / q)
            values = starred.values * np.array([slope ** ((1.0 - 2.0 * p) / q), 1.0, slope ** (-3.0 / q)])
            values[:, 1] /= slope  # f' = f*'/slope, correctly rounded
    except (OverflowError, FloatingPointError):
        raise ValueError(f"slope = {slope!r} overflows the group action at P={p:g}") from None
    return SolutionProfile(frame="physical", abscissae=eta, values=values)


def solve(
    param: ModelParameter, *, step: float | None = None, eta_inf: float | str | None = None
) -> TransformResult:
    """Run the full non-iterative pipeline for one parameter value.

    Two knobs set the starred grid: ``step`` and the truncated boundary
    ``eta_inf`` (default 10.0; with the default step 1e-3 that is the
    published benchmark grid).  ``eta_inf="auto"`` takes the starred
    profile the boundary search :func:`find_truncated_boundary`
    integrated, in one search; with no ``step`` it searches at 0.025
    for P <= 1 and at 1e-3 for P > 1.  The boundary must be an integer
    multiple of the step, else :class:`GridSpec` raises ``ValueError``.
    """
    if step is None:
        step = _AUTO_STEP if eta_inf == "auto" and param.p <= 1.0 else _DEFAULT_STEP
    if eta_inf == "auto":
        starred = find_truncated_boundary(param, float(step))
    else:
        starred = integrate_starred(param, GridSpec(float(step), 10.0 if eta_inf is None else float(eta_inf)))
    slope = float(starred.df[-1])
    return TransformResult(
        param=param,
        truncated_boundary=float(starred.abscissae[-1]),
        starred_slope_at_infinity=slope,
        lam=recover_lambda(param, slope),
        skin_friction=slope ** (-3.0 / (param.p + 1.0)),
        starred=starred,
        physical=rescale_profile(starred, param, slope),
    )
