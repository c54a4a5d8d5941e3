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

Rows are stepped in one place, :func:`_march`: one ``integrate`` call
extends the rows a grid already holds from the wall.  The call stops
stepping at the P > 1 touchdown: past it f' is constant and f linear,
and the stepping loop's constant-derivative rows fill the rest.

The step of a solve is the spacing of the profile it returns.  A grid
finer than the march's is not marched: the march runs at step 1/m, at
P <= 1 the largest not above 0.02 of the starred unit length
(P(P+1))**(1/3) and at P > 1 0.01, and quintic Hermite interpolation
fills the caller's grid from it (:func:`_sample`), keeping the marched
bits on every march node, the last one, which gives f''(0), included.
At P > 1 only the march's head is sampled: from the last march node
before v = f''**(P-1) falls below 0.1 the march goes on along the
caller's grid through the touchdown (515 stepped rows on the benchmark
grid at P = 1.5).

The truncated boundary is "found by trial" with ``eta_inf="auto"``:
each candidate 5, 10, 20, ... extends one march as far as the fixed
boundary there marches, and the first whose wall shear has decayed is
accepted, so a search and a fixed boundary on the same grid give the
same profile bit for bit.  When the caller gives no step, that one
search runs at step 0.025 for P <= 1 and at the benchmark step 1e-3 for
P > 1, the grid its tail is stepped on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import BlowUpError, CurvatureError, NoPlateauError
from .model import ModelParameter
from .runge_kutta import COOPER_VERNER_8, MAX_STEP_COUNT, GridSpec, integrate

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
    problem.  ``values`` has one row (f, f', f'') per abscissa.  Every
    abscissa and value must be finite and the curvature non-negative.
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
        if not (np.isfinite(eta).all() and np.isfinite(vals).all()):
            raise ValueError("profile abscissae and values must be finite")
        if eta[0] != 0.0:
            raise ValueError("profile must start at the wall (eta = 0)")
        spacing = np.diff(eta)
        h, low, high = spacing[0], spacing.min(), spacing.max()
        # the final node is pinned to the grid endpoint, so spacing may
        # deviate by up to ~1e-12 of the domain length there
        if not low > 0 or max(high - h, h - low) > 1e-12 * max(eta[-1], h):
            raise ValueError("abscissae must increase with uniform spacing")
        if not (vals[:, 2] >= 0.0).all():
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

#: A P <= 1 grid finer than it is marched at step 1/m, the largest not
#: above kappa of the starred unit length (P(P+1))**(1/3), and filled by
#: :func:`_sample`.  At 0.02 sampled rows are within 8.6e-15 of mpmath
#: (0.03 failed 1e-13) and each step is at most ``_AUTO_STEP``.
_KAPPA = 0.02

#: March step of a P > 1 grid finer than it.  A coarser head steps about
#: as many rows as it saves: at P = 1.5 a 0.02 head (with a switch of
#: 0.2) steps 481 rows and a kappa head (1/33) 799, against 515.
_MARCH_STEP = 0.01

#: At P > 1 the caller's grid is stepped from the last march node before
#: the first with v = max(f'', 0)**(P-1) below this, through the
#: touchdown: the m-th derivative of f'' grows like v**-m relative to
#: it there, which the Hermite fill of f'' cannot follow.  Over 52 P in
#: [1.001, 1.999] on four grids each column is then within 1.1e-12 of its
#: largest value of a march on the caller's grid; 0.05 was 2.9e-11 off.
_TAIL_SWITCH = 0.1


#: Truncated-boundary search: the first candidate, the wall shear
#: |f*''(E)| that accepts a candidate, and the number of doublings.
_SEARCH_START = 5.0
_SEARCH_TOL = 1e-8
_DOUBLING_CAP = 10


def _march(param: ModelParameter, step: float, stop: int, states: np.ndarray) -> np.ndarray:
    """``states`` extended to row ``stop`` of the grid of ``step`` by one CV8 ``integrate`` call.

    ``states`` are the rows on that grid from the wall, at least one,
    marched or sampled; one call from the last row adds the rest, so
    marched rows extend bit for bit as one call from ``states[0]``
    stores them.  A blow-up past row 0 is raised again by one call from
    ``states[0]`` to the stop, so it reports its time from the wall; a
    curvature sign loss is raised as :func:`_sign_loss` words it.
    """
    rhs, done = model.ivp_rhs(param), len(states) - 1
    try:
        rows = integrate(rhs, COOPER_VERNER_8, GridSpec(step, (stop - done) * step), states[-1])[1]
    except BlowUpError:
        if done:
            integrate(rhs, COOPER_VERNER_8, GridSpec(step, stop * step), states[0])
        raise
    except CurvatureError as exc:
        raise _sign_loss(param, step, stop * step, exc) from None
    return np.concatenate([states, rows[1:]]) if done else rows


def _march_rate(param: ModelParameter) -> int:
    """m, the march steps 1/m: 1/``_MARCH_STEP`` at P > 1, else the least with 1/m <= ``_KAPPA`` (P(P+1))**(1/3)."""
    if param.p > 1.0:
        return round(1.0 / _MARCH_STEP)
    return math.ceil(1.0 / (_KAPPA * (param.p * (param.p + 1.0)) ** (1.0 / 3.0)))


def _march_grid(param: ModelParameter, grid: GridSpec) -> GridSpec:
    """The grid the starred IVP is marched on to fill ``grid``: ``grid``, or when fewer, n steps over its [0, E].

    n = max(10, round(E m)), with m from :func:`_march_rate`.  Every
    candidate 5 * 2**j of the boundary search is a whole number of steps
    1/m, so a search extends one march.
    """
    n = max(10, round(grid.endpoint * _march_rate(param)))
    return grid if n >= grid.step_count else GridSpec(grid.endpoint / n, grid.endpoint)


def _sign_loss(param: ModelParameter, step: float, endpoint: float, exc: CurvatureError) -> CurvatureError:
    """``exc``, or where a P <= 1 march at ``step`` is coarser than ``_KAPPA`` of the unit length, one naming it."""
    unit = (param.p * (param.p + 1.0)) ** (1.0 / 3.0)
    if param.p > 1.0 or step <= _KAPPA * unit:
        return exc
    steps, on = math.ceil(endpoint * _march_rate(param)), f"on [0, {endpoint:g}]"
    cure = f"a grid of {steps} steps {on} (step {endpoint / steps:.15g})"
    if steps > MAX_STEP_COUNT:
        cure = f"no grid of at most {MAX_STEP_COUNT:.0e} steps {on}"
    return CurvatureError(
        f"curvature sign lost at P={param.p:g}: step {step:g} is coarser than {_KAPPA:g} of the starred unit length"
        f" (P(P+1))^(1/3) = {unit:.3g}; {cure} resolves it"
    )


def _sample(param: ModelParameter, states: np.ndarray, h: float, out: np.ndarray) -> np.ndarray:
    """``out`` with its N + 1 rows (f, f', f'') sampled from the march ``states`` at step ``h`` over the same span.

    Each march interval is filled by quintic Hermite interpolation
    (Hairer, Norsett & Wanner, *Solving ODEs I*, II.6): f from
    (f, f', f''), f' from (f', f'', f''') and f'' from (f'', f''', f'''')
    at both of its ends, with f''' = -f g**(2-P) / c and f'''' =
    -(f' g**(2-P) + (2-P) f g**(1-P) f''') / c from the ODE (g = f'',
    c = P(P+1)), so no stage is added.  Node i of the N-step grid lies in
    march interval (i n) // N at theta = (i n mod N) / N, from integers,
    so every node on a march node, the last one included, keeps the
    marched row bit for bit.  Both repeat with the period D = N / gcd(n, N)
    nodes, d = n / gcd(n, N) intervals: node b D + r lies in interval
    b d + (r d) // D at theta = (r d mod D) / D, the same double.  Each
    column is one Horner pass in theta over the (gcd(n, N), D) array of
    nodes, with one gather buffer, so the sampler holds two arrays the
    size of ``out``.
    """
    n, N = len(states) - 1, len(out) - 1
    p, c = param.p, param.p * (param.p + 1.0)
    f, df, d2f = states.T
    g = np.maximum(d2f, 0.0)  # the clamp window counts as zero, as in the RHS
    power = g ** (2.0 - p)
    d3f = -f * power / c
    d4f = -(df * power + (2.0 - p) * f * g ** (1.0 - p) * d3f) / c
    derivatives = (f, df, d2f, d3f, d4f)
    common = math.gcd(n, N)
    d, D = n // common, N // common
    offset, theta = np.divmod(np.arange(D) * d, D)
    theta = theta / D
    column, gathered = np.empty((common, D)), np.empty((common, D))
    for m in range(3):
        u, du, ddu = derivatives[m : m + 3]
        delta, a, b = u[1:] - u[:-1], h * du[:-1], h * h * ddu[:-1]
        a1, b1 = h * du[1:], h * h * ddu[1:]
        coefficients = (
            u[:-1],
            a,
            b / 2.0,
            10.0 * delta - 6.0 * a - 4.0 * a1 - (3.0 * b - b1) / 2.0,
            -15.0 * delta + 8.0 * a + 7.0 * a1 + (3.0 * b - 2.0 * b1) / 2.0,
            6.0 * delta - 3.0 * a - 3.0 * a1 - (b - b1) / 2.0,
        )
        # mode "clip" (every offset is in range) writes to out= unbuffered
        np.take(coefficients[-1].reshape(common, d), offset, axis=1, out=column, mode="clip")
        for coefficient in coefficients[-2::-1]:
            column *= theta
            column += np.take(coefficient.reshape(common, d), offset, axis=1, out=gathered, mode="clip")
        out[:-1, m] = column.ravel()
    out[::D] = states[::d]
    return out


def _starred_profile(param: ModelParameter, states: np.ndarray, grid: GridSpec) -> SolutionProfile:
    """The starred profile on ``grid`` from the rows marched over its [0, E], sampled when the march is coarser.

    At P > 1 only the head of a coarser march is sampled, up to row k:
    the last march row on a node of ``grid`` before the first with
    v = max(f'', 0)**(P-1) < ``_TAIL_SWITCH``, and at least ten steps of
    ``grid`` before E.  :func:`_march` steps ``grid`` on from the head.
    With no such first row the whole march is sampled; when the head
    spans fewer than ten steps of ``grid``, it is the wall row alone.
    """
    n, N = len(states) - 1, grid.step_count
    if n != N:
        common = math.gcd(n, N)
        d, D = n // common, N // common  # march row q d is node q D of grid
        q = common
        if param.p > 1.0:
            low = np.maximum(states[:, 2], 0.0) ** (param.p - 1.0) < _TAIL_SWITCH
            if low.any():
                q = min((int(low.argmax()) - 1) // d, (N - 10) // D)
                q = q if q * D >= 10 else 0
        head = _sample(param, states[: q * d + 1], grid.endpoint / n, np.empty((q * D + 1, 3))) if q else states[:1]
        states = head if q == common else _march(param, grid.step, N, head)
    return SolutionProfile(frame="starred", abscissae=grid.abscissae(), values=model.project_curvature(param, states))


def integrate_starred(param: ModelParameter, grid: GridSpec) -> SolutionProfile:
    """Integrate the model in starred variables from (0, 0, 1).

    The march runs on :func:`_march_grid`, and a coarser march is
    sampled onto ``grid``, at P > 1 only up to the touchdown's approach,
    from where ``grid`` is stepped (:func:`_starred_profile`).  The
    profile has f*''(0) = 1 exactly, non-negative curvature everywhere
    (touchdown overshoot is projected to zero) and, for a converged
    boundary, a slope plateau near the endpoint.
    """
    march = _march_grid(param, grid)
    return _starred_profile(param, _march(param, march.step, march.step_count, np.array([(0.0, 0.0, 1.0)])), grid)


def find_truncated_boundary(param: ModelParameter, step: float) -> SolutionProfile:
    """Starred profile up to the first of 5, 10, 20, ... with |f*''| < 1e-8.

    Operationalizes truncation "found by trial": the wall-shear decay
    |f*''(E)| < 1e-8 certifies that the slope has stopped changing (for
    the Newtonian case E lands on the benchmark boundary 10).  Each
    candidate E the step divides (GridSpec's 1e-12 rule) extends one
    march from the wall to :func:`_march_grid` of ``GridSpec(step, E)``,
    and the accepted candidate's rows fill that grid as
    :func:`integrate_starred` does, so the profile is the fixed-boundary
    solve's bit for bit and a blow-up reports its time from the wall.  A
    step that does not divide 5 lands on the later candidates.  The test
    is signed, f*''(E) < 1e-8: for P > 1 the stored curvature past the
    touchdown may be an undershoot, which the final projection zeroes.

    Raises ``ValueError`` when the step divides no candidate, and, as
    ``GridSpec`` does, when the first candidate it divides spans fewer
    than ten steps or a candidate reached spans more than
    ``MAX_STEP_COUNT``; :class:`NoPlateauError` once the doubling cap
    (2**10 * 5) is exhausted.
    """
    states = np.array([(0.0, 0.0, 1.0)])
    for endpoint in (_SEARCH_START * 2.0**j for j in range(_DOUBLING_CAP + 1)):
        ratio = endpoint / step
        # past the step cap GridSpec raises; round() would fail on an inf ratio
        if ratio <= MAX_STEP_COUNT and abs(round(ratio) * step - endpoint) > 1e-12 * endpoint:
            continue
        grid = GridSpec(step, endpoint)
        march = _march_grid(param, grid)
        states = _march(param, march.step, march.step_count, states)
        if states[-1, 2] < _SEARCH_TOL:
            return _starred_profile(param, states, grid)
    if len(states) == 1:
        raise ValueError(f"step {step!r} divides none of the candidates 5 to {endpoint:g}")
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

    Two knobs set the starred grid: ``step``, the spacing of the
    returned profiles, and the truncated boundary ``eta_inf`` (default
    10.0; with the default step 1e-3 that is the published benchmark
    grid).  A step finer than the march's (0.02 of the starred unit
    length at P <= 1, about 0.01 at P > 1) is filled by interpolation
    from the march, at P > 1 up to the touchdown's approach and stepped
    on from there; see the module docstring.
    ``eta_inf="auto"`` takes the starred profile the boundary search
    :func:`find_truncated_boundary` integrated, in one search; with no
    ``step`` it searches at 0.025 for P <= 1 and at 1e-3 for P > 1.  The
    boundary must be an integer multiple of the step, else
    :class:`GridSpec` raises ``ValueError``.
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
