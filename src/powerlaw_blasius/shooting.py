"""Classical shooting solver, kept as an independent cross-check.

Shooting iterates on the unknown wall curvature until the far-field
condition f'(eta_inf) = 1 is met, which is exactly the work the
non-iterative transformation avoids.  The two solvers share nothing but
the ODE and the integrator, so agreement between them validates the
scaling-group logic.

The root finder works in log-log coordinates, log f''(0) against
log f'(eta_inf), where the residual is close to a straight line.  One
Illinois loop finds the root on a coarse grid with the caller's
endpoint and then certifies it on the caller's grid, going on from the
coarse root when the first shot there misses.

The boundary residual of a truncated problem depends on where the
domain is truncated.  For P < 1 the curvature decays only algebraically,
so comparing the two solvers to 1e-6 requires shooting on the same
physical domain the transformation certified; :func:`matched_grid`
builds that grid from a transform result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BlowUpError, BracketError, ConvergenceError, CurvatureError, ShotDivergedError
from .model import ModelParameter, ivp_rhs
from .runge_kutta import COOPER_VERNER_8, GridSpec, integrate
from .transform import TransformResult

__all__ = ["ShootingConfig", "shoot", "solve_by_shooting", "matched_grid"]

#: Step of the coarse grid the root is found on.  A shot on it costs
#: about 1/20 of one on a 1e-3 grid; the caller's grid then only
#: certifies the root.
_COARSE_STEP = 0.02

#: Shots allowed in one solve, counted over both grids.
_MAX_ITERATIONS = 100


@dataclass(frozen=True)
class ShootingConfig:
    """Bracket, tolerance and grid for one shooting solve."""

    bracket_low: float
    bracket_high: float
    grid: GridSpec
    residual_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.bracket_low < self.bracket_high < math.inf:
            raise ValueError("need 0 < bracket_low < bracket_high < inf")
        if not 0.0 < self.residual_tol < math.inf:
            raise ValueError("residual_tol must be positive and finite")


def shoot(param: ModelParameter, guess: float, grid: GridSpec) -> float:
    """Boundary residual f'(endpoint) - 1 for the curvature guess.

    Integrates the physical initial-value problem from (0, 0, guess)
    with the order-8 scheme in one :func:`runge_kutta.integrate` call,
    which stops stepping at the P > 1 touchdown.  The residual is strictly
    increasing in the guess, which is what makes bracketing sound.
    Blow-ups, curvature sign loss and a right-hand side that overflows
    the float range (f''**(2 - P) for P < 1) surface as
    :class:`ShotDivergedError` carrying the guess.
    """
    if not 0.0 < guess < math.inf:
        raise ValueError(f"curvature guess must be positive and finite, got {guess!r}")
    try:
        states = integrate(ivp_rhs(param), COOPER_VERNER_8, grid, (0.0, 0.0, float(guess)))[1]
    except (BlowUpError, CurvatureError) as exc:
        raise ShotDivergedError(float(guess), exc) from exc
    except OverflowError as exc:
        raise ShotDivergedError(float(guess), OverflowError(f"rhs overflow {exc}")) from exc
    return float(states[-1, 1]) - 1.0


def solve_by_shooting(param: ModelParameter, config: ShootingConfig) -> float:
    """Wall curvature f''(0) with |f'(endpoint) - 1| < residual_tol on ``config.grid``.

    Bracketed Illinois (regula falsi that halves a stale end's value)
    runs on x = log f''(0), y = log f'(endpoint).  It starts on a grid of
    step ~``_COARSE_STEP`` with the caller's endpoint.  The first coarse
    shot within the tolerance is shot again on the caller's grid; if that
    misses, the same loop goes on there, with the halving count reset and
    the end values moved by the offset the two grids show at that root.
    It goes on inside the last coarse bracket, or inside the config
    bracket when the chord through the moved end values puts the root
    outside the last one.  A caller grid no finer than the coarse one is
    used alone.  Every shot counts against ``_MAX_ITERATIONS``.
    Deterministic: repeated runs are bit-identical.
    """
    grid, tol = config.grid, config.residual_tol
    n = max(10, round(grid.endpoint / _COARSE_STEP))
    on = GridSpec(grid.endpoint / n, grid.endpoint) if n < grid.step_count else grid
    shots = 0

    def measure(guess):
        """Residual and log f'(endpoint) of one counted shot on ``on``."""
        nonlocal shots
        if shots >= _MAX_ITERATIONS:
            raise ConvergenceError(f"no convergence after {shots} shots")
        shots += 1
        r = shoot(param, guess, on)
        return r, math.log1p(r) if r > -1.0 else -math.inf

    lo, hi = config.bracket_low, config.bracket_high
    (r_lo, ya), (r_hi, yb) = measure(lo), measure(hi)
    if not r_lo * r_hi < 0.0:
        raise BracketError(
            f"bracket invalid: residual signs agree at [{lo:g}, {hi:g}] "
            f"({r_lo:.3g}, {r_hi:.3g}) for P={param.p:g}"
        )
    a, b, kept = math.log(lo), math.log(hi), None
    first = a, b, ya, yb
    while True:
        x = (a * yb - b * ya) / (yb - ya)
        if not a < x < b:
            x = 0.5 * (a + b)
        guess = math.exp(x)
        r, y = measure(guess)
        if abs(r) < tol and on is not grid:
            # the coarse root, shot again on the caller's grid; moving the
            # coarse end values by the grids' offset keeps the next step
            # as good as a secant step through the coarse slope, and a root
            # that step puts outside the last bracket is sought in the first
            on, y_coarse = grid, y
            r, y = measure(guess)
            if not a < x - (y - y_coarse) * (b - a) / (yb - ya) < b:
                a, b, ya, yb = first
            ya, yb, kept = ya + (y - y_coarse), yb + (y - y_coarse), None
        if abs(r) < tol:
            return guess
        # Illinois: an end kept twice in a row has its value halved
        if ya * y < 0.0:
            b, yb = x, y
            if kept == "a":
                ya *= 0.5
            kept = "a"
        else:
            a, ya = x, y
            if kept == "b":
                yb *= 0.5
            kept = "b"


def matched_grid(result: TransformResult, target_step: float = 1e-3) -> GridSpec:
    """Shooting grid on the physical domain a transform run certified.

    The endpoint is the physical image of the starred truncated
    boundary; the step is the closest divisor of it to ``target_step``,
    so the endpoint lands on the grid exactly.  ``target_step`` must be
    positive and finite.
    """
    if not 0.0 < target_step < math.inf:
        raise ValueError(f"target_step must be positive and finite, got {target_step!r}")
    endpoint = float(result.physical.abscissae[-1])
    n = max(10, round(endpoint / target_step))
    return GridSpec(endpoint / n, endpoint)
