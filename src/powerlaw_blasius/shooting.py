"""Classical shooting solver, kept as an independent cross-check.

Shooting iterates on the unknown wall curvature until the far-field
condition f'(eta_inf) = 1 is met, which is exactly the work the
non-iterative transformation avoids.  The two solvers share nothing but
the ODE and the integrator, so agreement between them validates the
scaling-group logic.

The root finder works in log-log coordinates, log f''(0) against
log f'(eta_inf), where the residual is close to a straight line.  An
Illinois loop (Dowell & Jarratt, BIT 11, 1971) finds the root on a
coarse grid with the caller's endpoint.  For P <= 1 its step is a fixed
fraction of the physical length of the bracket's finest shot, the
length the transform's march is set by too; for P > 1 it is 0.02.  For
P <= 1 one more shot at half the coarse step certifies the root by step
doubling (Hairer, Norsett & Wanner, *Solving ODEs I*, II.4) when the two
grids agree well inside the tolerance; otherwise, and always for P > 1,
chord steps carry it onto the caller's grid.

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

#: Step of the P > 1 coarse grid the root is found on.  A shot on it
#: costs about 1/20 of one on a 1e-3 grid; the chord steps on the
#: caller's grid then only certify the root.
_COARSE_STEP = 0.02

#: P <= 1 coarse step in units of the physical length of the shot at the
#: bracket's upper end, (P(P+1))**(1/3) bracket_high**(-(2-P)/3), the
#: finest of the bracket.  At P = 1 that shot loses its curvature sign
#: from kappa = 0.178 (bracket_high = 2.5, on E = 14 and 231 alike) to
#: 0.168 (bracket_high = 100); the loss starts higher below P = 1 (0.54
#: at P = 0.9) and not below kappa = 1 at P <= 0.5.  This keeps a margin
#: of two; the step is 0.074 at P = 1 and bracket_high = 2.5.
_COARSE_KAPPA = 0.08

#: Shots allowed in one solve, counted over every grid.
_MAX_ITERATIONS = 100


@dataclass(frozen=True)
class ShootingConfig:
    """Bracket, tolerance and grid for one shooting solve.

    The root has |f'(endpoint) - 1| < ``residual_tol`` on ``grid``:
    measured there, or for P <= 1 estimated by a step-doubling pair of
    coarser grids, allowing one ulp per step of ``grid`` for its rounding.
    The root on ``grid`` can lie outside the bracket by the offset from
    the coarse grid's root (2.4e-7 relative at P = 1.5, step 1e-3).
    """

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

    Three phases, one grid each, on x = log f''(0), y = log f'(endpoint).
    Find: bracketed Illinois (regula falsi that halves a stale end's
    value) runs on a coarse grid with the caller's endpoint, up to the
    first shot r_c within the tolerance.  Its step is ~``_COARSE_KAPPA``
    of (P(P+1))**(1/3) bracket_high**(-(2-P)/3) for P <= 1, the physical
    length of the shot at the bracket's upper end, whose grid is the
    finest any shot in the bracket needs; it is ~``_COARSE_STEP`` for
    P > 1.  A caller grid no finer than that is used alone.  Step
    doubling: for P <= 1 and a caller grid finer than half the coarse
    step, the root is shot once at half the coarse step, r_h, and
    returned if |r_h| + |r_c - r_h| + N ulp(1) < residual_tol, for the N
    steps of the caller's grid.  The right-hand side is smooth there, so
    the order-8 error at the half step is about |r_c - r_h|/255 and the
    caller's finer grid errs less still; N ulp(1) allows for the rounding
    of its N steps, which the pair does not see.  Caller's grid:
    otherwise, and always for P > 1, where the touchdown breaks that
    error law, chord steps x <- x - y (b - a)/(yb - ya) along the chord
    that gave the coarse root go on there until |r| < residual_tol,
    free of the bracket.  Every shot counts against ``_MAX_ITERATIONS``.
    Deterministic: repeated runs are bit-identical.
    """
    grid, tol, p = config.grid, config.residual_tol, param.p
    if p > 1.0:
        coarse = _COARSE_STEP
    else:
        coarse = _COARSE_KAPPA * (p * (p + 1.0)) ** (1.0 / 3.0) * config.bracket_high ** (-(2.0 - p) / 3.0)
    n = max(10, round(min(grid.endpoint / coarse, grid.step_count)))
    on = GridSpec(grid.endpoint / n, grid.endpoint) if n < grid.step_count else grid
    shots = 0

    def measure(guess, at):
        """Residual and log f'(endpoint) of one counted shot on ``at``."""
        nonlocal shots
        if shots >= _MAX_ITERATIONS:
            raise ConvergenceError(f"no convergence after {shots} shots")
        shots += 1
        r = shoot(param, guess, at)
        return r, math.log1p(r) if r > -1.0 else -math.inf

    lo, hi = config.bracket_low, config.bracket_high
    (r_lo, ya), (r_hi, yb) = measure(lo, on), measure(hi, on)
    if not r_lo * r_hi < 0.0:
        raise BracketError(
            f"bracket invalid: residual signs agree at [{lo:g}, {hi:g}] "
            f"({r_lo:.3g}, {r_hi:.3g}) for P={param.p:g}"
        )
    a, b, kept = math.log(lo), math.log(hi), None
    while True:
        x = (a * yb - b * ya) / (yb - ya)
        if not a < x < b:
            x = 0.5 * (a + b)
        guess = math.exp(x)
        r, y = measure(guess, on)
        if abs(r) < tol:
            break
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
    if on is grid:
        return guess
    # step doubling, where the touchdown cannot break the error law, a
    # half grid is cheaper than the caller's, and the caller's rounding,
    # one ulp of f' ~ 1 a step, leaves room
    slack = tol - grid.step_count * math.ulp(1.0)
    if p <= 1.0 and 2 * n < grid.step_count and slack > 0.0:
        r_half = measure(guess, GridSpec(grid.endpoint / (2 * n), grid.endpoint))[0]
        if abs(r_half) + abs(r - r_half) < slack:
            return guess
    # chord steps on the caller's grid along the chord that gave the root
    slope = (b - a) / (yb - ya)
    r, y = measure(guess, grid)
    while not abs(r) < tol:
        x -= y * slope
        guess = math.exp(x)
        r, y = measure(guess, grid)
    return guess


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
