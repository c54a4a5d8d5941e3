"""Classical shooting solver, kept as an independent cross-check.

Shooting iterates on the unknown wall curvature until the far-field
condition f'(eta_inf) = 1 is met, which is exactly the work the
non-iterative transformation avoids.  The two solvers share nothing but
the Runge-Kutta integrator and the ODE itself, so agreement between
them validates the scaling-group logic.

The boundary residual of a truncated problem depends on where the
domain is truncated.  For P < 1 the curvature decays only algebraically,
so comparing the two solvers to 1e-6 requires shooting on the same
physical domain the transformation certified; :func:`matched_grid`
builds that grid from a transform result.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import model
from .errors import BlowUpError, BracketError, ConvergenceError, ShotDivergedError
from .model import ModelParameter
from .runge_kutta import CLASSIC_RK4, COOPER_VERNER_8, ButcherTableau, GridSpec, integrate
from .transform import TransformResult

__all__ = ["ShootingConfig", "shoot", "solve_by_shooting", "matched_grid"]

#: Bracket width below which bisection hands over to secant refinement.
_SECANT_HANDOVER = 1e-3

#: Bisection and secant iterations allowed in one solve, counted together.
_MAX_ITERATIONS = 100


@dataclass(frozen=True)
class ShootingConfig:
    """Bracket, tolerance and grid for one shooting solve."""

    bracket_low: float
    bracket_high: float
    grid: GridSpec
    residual_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.bracket_low < self.bracket_high:
            raise ValueError("need 0 < bracket_low < bracket_high")
        if not self.residual_tol > 0.0:
            raise ValueError("residual_tol must be positive")


def shoot(
    param: ModelParameter,
    guess: float,
    grid: GridSpec,
    tableau: ButcherTableau = COOPER_VERNER_8,
) -> float:
    """Boundary residual f'(endpoint) - 1 for the curvature guess.

    Integrates the physical initial-value problem from (0, 0, guess).
    The residual is strictly increasing in the guess, which is what
    makes bracketing sound.  Blow-ups surface as
    :class:`ShotDivergedError` carrying the guess.
    """
    if not guess > 0.0:
        raise ValueError(f"curvature guess must be positive, got {guess!r}")
    try:
        _, states = integrate(
            model.ivp_rhs(param),
            tableau,
            grid,
            (0.0, 0.0, float(guess)),
            adjust_state=model.curvature_guard(param),
        )
    except BlowUpError as exc:
        raise ShotDivergedError(float(guess), exc) from exc
    return float(states[-1, 1]) - 1.0


def solve_by_shooting(param: ModelParameter, config: ShootingConfig) -> float:
    """Wall curvature f''(0) with |f'(endpoint) - 1| < residual_tol.

    Bisection (on the cheap order-4 scheme) shrinks the bracket to
    1e-3, then secant steps on the order-8 residual finish the root;
    secant iterates that leave the bracket fall back to its midpoint.
    Deterministic: repeated runs are bit-identical.
    """
    lo, hi = config.bracket_low, config.bracket_high
    grid = config.grid
    r_lo = shoot(param, lo, grid, tableau=CLASSIC_RK4)
    r_hi = shoot(param, hi, grid, tableau=CLASSIC_RK4)
    if not r_lo * r_hi < 0.0:
        raise BracketError(
            f"bracket invalid: residual signs agree at [{lo:g}, {hi:g}] "
            f"({r_lo:.3g}, {r_hi:.3g}) for P={param.p:g}"
        )
    iterations = 0

    while hi - lo > _SECANT_HANDOVER:
        if iterations >= _MAX_ITERATIONS:
            raise ConvergenceError(f"no convergence after {iterations} iterations (bisection)")
        mid = 0.5 * (lo + hi)
        r_mid = shoot(param, mid, grid, tableau=CLASSIC_RK4)
        if r_lo * r_mid < 0.0:
            hi, r_hi = mid, r_mid
        else:
            lo, r_lo = mid, r_mid
        iterations += 1

    x_prev, x_cur = lo, hi
    r_prev = shoot(param, x_prev, grid)
    r_cur = shoot(param, x_cur, grid)
    while iterations < _MAX_ITERATIONS:
        if abs(r_cur) < config.residual_tol:
            return x_cur
        if abs(r_prev) < config.residual_tol:
            return x_prev
        if r_cur == r_prev:
            x_next = 0.5 * (lo + hi)
        else:
            x_next = x_cur - r_cur * (x_cur - x_prev) / (r_cur - r_prev)
            if not lo <= x_next <= hi:
                x_next = 0.5 * (lo + hi)
        r_next = shoot(param, x_next, grid)
        # keep the bracket current so midpoint fallbacks stay valid
        if r_lo * r_next < 0.0:
            hi = x_next
        else:
            lo, r_lo = x_next, r_next
        x_prev, r_prev, x_cur, r_cur = x_cur, r_cur, x_next, r_next
        iterations += 1
    raise ConvergenceError(f"no convergence after {iterations} iterations (secant)")


def matched_grid(result: TransformResult, target_step: float = 1e-3) -> GridSpec:
    """Shooting grid on the physical domain a transform run certified.

    The endpoint is the physical image of the starred truncated
    boundary; the step is the closest divisor of it to ``target_step``,
    so the endpoint lands on the grid exactly.
    """
    endpoint = float(result.physical.abscissae[-1])
    n = max(10, round(endpoint / target_step))
    return GridSpec(endpoint / n, endpoint)
