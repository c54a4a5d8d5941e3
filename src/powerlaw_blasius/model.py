"""The extended Blasius model for power-law boundary layers.

Flow of a power-law fluid past a flat plate reduces, in similarity
variables, to the third-order problem

    P (P + 1) f''' + f (f'')^(2 - P) = 0,
    f(0) = f'(0) = 0,   f'(eta) -> 1  as  eta -> infinity,

with P the power-law index; P = 1 recovers the classical Blasius
equation f''' + f f'' / 2 = 0.  The equation and its wall conditions are
invariant under the one-parameter stretching group

    f* = a**(2P - 1) f,   eta* = a**(P - 2) eta,   a > 0,

which is what the non-iterative transformation in
:mod:`powerlaw_blasius.transform` exploits (at P = 0.5 a pure stretch
of eta).  Its literature form f* = lam f, eta* = lam**delta eta, with
lam = a**(2P - 1) and delta = (P - 2)/(2P - 1), is singular at P = 0.5
and only reported.

This module owns the parameter domain, the ODE right-hand side, the
closed-form Pohlhausen estimate of the wall shear, and the embedded
table of published skin-friction values used for regression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CurvatureError, DomainError

__all__ = [
    "ModelParameter",
    "ReferenceRow",
    "make_parameter",
    "pohlhausen_skin_friction",
    "reference_table",
]

#: For P <= 1 curvature below -noise is an error; within [-noise, 0) it
#: is rounding debris near the asymptote and is treated as exactly zero.
CURVATURE_NOISE = 1e-12


@dataclass(frozen=True)
class ModelParameter:
    """Validated power-law index with its reported scaling exponent delta."""

    p: float
    delta: float


@dataclass(frozen=True)
class ReferenceRow:
    """One row of published skin-friction values f''(0) for the index p.

    ``acrivos`` is the value reported by Acrivos, Shah & Petersen for the
    same problem, ``pohlhausen`` the momentum-integral estimate as
    published, and ``nonitm`` the published result of the non-iterative
    transformation method itself -- the regression target for this
    package.  Blank cells in the source table are ``None``.
    """

    p: float
    acrivos: float | None
    pohlhausen: float | None
    nonitm: float | None


_REFERENCE_TABLE = (
    ReferenceRow(0.05, 1.400938, 0.214892, 1.540752),
    ReferenceRow(0.1, 0.729857, 0.221302, 0.826478),
    ReferenceRow(0.2, 0.505623, 0.237305, 0.490342),
    ReferenceRow(0.3, 0.354290, 0.244046, 0.391515),
    ReferenceRow(0.4, None, None, 0.350396),
    ReferenceRow(0.5, 0.331200, 0.268324, None),
    ReferenceRow(0.6, None, None, 0.3239457),
    ReferenceRow(0.7, None, None, 0.3220337),
    ReferenceRow(0.8, None, None, 0.323544),
    ReferenceRow(0.9, None, None, 0.327139),
    ReferenceRow(1.0, 0.33206, 0.323, 0.332057),
    ReferenceRow(1.5, 0.363215, 0.384047, 0.398432),
)


def reference_table() -> tuple[ReferenceRow, ...]:
    """The embedded table of published reference values, verbatim."""
    return _REFERENCE_TABLE


def _validate_index(p: float) -> float:
    p = float(p)
    if not p > 0.0:
        raise DomainError(f"{'non-finite' if math.isnan(p) else 'nonpositive'} index at P={p:g}")
    if p >= 2.0:
        raise DomainError(f"outside laminar range at P={p:g}")
    return p


def make_parameter(p: float) -> ModelParameter:
    """Validate the power-law index and attach its reported exponent delta.

    Accepted domain: 0 < p < 2, p = 0.5 included.  p = 0 kills the
    third-derivative term and the flow is no longer an asymptotic
    laminar state for p >= 2; each exclusion, and a NaN index, raises
    :class:`DomainError` with its own message.  delta = (p - 2)/(2p - 1)
    is reported only; at p = 0.5 it is -inf, the IEEE quotient
    -1.5/+0.0.
    """
    p = _validate_index(p)
    return ModelParameter(p=p, delta=(p - 2.0) / (2.0 * p - 1.0) if p != 0.5 else -math.inf)


def _clamp_window(param: ModelParameter) -> float:
    """Most negative curvature still clamped to zero at P (any, for P > 1); below it is an error."""
    return -math.inf if param.p > 1.0 else -CURVATURE_NOISE


def ivp_rhs(param: ModelParameter):
    """Right-hand side f(t, y) of the model as a first-order system.

    For y = (f, f', f'') returns (f', f'', -f (f'')^(2-P) / (P (P+1))).
    The fractional power is real only for non-negative curvature.  For
    P <= 1, f'' in the clamp window [-1e-12, 0) counts as zero and
    anything more negative raises :class:`CurvatureError`.  For P > 1,
    where f'' falls monotonically to zero and stays there, every
    negative f'' is a step's touchdown overshoot and counts as zero.
    Once a step starts from f'' <= 0 every stage sees zero curvature, so
    f' stays constant, f is linear and the stored f'' stays frozen until
    :func:`project_curvature` sets it to zero.
    """
    window = _clamp_window(param)
    coef = param.p * (param.p + 1.0)
    ex = 2.0 - param.p

    def f(t: float, y: tuple) -> tuple[float, float, float]:
        fval, df, d2f = y
        if d2f < 0.0:
            if d2f < window:
                raise CurvatureError(f"negative curvature f''={d2f:.6g} at P={param.p:g}")
            d2f = 0.0
        return (df, d2f, -fval * d2f**ex / coef)

    return f


def project_curvature(param: ModelParameter, values: np.ndarray) -> np.ndarray:
    """Set stored curvature in the clamp window to zero, in place, and return ``values``.

    ``values`` holds (f, f', f'') rows as the integrator stored them.
    Rounding-scale undershoot (and, for P > 1, any touchdown overshoot)
    in the column f'' becomes exactly 0.0, the value :func:`ivp_rhs`
    already integrated with.  For P <= 1 anything below the window
    raises :class:`CurvatureError`.
    """
    d2f = values[:, 2]
    i = int(d2f.argmin())
    if d2f[i] < _clamp_window(param):
        raise CurvatureError(f"curvature sign loss at row {i}: f''={d2f[i]:.6g} (P={param.p:g})")
    if d2f[i] < 0.0:
        d2f[d2f < 0.0] = 0.0
    return values


def pohlhausen_skin_friction(p: float) -> float:
    """Momentum-integral estimate of f''(0), exactly as published:

        [ (39/280) * 1.5/(p+1) ] ** (p**2 / (p+1))

    Matches the published table at p = 1 (0.32321 vs 0.323) but disagrees
    strongly with it elsewhere (e.g. 0.99616 vs 0.214892 at p = 0.05).
    The formula is reproduced verbatim on purpose; the ``pohlhausen``
    CLI command reports the discrepancies instead of hiding them.
    """
    p = _validate_index(p)
    base = (39.0 / 280.0) * 1.5 / (p + 1.0)
    return base ** (p * p / (p + 1.0))
