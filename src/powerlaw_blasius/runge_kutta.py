"""Fixed-step explicit Runge-Kutta integration for small first-order systems.

The boundary-layer solvers in this package integrate a three-component
state (f, f', f'') over 10^4 - 10^6 uniform steps, so the stepping core
works on plain float tuples; numpy enters only at the output surface.
Two schemes are embedded as literal tableau constants:

* ``COOPER_VERNER_8`` -- the 11-stage explicit method of order 8 by
  Cooper and Verner (SIAM J. Numer. Anal. 9, 1972), built on the
  5-point Lobatto quadrature with sqrt(21) nodes.  Its order is pinned
  empirically by the convergence tests.
* ``CLASSIC_RK4`` -- the classical 4-stage method of order 4, used for
  convergence cross-checks and as the cheap inner integrator of the
  shooting oracle's bracketing phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import RhsBlowUpError, StateBlowUpError

__all__ = [
    "ButcherTableau",
    "GridSpec",
    "COOPER_VERNER_8",
    "CLASSIC_RK4",
    "STATE_LIMIT",
    "single_step",
    "integrate",
]

RhsFunction = Callable[[float, tuple], Sequence[float]]

#: Magnitude at which an integration state is declared divergent.  Valid
#: boundary-layer runs stay below ~1e4, so this only trips on blow-up.
STATE_LIMIT = 1e12

#: Largest grid a GridSpec accepts: 10**7 steps store 240 MB of states
#: and take minutes to step (the finest grid in use has 640 000).
MAX_STEP_COUNT = 10**7

_CONSISTENCY_TOL = 1e-14


@dataclass(frozen=True)
class ButcherTableau:
    """Coefficients of an explicit Runge-Kutta scheme.

    ``coupling`` must be strictly lower triangular (explicitness), the
    weights must sum to one (consistency) and each node must equal its
    coupling row sum (the usual row-sum condition).  All three are
    enforced at construction time.
    """

    nodes: tuple
    weights: tuple
    coupling: tuple
    declared_order: int

    def __post_init__(self):
        nodes = tuple(float(c) for c in self.nodes)
        weights = tuple(float(b) for b in self.weights)
        coupling = tuple(tuple(float(a) for a in row) for row in self.coupling)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "coupling", coupling)

        s = len(nodes)
        if s == 0:
            raise ValueError("tableau needs at least one stage")
        if len(weights) != s or len(coupling) != s:
            raise ValueError("nodes, weights and coupling disagree on stage count")
        if self.declared_order < 1:
            raise ValueError("declared_order must be a positive integer")
        for i, row in enumerate(coupling):
            if len(row) > i:
                raise ValueError(f"coupling row {i} reaches stage {len(row) - 1}: not explicit")
        if abs(math.fsum(weights) - 1.0) > _CONSISTENCY_TOL:
            raise ValueError(f"weights sum to {math.fsum(weights)!r}, expected 1")
        for i, row in enumerate(coupling):
            if abs(math.fsum(row) - nodes[i]) > _CONSISTENCY_TOL:
                raise ValueError(f"row-sum condition violated at stage {i}")

        # sparse layout used by the stepping loop: (j, a_ij) for a_ij != 0
        rows = tuple(tuple((j, a) for j, a in enumerate(row) if a != 0.0) for row in coupling)
        terms = tuple((j, b) for j, b in enumerate(weights) if b != 0.0)
        object.__setattr__(self, "_stage_rows", rows)
        object.__setattr__(self, "_weight_terms", terms)

    @property
    def stage_count(self) -> int:
        return len(self.nodes)

    def coupling_matrix(self) -> np.ndarray:
        """Dense (s, s) strictly lower triangular coupling matrix."""
        s = self.stage_count
        a = np.zeros((s, s))
        for i, row in enumerate(self.coupling):
            a[i, : len(row)] = row
        return a


@dataclass(frozen=True)
class GridSpec:
    """Uniform integration grid on [0, endpoint] with the given step.

    The endpoint must be an integer multiple of the step (relative
    tolerance 1e-12) so the final node lands on it exactly, and the grid
    must contain at least ten and at most ``MAX_STEP_COUNT`` steps.
    """

    step: float
    endpoint: float

    def __post_init__(self):
        object.__setattr__(self, "step", float(self.step))
        object.__setattr__(self, "endpoint", float(self.endpoint))
        if not (self.step > 0.0 and math.isfinite(self.step)):
            raise ValueError(f"step must be positive, got {self.step!r}")
        if not (self.endpoint > 0.0 and math.isfinite(self.endpoint)):
            raise ValueError(f"endpoint must be positive, got {self.endpoint!r}")
        ratio = self.endpoint / self.step
        if ratio > MAX_STEP_COUNT:  # before round(): a subnormal step makes ratio inf
            raise ValueError(f"endpoint/step = {ratio:.3g}: more than {MAX_STEP_COUNT:.0e} steps")
        n = round(ratio)
        if n < 10:
            raise ValueError(f"endpoint/step = {ratio:.3g}: need at least 10 steps")
        if abs(n * self.step - self.endpoint) > 1e-12 * self.endpoint:
            raise ValueError(
                f"endpoint {self.endpoint!r} is not an integer multiple of step {self.step!r}"
            )

    @property
    def step_count(self) -> int:
        return round(self.endpoint / self.step)

    def abscissae(self) -> np.ndarray:
        """Node locations i*step, with the final node pinned to the endpoint."""
        t = self.step * np.arange(self.step_count + 1)
        t[-1] = self.endpoint
        return t


_SQRT21 = math.sqrt(21.0)

COOPER_VERNER_8 = ButcherTableau(
    nodes=(
        0.0,
        1 / 2,
        1 / 2,
        (7 + _SQRT21) / 14,
        (7 + _SQRT21) / 14,
        1 / 2,
        (7 - _SQRT21) / 14,
        (7 - _SQRT21) / 14,
        1 / 2,
        (7 + _SQRT21) / 14,
        1.0,
    ),
    weights=(1 / 20, 0, 0, 0, 0, 0, 0, 49 / 180, 16 / 45, 49 / 180, 1 / 20),
    coupling=(
        (),
        (1 / 2,),
        (1 / 4, 1 / 4),
        (1 / 7, (-7 - 3 * _SQRT21) / 98, (21 + 5 * _SQRT21) / 49),
        ((11 + _SQRT21) / 84, 0, (18 + 4 * _SQRT21) / 63, (21 - _SQRT21) / 252),
        ((5 + _SQRT21) / 48, 0, (9 + _SQRT21) / 36, (-231 + 14 * _SQRT21) / 360, (63 - 7 * _SQRT21) / 80),
        (
            (10 - _SQRT21) / 42,
            0,
            (-432 + 92 * _SQRT21) / 315,
            (633 - 145 * _SQRT21) / 90,
            (-504 + 115 * _SQRT21) / 70,
            (63 - 13 * _SQRT21) / 35,
        ),
        (1 / 14, 0, 0, 0, (14 - 3 * _SQRT21) / 126, (13 - 3 * _SQRT21) / 63, 1 / 9),
        (
            1 / 32,
            0,
            0,
            0,
            (91 - 21 * _SQRT21) / 576,
            11 / 72,
            (-385 - 75 * _SQRT21) / 1152,
            (63 + 13 * _SQRT21) / 128,
        ),
        (
            1 / 14,
            0,
            0,
            0,
            1 / 9,
            (-733 - 147 * _SQRT21) / 2205,
            (515 + 111 * _SQRT21) / 504,
            (-51 - 11 * _SQRT21) / 56,
            (132 + 28 * _SQRT21) / 245,
        ),
        (
            0,
            0,
            0,
            0,
            (-42 + 7 * _SQRT21) / 18,
            (-18 + 28 * _SQRT21) / 45,
            (-273 - 53 * _SQRT21) / 72,
            (301 + 53 * _SQRT21) / 72,
            (28 - 28 * _SQRT21) / 45,
            (49 - 7 * _SQRT21) / 18,
        ),
    ),
    declared_order=8,
)

CLASSIC_RK4 = ButcherTableau(
    nodes=(0.0, 1 / 2, 1 / 2, 1.0),
    weights=(1 / 6, 1 / 3, 1 / 3, 1 / 6),
    coupling=((), (1 / 2,), (0, 1 / 2), (0, 0, 1.0)),
    declared_order=4,
)


def _step(rhs, nodes, stage_rows, weight_terms, t: float, y: tuple, h: float) -> tuple:
    """One explicit RK step from (t, y); y is a tuple of floats."""
    idx = range(len(y))
    isfinite = math.isfinite
    k = []
    append = k.append
    stage = 0
    for ci, row in zip(nodes, stage_rows):
        if row:
            ys = list(y)
            for j, a in row:
                ha = h * a
                kj = k[j]
                for m in idx:
                    ys[m] += ha * kj[m]
            ts = t + ci * h
            ki = rhs(ts, tuple(ys))
        else:
            ts = t + ci * h
            ki = rhs(ts, y)
        for v in ki:
            if not isfinite(v):
                raise RhsBlowUpError(ts, stage)
        append(ki)
        stage += 1
    out = list(y)
    for j, b in weight_terms:
        hb = h * b
        kj = k[j]
        for m in idx:
            out[m] += hb * kj[m]
    return tuple(out)


def single_step(rhs: RhsFunction, tableau: ButcherTableau, t: float, y, h: float) -> np.ndarray:
    """Advance the state y by one step of size h > 0.

    ``rhs(t, y)`` receives the state as a tuple of floats and must return
    one derivative per component.  Deterministic: identical inputs give
    bit-identical output.  Raises :class:`RhsBlowUpError` if any stage
    evaluates non-finite.
    """
    if not h > 0.0:
        raise ValueError(f"step size must be positive, got {h!r}")
    y0 = tuple(float(v) for v in y)
    for v in y0:
        if not math.isfinite(v):
            raise ValueError("initial state must be finite")
    return np.array(
        _step(rhs, tableau.nodes, tableau._stage_rows, tableau._weight_terms, float(t), y0, h)
    )


def integrate(
    rhs: RhsFunction,
    tableau: ButcherTableau,
    grid: GridSpec,
    y0,
    adjust_state: Callable[[float, tuple], tuple] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate y' = rhs(t, y) over the grid from y0.

    Returns ``(t, y)`` with ``t`` the step_count + 1 node locations
    (computed as i*step, not by accumulation, so there is no drift) and
    ``y`` the (step_count + 1, dim) state samples; ``y[0]`` is ``y0``
    exactly.  ``adjust_state``, when given, maps each post-step state to
    the state actually stored and advanced -- the model layer uses it to
    project rounding-scale curvature undershoot back onto f'' >= 0.

    Raises :class:`RhsBlowUpError` on a non-finite stage evaluation and
    :class:`StateBlowUpError` when any component exceeds ``STATE_LIMIT``.
    """
    y = tuple(float(v) for v in y0)
    for v in y:
        if not math.isfinite(v):
            raise ValueError("initial state must be finite")
    n = grid.step_count
    h = grid.step
    nodes = tableau.nodes
    stage_rows = tableau._stage_rows
    weight_terms = tableau._weight_terms
    limit = STATE_LIMIT
    out = np.empty((n + 1, len(y)))
    out[0] = y
    for i in range(n):
        t_next = (i + 1) * h
        y = _step(rhs, nodes, stage_rows, weight_terms, i * h, y, h)
        if adjust_state is not None:
            y = adjust_state(t_next, y)
        for v in y:
            # NaN fails the chained comparison too, so this covers non-finite
            if not -limit <= v <= limit:
                raise StateBlowUpError(t_next, limit)
        out[i + 1] = y
    return grid.abscissae(), out
