"""Fixed-step explicit Runge-Kutta integration for small first-order systems.

The boundary-layer solvers in this package integrate a three-component
state (f, f', f'') over 10^2 - 10^6 uniform steps, so the stepping loop
is straight-line Python over local floats: it is generated from the
tableau on first use, once per tableau, state dimension and stage, and
each step's state is stored through a flat view of the output array.
A stage calls the right-hand side, unless the right-hand side carries
its own Python source, as the model's does: then the loop inlines that
source as every stage and takes the constants it reads as arguments,
so one loop serves every P and the integrator knows nothing of the
model.  Nothing is compiled at import.
The loop stops on the first state the right-hand side absorbs (the
model past the P > 1 touchdown), and ``_constant_rows`` fills the rows
after it with numpy, bit for bit the rows the loop would store.
The one scheme the solvers step with is the literal tableau constant
``COOPER_VERNER_8``: the 11-stage explicit method of order 8 by Cooper
and Verner (SIAM J. Numer. Anal. 9, 1972), built on the 5-point Lobatto
quadrature with sqrt(21) nodes.  Its order is pinned empirically by the
convergence tests.  Any other scheme is a :class:`ButcherTableau` the
caller builds.
"""

from __future__ import annotations

import functools
import keyword
import math
import symtable
import textwrap
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BlowUpError

__all__ = [
    "ButcherTableau",
    "GridSpec",
    "COOPER_VERNER_8",
    "integrate",
]

RhsFunction = Callable[[float, tuple], Sequence[float]]

#: Magnitude at which an integration state is declared divergent.  Valid
#: boundary-layer runs stay below ~1e4, so this only trips on blow-up.
STATE_LIMIT = 1e12

#: Largest grid a GridSpec accepts: 10**7 steps store 240 MB of states
#: and take minutes to step.  The finest grid in use is about a quarter
#: of it: ``eta_inf="auto"`` at P = 0.05 and step 1e-3 ends on E = 2560,
#: 2 560 000 steps.
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
        if not all(map(math.isfinite, (*nodes, *weights, *(a for row in coupling for a in row)))):
            raise ValueError("tableau coefficients must be finite")
        if not (isinstance(self.declared_order, int) and self.declared_order >= 1):
            raise ValueError("declared_order must be a positive integer")
        for i, row in enumerate(coupling):
            if len(row) > i:
                raise ValueError(f"coupling row {i} reaches stage {len(row) - 1}: not explicit")
        if abs(math.fsum(weights) - 1.0) > _CONSISTENCY_TOL:
            raise ValueError(f"weights sum to {math.fsum(weights)!r}, expected 1")
        for i, row in enumerate(coupling):
            if abs(math.fsum(row) - nodes[i]) > _CONSISTENCY_TOL:
                raise ValueError(f"row-sum condition violated at stage {i}")

    @property
    def stage_count(self) -> int:
        return len(self.nodes)


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


def _state_blow_up(t: float, limit: float) -> str:
    """The message of a state beyond ``limit`` at t, from the loop and from :func:`_constant_rows`."""
    return f"state blow-up at t={t:.6g}: component exceeds {limit:.1e}"


#: Skeleton of the stepping loop; _kernel fills in one line per hoisted
#: product, the absorbing test, the lines of each stage and one line
#: per state component in the update and in the store.
_KERNEL_SOURCE = """
def kernel(rhs, out, y, h, limit{constants}):
{products}
    {state} = y
    store = memoryview(out).cast("B").cast("d")
    t = 0.0
    for i in range(1, len(out)):
{absorbed}
        t_next = i * h
{stages}
{update}
        # NaN fails the chained comparison too, so this covers non-finite
        if not ({bounded}):
            raise BlowUpError(t_next, state_blow_up(t_next, limit))
        j = i * {dim}
{store}
        t = t_next
    return len(out) - 1
"""


def _loop_source(tableau: ButcherTableau, dim: int, source=None, constants: tuple = (), absorbing=None) -> str:
    """The Python source of the stepping loop :func:`_kernel` compiles."""
    def each(fmt: str, sep: str = ", ") -> str:
        return sep.join(fmt.format(m=m) for m in range(dim))

    if source is None:  # the called stage, in the same form: "(k0, ...,) = rhs(t, (y0, ...,))"
        source = f"({each('{{k{m}}}')},) = rhs({{t}}, ({each('{{y{m}}}')},))"
    rows = [[(j, a) for j, a in enumerate(row) if a != 0.0] for row in tableau.coupling]
    weight_terms = [(j, b) for j, b in enumerate(tableau.weights) if b != 0.0]
    products, stages = [], []
    for i, (c, row) in enumerate(zip(tableau.nodes, rows)):
        products += [f"    ha{i}_{j} = h * {a!r}" for j, a in row]
        products.append(f"    hc{i} = {c!r} * h")
        terms = "".join(f" + ha{i}_{j} * k{j}_{{m}}" for j, _ in row)
        fields = {f"y{m}": f"s{m}" for m in range(dim)} | {f"k{m}": f"k{i}_{m}" for m in range(dim)}
        stages += [f"        ({each('s{m}')},) = ({each('y{m}' + terms)},)"]
        if "{t}" in source:
            stages.append(f"        ts = t + hc{i}")
        stages += [
            textwrap.indent(source.format(t="ts", **fields), " " * 8).rstrip("\n"),
            f"        if not ({each(f'isfinite(k{i}_{{m}})', ' and ')}):",
            f"            ts = t + hc{i}",
            f"            raise BlowUpError(ts, f'rhs blow-up at t={{ts:.6g}} (stage {i})')",
        ]
    products += [f"    hb{j} = h * {b!r}" for j, b in weight_terms]
    terms = "".join(f" + hb{j} * k{j}_{{m}}" for j, _ in weight_terms)
    test = absorbing and absorbing.format(**{f"y{m}": f"y{m}" for m in range(dim)})
    return _KERNEL_SOURCE.format(
        constants="".join(f", {name}" for name in constants),
        products="\n".join(products),
        state=f"({each('y{m}')},)",
        absorbed=f"        if {test}:\n            return i - 1" if absorbing else "",
        stages="\n".join(stages),
        update=each(f"        y{{m}} = y{{m}}{terms}", "\n"),
        bounded=each("-limit <= y{m} <= limit", " and "),
        dim=dim,
        store=each("        store[j + {m}] = y{m}", "\n"),
    )


@functools.cache
def _kernel(tableau: ButcherTableau, dim: int, source=None, constants: tuple = (), absorbing=None):
    """The stepping loop of ``tableau`` for ``dim`` components, generated on first use.

    ``kernel(rhs, out, y, h, limit, **constants)`` steps from state
    ``y`` at time 0, stores step i's state in ``out[i]`` and returns the
    last row it stored: the first that the expression ``absorbing``
    holds for, if any.  Each stage is the statement ``source`` (see
    :func:`integrate`) with its fields filled in, or without one a call
    of ``rhs``; the names in ``constants`` are the loop's arguments, so
    one loop serves every value they take.  Stage states sum their
    nonzero terms a_ij k_j in order of j and the update its nonzero
    b_j k_j likewise, so the bits are those of the term-by-term sparse
    tableau; only the products h*a, c*h and h*b are hoisted.  Equal
    tableaus share one loop.
    """
    if constants:
        own = symtable.symtable(_loop_source(tableau, dim), "<kernel>", "exec").get_children()[0].get_identifiers()
        for name in constants:
            if not str(name).isidentifier() or keyword.iskeyword(name) or name in own:
                why = "a name the stepping loop binds or reads" if name in own else "not an identifier"
                raise ValueError(f"rhs constant {name!r} is {why}")
    loop = _loop_source(tableau, dim, source, constants, absorbing)
    namespace = {"isfinite": math.isfinite, "BlowUpError": BlowUpError, "state_blow_up": _state_blow_up}
    exec(compile(loop, f"<{tableau.stage_count}-stage kernel, dim {dim}>", "exec"), namespace)
    return namespace["kernel"]


def integrate(rhs: RhsFunction, tableau: ButcherTableau, grid: GridSpec, y0) -> tuple[np.ndarray, np.ndarray]:
    """Integrate y' = rhs(t, y) over the grid from y0.

    ``rhs`` receives the state as a tuple of floats and returns one
    derivative per component; every component of ``y0`` must be finite,
    and there must be at least one.  Returns ``(t, y)`` with ``t`` the
    step_count + 1 node locations (computed as i*step, not by
    accumulation, so there is no drift) and ``y`` the
    (step_count + 1, dim) state samples; ``y[0]`` is ``y0`` exactly and
    every later row is the state the next step starts from.

    An ``rhs`` that carries ``rhs.source`` and ``rhs.constants`` is not
    called: the loop inlines its source as each stage.  That source is
    Python statements that read the stage time from the field ``{t}``
    (or ignore it), the stage state from ``{y0}``, ``{y1}``, ..., which
    they may reassign, and write the derivative to ``{k0}``, ``{k1}``,
    ...; ``rhs.constants`` maps every other name they read to its value.
    The statements must compute what ``rhs`` returns, bit for bit.
    Such an ``rhs`` may also carry ``rhs.absorbing``: an expression in
    ``{y0}``, ... and the constants that holds only on states from which
    every stage derivative equals ``rhs`` there.  Stepping stops on the
    first row it holds for, and the rows after it are filled, bit for
    bit as stepped; from a ``y0`` with a negative zero, which a fill may
    keep where stepping adds a zero of the other sign, all are stepped.

    Raises :class:`BlowUpError` on a non-finite stage evaluation or when
    any component exceeds ``STATE_LIMIT``, and ``ValueError`` on a
    constant that is not an identifier or that the loop binds or reads.
    """
    y = tuple(float(v) for v in y0)
    if not y:
        raise ValueError("initial state must have at least one component")
    if not all(map(math.isfinite, y)):
        raise ValueError("initial state must be finite")
    if hasattr(rhs, "source"):
        absorbing = getattr(rhs, "absorbing", None) if all(v or math.copysign(1.0, v) > 0.0 for v in y) else None
        kernel, constants = _kernel(tableau, len(y), rhs.source, tuple(rhs.constants), absorbing), rhs.constants
    else:
        kernel, constants = _kernel(tableau, len(y)), {}
    out = np.empty((grid.step_count + 1, len(y)))  # after the loop: its first compile peaks higher
    out[0] = y
    r = kernel(rhs, out, y, grid.step, STATE_LIMIT, **constants)
    if r < grid.step_count:
        _constant_rows(tableau, grid.step, rhs(r * grid.step, out[r].tolist()), out[r:], r)
    return grid.abscissae(), out


def _constant_rows(tableau: ButcherTableau, h: float, k, rows: np.ndarray, r: int = 0) -> None:
    """Fill ``rows[1:]`` with the states the stepping loop stores after ``rows[0]``, its row r,
    when every stage derivative is ``k``.

    The loop then adds h*b_j * k_m to each component y_m, one nonzero
    weight b_j after another; ``np.cumsum`` (a sequential
    ``add.accumulate``) adds the same increments in the same order, so
    the rows are bit for bit those of ``integrate`` with the constant
    right-hand side ``k`` (finite).  Raises :class:`BlowUpError`, at
    i*h as the loop does, on the first row i past r with a component
    beyond ``STATE_LIMIT``.
    """
    hb = np.array([h * b for b in tableau.weights if b != 0.0])
    n, w = len(rows) - 1, hb.size
    sums, bad = np.empty(n * w + 1), np.zeros(n, dtype=bool)
    for m, slope in enumerate(k):
        sums[0] = rows[0, m]
        sums[1:].reshape(n, w)[:] = hb * slope
        rows[1:, m] = np.cumsum(sums, out=sums)[w::w]
        bad |= ~(np.abs(rows[1:, m], out=sums[:n]) <= STATE_LIMIT)
    if bad.any():
        t = (r + 1 + int(bad.argmax())) * h
        raise BlowUpError(t, _state_blow_up(t, STATE_LIMIT))
