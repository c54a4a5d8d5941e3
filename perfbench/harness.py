"""Workloads, per-op output checks and the closed-loop runner of the solver benchmark.

One caller issues each op only after the previous one has returned; no
threads or worker pools.  A workload run repeats one *round* of P values
drawn from the seed.  A round has a fixed mix of op costs, and a
measured phase always ends on a round boundary, so ``ops_per_s`` and
the latency percentiles do not depend on where the clock happened to
stop inside an expensive op.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"

#: Boyd, SIAM Rev. 50 (2008): the Newtonian (P = 1) wall curvature.
BOYD = 0.33205733621519630
BOYD_TOL = 1e-13
#: Every other f''(0) must match the value recorded in references.json.
REF_TOL = 1e-9
#: The ``validate`` command's own transform-vs-shooting tolerance.
ORACLE_TOL = 1e-6
ORACLE_BRACKET = (0.05, 2.5)
ORACLE_RESIDUAL = 1e-10

SWEEP_STEP = 1e-3
SWEEP_EDGE = 10.0
#: sweep_fixed draws one P from each of this many slices of its pool,
#: plus P = 1 (the Boyd check) in every round.
SWEEP_CHUNKS = 19
#: auto_export ops per round for each boundary E the search lands on,
#: proportional to the width of [0.6, 1.9] each E class covers, so a
#: round is close to a uniform draw over P with a fixed cost mix.
AUTO_MIX = {80.0: 1, 40.0: 1, 20.0: 1, 10.0: 2, 5.0: 7}

WORKLOADS = ("sweep_fixed", "auto_export", "oracle_validate")

#: The tail percentile of ``op_ms_p90``, the same for every run length.
#: With k rounds its rank ceil(0.9 * n) lies in the same cost class of
#: the round for every k: the E = 40 op of ``auto_export`` (ranks 10k+1
#: to 11k of 12k) and the slowest of the seven P of ``oracle_validate``
#: (6k+1 to 7k of 7k).
TAIL_Q = 0.9


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing package source, bad references)."""


def load_package():
    """Import ``powerlaw_blasius`` from this checkout's ``src/`` and return (package, cli)."""
    init = SRC / "powerlaw_blasius" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"package source not found: {init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import powerlaw_blasius
    from powerlaw_blasius import cli

    if Path(powerlaw_blasius.__file__).resolve() != init.resolve():
        raise BenchError(f"imported {powerlaw_blasius.__file__}, expected {init}")
    return powerlaw_blasius, cli


def load_references() -> dict:
    """Reference values per workload, keyed by P as a float."""
    with open(REFERENCES) as fh:
        raw = json.load(fh)
    return {name: {float(p): ref for p, ref in raw[name].items()} for name in WORKLOADS}


def _one_per_chunk(rng: random.Random, values: list, k: int) -> list:
    """One value from each of k contiguous, near-equal chunks of the sorted values.

    Stratifying the draw keeps the cost mix of a round nearly the same
    for every seed.
    """
    edges = [round(i * len(values) / k) for i in range(k + 1)]
    return [rng.choice(values[a:b]) for a, b in zip(edges, edges[1:])]


def plan_round(workload: str, seed: int, references: dict) -> list[float]:
    """The P values of one round, in order; the same seed gives the same round."""
    rng = random.Random(f"{workload}/{seed}")
    pool = sorted(references[workload])
    if workload == "sweep_fixed":
        ops = [1.0] + _one_per_chunk(rng, pool, SWEEP_CHUNKS)
    elif workload == "auto_export":
        classes: dict[float, list[float]] = {}
        for p in pool:
            classes.setdefault(float(references[workload][p]["eta_inf"]), []).append(p)
        ops = [p for e, k in AUTO_MIX.items() for p in _one_per_chunk(rng, classes[e], k)]
    elif workload == "oracle_validate":
        ops = list(pool)
    else:
        raise BenchError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def _close(value: float, reference: float, tol: float) -> bool:
    return math.isfinite(value) and abs(value - reference) <= tol


def sweep_op(pkg, p: float) -> float:
    """One ``sweep_fixed`` op: f''(0) on the fixed benchmark grid."""
    return pkg.solve(pkg.make_parameter(p), step=SWEEP_STEP, eta_inf=SWEEP_EDGE).skin_friction


def oracle_op(pkg, p: float) -> tuple[float, float]:
    """One ``oracle_validate`` op, as one row of the ``validate`` command: (transform, shooting) f''(0)."""
    result = pkg.solve(pkg.make_parameter(p))
    grid = pkg.matched_grid(result, target_step=1e-3)
    config = pkg.ShootingConfig(*ORACLE_BRACKET, grid=grid, residual_tol=ORACLE_RESIDUAL)
    return result.skin_friction, pkg.solve_by_shooting(result.param, config)


class Workload:
    """One op kind: ``call`` runs the timed op, ``check`` judges its output.

    ``check`` returns None when the output is correct, otherwise a
    one-line reason.  Package entry points are looked up on the module at
    call time, so a traced run sees the wrapped versions.
    """

    def __init__(self, name: str, pkg, cli, references: dict, workdir: Path):
        self.name = name
        self.pkg = pkg
        self.cli = cli
        self.refs = references[name]
        self.workdir = workdir
        self._csv_digests: dict[float, tuple[str, str]] = {}

    def call(self, p: float):
        if self.name == "sweep_fixed":
            return sweep_op(self.pkg, p)
        if self.name == "auto_export":
            prefix = self.workdir / "op"
            argv = ["solve", "--p", repr(p), "--eta-inf", "auto", "--out", str(prefix)]
            with contextlib.redirect_stdout(io.StringIO()):
                return self.cli.main(argv)
        return oracle_op(self.pkg, p)

    def check(self, p: float, out) -> str | None:
        ref = self.refs[p]
        if self.name == "sweep_fixed":
            if p == 1.0 and not _close(out, BOYD, BOYD_TOL):
                return f"P=1: f''(0)={out!r} is {abs(out - BOYD):.2e} from Boyd's constant"
            if not _close(out, ref, REF_TOL):
                return f"P={p}: f''(0)={out!r}, reference {ref!r}"
            return None
        if self.name == "auto_export":
            return self._check_export(p, out, ref)
        transform, shot = out
        if not _close(transform, ref["transform"], REF_TOL):
            return f"P={p}: transform f''(0)={transform!r}, reference {ref['transform']!r}"
        if not _close(shot, ref["shooting"], REF_TOL):
            return f"P={p}: shooting f''(0)={shot!r}, reference {ref['shooting']!r}"
        if not abs(transform - shot) <= ORACLE_TOL:
            return f"P={p}: |transform - shooting| = {abs(transform - shot):.2e} > {ORACLE_TOL:g}"
        return None

    def _check_export(self, p: float, status, ref: dict) -> str | None:
        if status != 0:
            return f"P={p}: exit status {status}"
        paths = (self.workdir / "op_starred.csv", self.workdir / "op_physical.csv")
        starred, physical = (path.read_bytes() for path in paths)
        for path in paths:  # so a later op can never be judged on these files
            path.unlink()
        wall = physical.split(b"\n", 2)[1].split(b",")
        if float(wall[0]) != 0.0 or not _close(float(wall[3]), ref["skin_friction"], REF_TOL):
            return f"P={p}: physical wall row {wall!r}, reference f''(0) {ref['skin_friction']!r}"
        edge = float(starred.rstrip(b"\n").rsplit(b"\n", 1)[1].split(b",")[0])
        if edge != ref["eta_inf"]:
            return f"P={p}: starred profile ends at {edge!r}, reference boundary {ref['eta_inf']!r}"
        digests = (hashlib.sha256(starred).hexdigest(), hashlib.sha256(physical).hexdigest())
        if self._csv_digests.setdefault(p, digests) != digests:
            return f"P={p}: CSV bytes differ from an earlier repeat in this run"
        return None


@dataclass
class Phase:
    """Outcome of a run of whole rounds."""

    latencies: list = field(default_factory=list)
    ok: int = 0
    failures: list = field(default_factory=list)
    wall: float = 0.0
    rounds: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def execute(workload: Workload, p: float, phase: Phase, wrap=None) -> None:
    """Run one op, time it, check it, and record the outcome in ``phase``.

    ``wrap`` (from a tracer) encloses the timed call in an op span.  An
    op that raises is a failed op, not a crash of the benchmark.
    """
    call = workload.call if wrap is None else wrap(workload.call)
    start = time.perf_counter()
    try:
        out = call(p)
    except Exception as exc:  # any exception leaving the program is a failed op
        phase.latencies.append(time.perf_counter() - start)
        phase.failures.append(f"P={p}: {type(exc).__name__}: {exc}")
        return
    phase.latencies.append(time.perf_counter() - start)
    try:
        reason = workload.check(p, out)
    except (OSError, ValueError, IndexError, KeyError, TypeError) as exc:
        reason = f"P={p}: output unreadable: {type(exc).__name__}: {exc}"
    if reason is None:
        phase.ok += 1
    else:
        phase.failures.append(reason)


def run_rounds(workload: Workload, ops: list, seconds: float = 0.0, rounds: int | None = None, wrap=None) -> Phase:
    """Repeat the round until ``seconds`` have passed, or ``rounds`` times; always whole rounds."""
    phase = Phase()
    start = time.perf_counter()
    while True:
        for p in ops:
            execute(workload, p, phase, wrap)
        phase.rounds += 1
        done = phase.rounds >= rounds if rounds is not None else time.perf_counter() - start >= seconds
        if done:
            break
    phase.wall = time.perf_counter() - start
    return phase


def percentile(samples: list, q: float) -> float:
    """Nearest-rank percentile; the median is the usual interpolated one.

    Over whole rounds a fixed ``q`` always lands in the same cost class
    of the round, however many rounds a run completes.
    """
    ordered = sorted(samples)
    if q == 0.5:
        return statistics.median(ordered)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
