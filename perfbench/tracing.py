"""Span tracing for the benchmark's traced run, and the per-layer metrics it yields.

Each package function is wrapped at the module attribute its caller
looks it up through (``transform.integrate``, ``shooting.shoot``,
``cli.solve`` ...), so spans sit on the layer boundaries with no change
to the package.  Spans stay in memory and are reduced once the traced
phase ends.  A span's self time is its duration minus the time its
direct children cover; calls nest and never overlap, so the children of
one span are disjoint.
"""

from __future__ import annotations

import dataclasses
import json
import os
import statistics
import time
from collections import defaultdict

LAYERS = ("runge_kutta", "model", "transform", "shooting", "cli")

#: Every per-layer metric the traced run reports, with its unit.  Counts
#: and self times are per op of the traced phase.
METRICS = (
    ("runge_kutta.integrate.calls", "calls/op"),
    ("runge_kutta.integrate.steps", "steps/op"),
    ("runge_kutta.integrate.self_s", "s/op"),
    ("runge_kutta.cv8.us_per_step", "us/step"),
    ("runge_kutta.rk4.us_per_step", "us/step"),
    ("runge_kutta.rhs_evals", "evals/op"),
    ("model.ivp_rhs.ns_per_call", "ns/call"),
    ("transform.find_truncated_boundary.self_s", "s/op"),
    ("transform.find_truncated_boundary.steps", "steps/op"),
    ("transform.find_truncated_boundary.candidates", "calls/op"),
    ("transform.search_useful_ratio", "ratio"),
    ("transform.integrate_starred.self_s", "s/op"),
    ("transform.SolutionProfile.self_s", "s/op"),
    ("transform.rescale_profile.self_s", "s/op"),
    ("transform.solve.self_s", "s/op"),
    ("shooting.shoot.rk4_calls", "calls/op"),
    ("shooting.shoot.cv8_calls", "calls/op"),
    ("shooting.shoot.self_s", "s/op"),
    ("shooting.solve_by_shooting.self_s", "s/op"),
    ("cli.main.self_s", "s/op"),
    ("cli.csv.write_s", "s/op"),
    ("cli.csv.bytes", "bytes/op"),
    ("cli.csv.mb_per_s", "MB/s"),
    *((f"{layer}.self_s", "s/op") for layer in LAYERS),
    *((f"{layer}.failed", "count") for layer in LAYERS),
    ("trace.overhead_share", "ratio"),
)

OP_SPAN = "bench.op"
#: States kept per integrate call, and in total, for the RHS probe.
_SAMPLES_PER_CALL = 8
_SAMPLE_CAP = 8192


@dataclasses.dataclass
class Span:
    name: str
    parent: int | None
    op: int
    start: float = 0.0
    end: float = 0.0
    failed: bool = False
    steps: int = 0
    stages: int = 0
    scheme: str = ""
    nbytes: int = 0


class Tracer:
    """Wraps the package's entry points while active; use as a context manager."""

    def __init__(self, pkg, cli):
        from powerlaw_blasius import shooting, transform

        self.pkg = pkg
        self.spans: list[Span] = []
        self.samples: list[tuple] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._patched: list[tuple] = []
        self._table = (
            (pkg, "make_parameter", "model.make_parameter", None),
            (pkg, "solve", "transform.solve", None),
            (pkg, "matched_grid", "shooting.matched_grid", None),
            (pkg, "solve_by_shooting", "shooting.solve_by_shooting", None),
            (cli, "main", "cli.main", None),
            (cli, "make_parameter", "model.make_parameter", None),
            (cli, "solve", "transform.solve", None),
            (cli, "_write_profile_csv", "cli.csv.write", self._csv_size),
            (transform, "integrate", "runge_kutta.integrate", self._integrate_counts),
            (transform, "integrate_starred", "transform.integrate_starred", None),
            (transform, "find_truncated_boundary", "transform.find_truncated_boundary", None),
            (transform, "rescale_profile", "transform.rescale_profile", None),
            (transform, "SolutionProfile", "transform.SolutionProfile", None),
            (shooting, "integrate", "runge_kutta.integrate", self._integrate_counts),
            (shooting, "shoot", "shooting.shoot", None),
        )

    def __enter__(self):
        for module, attr, name, annotate in self._table:
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module.__name__}.{attr}")
                continue
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, annotate))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    def _wrap(self, name, fn, annotate=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, self._op)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = clock()
                stack.pop()
            if annotate is not None:
                annotate(span, args, kwargs, result)
            return result

        return traced

    def op(self, call):
        """Wrap one benchmark op in a root span with a fresh op id."""
        self._op += 1
        return self._wrap(OP_SPAN, call)

    def _integrate_counts(self, span, args, kwargs, result):
        bound = dict(zip(("rhs", "tableau", "grid"), args))
        bound.update((k, v) for k, v in kwargs.items() if k in ("rhs", "tableau", "grid"))
        tableau = bound["tableau"]
        span.steps = bound["grid"].step_count
        span.stages = tableau.stage_count
        span.scheme = (
            "cv8" if tableau is self.pkg.COOPER_VERNER_8 else "rk4" if tableau is self.pkg.CLASSIC_RK4 else "other"
        )
        states = result[1]
        if len(self.samples) < _SAMPLE_CAP:
            stride = max(1, len(states) // _SAMPLES_PER_CALL)
            rhs = bound["rhs"]
            self.samples.extend((rhs, tuple(float(v) for v in row)) for row in states[::stride])

    @staticmethod
    def _csv_size(span, args, kwargs, result):
        span.nbytes = os.path.getsize(args[0] if args else kwargs["path"])

    def write(self, path) -> None:
        """Write the spans out, one JSON object per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dataclasses.asdict(span)) + "\n")

    def rhs_ns_per_call(self) -> float:
        """Median over 5 passes of ns per call of the workload's RHS closures on states they integrated."""
        samples = self.samples[:_SAMPLE_CAP]
        if not samples:
            return 0.0
        clock = time.perf_counter
        runs = []
        for _ in range(5):
            start = clock()
            for rhs, y in samples:
                rhs(0.0, y)
            runs.append((clock() - start) / len(samples) * 1e9)
        return statistics.median(runs)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def _layer_time(spans: list[Span], own: list[float]) -> float:
    """Summed self time of every span below the op spans."""
    return sum(t for s, t in zip(spans, own) if s.name != OP_SPAN)


def layer_metrics(tracer: Tracer, untraced_op_s: float, traced_op_s: float) -> dict:
    """Reduce the spans of a traced phase to the per-layer metrics in :data:`METRICS`.

    ``untraced_op_s`` and ``traced_op_s`` are the summed op latencies of
    the same ops run without and with tracing.  The RHS closures run
    inside ``integrate``, so their time counts as ``runge_kutta`` self
    time; ``model.self_s`` holds only the ``make_parameter`` calls.
    """
    spans = tracer.spans
    own = self_times(spans)
    n_ops = sum(1 for s in spans if s.name == OP_SPAN) or 1
    by_name = defaultdict(float)
    by_layer = defaultdict(float)
    failed = defaultdict(int)
    counts = defaultdict(float)
    for span, t in zip(spans, own):
        by_name[span.name] += t
        layer = span.name.split(".", 1)[0]
        by_layer[layer] += t
        failed[layer] += span.failed
        if span.name == "cli.csv.write":
            counts["csv_bytes"] += span.nbytes
        if span.name != "runge_kutta.integrate":
            continue
        parent = spans[span.parent].name if span.parent is not None else ""
        counts["calls"] += 1
        counts["steps"] += span.steps
        counts["rhs_evals"] += span.steps * span.stages
        counts[f"{span.scheme}_steps"] += span.steps
        counts[f"{span.scheme}_s"] += t
        if parent == "transform.find_truncated_boundary":
            counts["search_steps"] += span.steps
            counts["search_candidates"] += 1
        elif parent == "transform.integrate_starred":
            counts["profile_steps"] += span.steps
        elif parent == "shooting.shoot":
            counts[f"shoot_{span.scheme}"] += 1

    def per_step_us(scheme):
        steps = counts[f"{scheme}_steps"]
        return counts[f"{scheme}_s"] / steps * 1e6 if steps else 0.0

    csv_s = by_name["cli.csv.write"]
    values = {
        "runge_kutta.integrate.calls": counts["calls"] / n_ops,
        "runge_kutta.integrate.steps": counts["steps"] / n_ops,
        "runge_kutta.integrate.self_s": by_name["runge_kutta.integrate"] / n_ops,
        "runge_kutta.cv8.us_per_step": per_step_us("cv8"),
        "runge_kutta.rk4.us_per_step": per_step_us("rk4"),
        "runge_kutta.rhs_evals": counts["rhs_evals"] / n_ops,
        "model.ivp_rhs.ns_per_call": tracer.rhs_ns_per_call(),
        "transform.find_truncated_boundary.self_s": by_name["transform.find_truncated_boundary"] / n_ops,
        "transform.find_truncated_boundary.steps": counts["search_steps"] / n_ops,
        "transform.find_truncated_boundary.candidates": counts["search_candidates"] / n_ops,
        "transform.search_useful_ratio": counts["profile_steps"] / counts["steps"] if counts["steps"] else 0.0,
        "transform.integrate_starred.self_s": by_name["transform.integrate_starred"] / n_ops,
        "transform.SolutionProfile.self_s": by_name["transform.SolutionProfile"] / n_ops,
        "transform.rescale_profile.self_s": by_name["transform.rescale_profile"] / n_ops,
        "transform.solve.self_s": by_name["transform.solve"] / n_ops,
        "shooting.shoot.rk4_calls": counts["shoot_rk4"] / n_ops,
        "shooting.shoot.cv8_calls": counts["shoot_cv8"] / n_ops,
        "shooting.shoot.self_s": by_name["shooting.shoot"] / n_ops,
        "shooting.solve_by_shooting.self_s": by_name["shooting.solve_by_shooting"] / n_ops,
        "cli.main.self_s": by_name["cli.main"] / n_ops,
        "cli.csv.write_s": csv_s / n_ops,
        "cli.csv.bytes": counts["csv_bytes"] / n_ops,
        "cli.csv.mb_per_s": counts["csv_bytes"] / 1e6 / csv_s if csv_s else 0.0,
        **{f"{layer}.self_s": by_layer[layer] / n_ops for layer in LAYERS},
        **{f"{layer}.failed": failed[layer] for layer in LAYERS},
        "trace.overhead_share": (traced_op_s - untraced_op_s) / untraced_op_s,
    }
    return {name: (values[name], unit) for name, unit in METRICS}


def coverage_check(spans: list[Span], untraced_op_s: float, traced_op_s: float) -> tuple[bool, str]:
    """Do the layer self times add up to the op wall time, within the tracing overhead?

    The layers' summed self time must lie within |overhead| of the
    untraced wall time of the same ops, plus 2% for run-to-run noise.
    """
    layers = _layer_time(spans, self_times(spans))
    gap = abs(untraced_op_s - layers)
    allowed = abs(traced_op_s - untraced_op_s) + 0.02 * untraced_op_s
    return gap <= allowed, (
        f"layer self times sum to {layers:.4f} s, untraced op wall {untraced_op_s:.4f} s: "
        f"gap {gap:.4f} s, allowed {allowed:.4f} s (|overhead| + 2%)"
    )
