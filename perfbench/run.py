"""Solver benchmark for powerlaw-blasius.

    python3 perfbench/run.py --workload sweep_fixed --seed 1 --seconds 20 --trace 0

Run from the repository root.  Workloads (see BENCHMARK.json and
perfbench/README.md for what each one loads and bypasses):

* ``sweep_fixed``     solve(make_parameter(P), step=1e-3, eta_inf=10.0)
* ``auto_export``     cli.main(["solve", "--p", P, "--eta-inf", "auto", "--out", prefix])
* ``oracle_validate`` one row of the ``validate`` command: solve, matched_grid, solve_by_shooting

``--trace 0`` measures the end-to-end metrics: one warm-up op, then
whole rounds of ops for at least ``--seconds``.  ``--trace 1`` runs the
same rounds twice, untraced and then traced, and reports the per-layer
metrics and the tracing overhead.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit status 2 means the benchmark could not run here.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import harness
import tracing

#: Fresh interpreters timed for setup_s, half before the workload (after
#: one untimed import that writes the bytecode cache) and half after it,
#: so the median spans the machine's state over the whole run.
SETUP_SAMPLES = 10
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import powerlaw_blasius; t = time.perf_counter() - t; print(repr(t), powerlaw_blasius.__file__)"
)


def time_imports(count: int) -> list[float]:
    """Wall times of ``import powerlaw_blasius`` in ``count`` fresh interpreters."""
    expected = (harness.SRC / "powerlaw_blasius" / "__init__.py").resolve()
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(harness.SRC)],
            capture_output=True, text=True, timeout=120, cwd=harness.ROOT,
        )
        if proc.returncode != 0:
            tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            raise harness.BenchError(f"import powerlaw_blasius failed: {tail}")
        seconds, path = proc.stdout.split()
        if Path(path).resolve() != expected:
            raise harness.BenchError(f"fresh interpreter imported {path}, expected {expected}")
        times.append(float(seconds))
    return times


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` directly; "unknown" outside a repository."""
    git = harness.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(numpy_version: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu or platform.processor() or "unknown",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _git_commit(),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(phase: harness.Phase, setup_s: float) -> tuple[dict, dict]:
    """The end-to-end metrics of an untraced phase, and a note on how each was taken."""
    latencies_ms = [t * 1e3 for t in phase.latencies]
    n = len(latencies_ms)
    q = harness.TAIL_Q
    metrics = {
        "ops_per_s": _metric(phase.ok / phase.wall, "1/s"),
        "op_ms_p50": _metric(harness.percentile(latencies_ms, 0.5), "ms"),
        "op_ms_p90": _metric(harness.percentile(latencies_ms, q), "ms"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "ops_per_s": f"{phase.ok} ops passed in {phase.wall:.3f} s, {phase.rounds} rounds",
        "op_ms_p50": f"n={n}",
        "op_ms_p90": f"n={n}, {n - math.ceil(q * n)} samples beyond",
        "setup_s": f"median of {SETUP_SAMPLES} fresh interpreters, before and after the workload",
        "peak_rss_mb": "ru_maxrss of this workload process",
    }
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        pkg, cli = harness.load_package()
        references = harness.load_references()
        setup_times = [] if args.trace else time_imports(1 + SETUP_SAMPLES // 2)[1:]
    except (harness.BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as exc:
        print(f"error: benchmark cannot run here: {exc}", file=sys.stderr)
        return 2
    import numpy

    ops = harness.plan_round(args.workload, args.seed, references)
    print(f"workload {args.workload}  seed {args.seed}  round of {len(ops)} ops: P = {ops}")
    print(f"env {json.dumps(environment(numpy.__version__))}")

    scratch = harness.ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        workload = harness.Workload(args.workload, pkg, cli, references, Path(tmp))
        warmup = harness.Phase()
        harness.execute(workload, ops[0], warmup)
        if args.trace:
            spans = scratch / f"spans_{args.workload}_{args.seed}.jsonl"
            phases, metrics, trace_ok = traced_run(workload, ops, args.seconds, pkg, cli, spans)
        else:
            trace_ok = True
            phase = harness.run_rounds(workload, ops, seconds=args.seconds)
            phases = [phase]
            setup_times += time_imports(SETUP_SAMPLES - len(setup_times))
            metrics, notes = end_to_end(phase, statistics.median(setup_times))
            for name, note in notes.items():
                print(f"{name:<12} = {metrics[name]['value']!r} {metrics[name]['unit']}  ({note})")
    try:
        scratch.rmdir()
    except OSError:
        pass

    failures = warmup.failures + [f for phase in phases for f in phase.failures]
    attempted = warmup.attempted + sum(phase.attempted for phase in phases)
    for reason in failures[:20]:
        print(f"failed op: {reason}", file=sys.stderr)
    print(f"error_rate   = {len(failures) / attempted!r}   ({len(failures)} of {attempted} ops failed)")
    result = {"correct": not failures and trace_ok, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


def traced_run(workload, ops, seconds, pkg, cli, spans_path):
    """Untraced rounds for half the time, then the same rounds traced; spans go to ``spans_path``.

    Returns the two phases, the per-layer metrics, and whether the layer
    self times passed :func:`tracing.coverage_check`.
    """
    untraced = harness.run_rounds(workload, ops, seconds=seconds / 2)
    with tracing.Tracer(pkg, cli) as tracer:
        traced = harness.run_rounds(workload, ops, rounds=untraced.rounds, wrap=tracer.op)
    tracer.write(spans_path)
    print(f"spans written to {spans_path.relative_to(harness.ROOT)}")
    untraced_s, traced_s = sum(untraced.latencies), sum(traced.latencies)
    layer = tracing.layer_metrics(tracer, untraced_s, traced_s)
    ok, verdict = tracing.coverage_check(tracer.spans, untraced_s, traced_s)
    if tracer.missing:
        print(f"not traced (attribute missing): {', '.join(tracer.missing)}")
    print(f"traced {traced.attempted} ops in {traced.rounds} rounds; per-layer self time per op:")
    for name in tracing.LAYERS:
        share = layer[f"{name}.self_s"][0] * traced.attempted / traced_s
        print(f"  {name:<12} {layer[f'{name}.self_s'][0]:.6f} s/op  ({share:.1%} of traced op wall)")
    print(f"tracing overhead {layer['trace.overhead_share'][0]:+.2%} of untraced op wall")
    print(f"trace check {'ok' if ok else 'FAILED'}: {verdict}")
    for name, (value, unit) in layer.items():
        print(f"  {name:<46} {value!r} {unit}")
    metrics = {name: _metric(value, unit) for name, (value, unit) in layer.items()}
    return [untraced, traced], metrics, ok


if __name__ == "__main__":
    sys.exit(main())
