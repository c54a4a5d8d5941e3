"""Self-tests for the benchmark harness.

    python3 -m pytest perfbench/test_harness.py -q

Takes about a minute: two short benchmark runs plus a few single ops.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import tracing  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], capture_output=True, text=True, cwd=cwd, timeout=300
    )


@pytest.fixture(scope="module")
def package():
    return harness.load_package()


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_short_run_emits_every_named_metric_with_a_unit(trace, section):
    proc = _run(HERE.parent, "--workload", "sweep_fixed", "--seed", "7", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
    if section == "end_to_end":
        assert all(v > 0 for v in values)
        assert "error_rate   = 0.0" in proc.stdout
    else:
        shooting_and_csv = [n for n in expected if n.startswith(("shooting.", "cli.csv."))]
        assert all(result["metrics"][n]["value"] == 0 for n in shooting_and_csv)


@pytest.mark.parametrize(
    "name, p, perturb",
    [
        ("sweep_fixed", 1.3, lambda ref: ref + 2e-9),
        ("auto_export", 1.5, lambda ref: dict(ref, skin_friction=ref["skin_friction"] - 2e-9)),
        ("auto_export", 1.5, lambda ref: dict(ref, eta_inf=10.0)),
    ],
)
def test_perturbed_reference_is_a_failed_op_not_a_crash(package, tmp_path, name, p, perturb):
    pkg, cli = package
    references = harness.load_references()
    references[name][p] = perturb(references[name][p])
    workload = harness.Workload(name, pkg, cli, references, tmp_path)
    phase = harness.run_rounds(workload, [p], rounds=1)
    assert (phase.attempted, phase.ok, len(phase.failures)) == (1, 0, 1)
    assert f"P={p}" in phase.failures[0]


def test_boyd_constant_is_checked_and_a_raising_op_is_counted(package, tmp_path, monkeypatch):
    pkg, cli = package
    workload = harness.Workload("sweep_fixed", pkg, cli, harness.load_references(), tmp_path)
    monkeypatch.setattr(harness, "BOYD", harness.BOYD + 1e-12)
    phase = harness.Phase()
    harness.execute(workload, 1.0, phase)
    harness.execute(workload, 0.5, phase)  # singular index: the package raises
    assert phase.attempted == 2 and phase.ok == 0
    assert "Boyd" in phase.failures[0] and "DomainError" in phase.failures[1]


@pytest.mark.parametrize("name", harness.WORKLOADS)
def test_same_seed_gives_the_same_p_sequence(name):
    references = harness.load_references()
    first = harness.plan_round(name, 11, references)
    assert first == harness.plan_round(name, 11, references)
    assert set(first) <= set(references[name])
    assert len({tuple(harness.plan_round(name, seed, references)) for seed in range(6)}) > 1


def test_round_mix_is_fixed_for_every_seed():
    references = harness.load_references()
    for seed in range(20):
        sweep = harness.plan_round("sweep_fixed", seed, references)
        assert len(sweep) == harness.SWEEP_CHUNKS + 1 and 1.0 in sweep
        auto = harness.plan_round("auto_export", seed, references)
        edges = sorted(references["auto_export"][p]["eta_inf"] for p in auto)
        assert edges == sorted(e for e, k in harness.AUTO_MIX.items() for _ in range(k))
        assert sorted(harness.plan_round("oracle_validate", seed, references)) == [0.1, 0.2, 0.3, 0.4, 0.8, 1.0, 1.5]


def test_self_time_subtracts_direct_children_only():
    spans = [
        tracing.Span("bench.op", None, 0, 0.0, 10.0),
        tracing.Span("transform.solve", 0, 0, 1.0, 4.0),
        tracing.Span("runge_kutta.integrate", 1, 0, 2.0, 3.0),
        tracing.Span("transform.solve", 0, 0, 5.0, 9.0),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_fails_without_printing_a_result_when_only_the_benchmark_is_present(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "sweep_fixed", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_coverage_check_fails_when_spans_leave_the_op_uncovered():
    covered = [
        tracing.Span("bench.op", None, 0, 0.0, 10.0),
        tracing.Span("transform.solve", 0, 0, 0.0, 10.0),
    ]
    assert tracing.coverage_check(covered, untraced_op_s=9.5, traced_op_s=10.0)[0]
    uncovered = [
        tracing.Span("bench.op", None, 0, 0.0, 10.0),
        tracing.Span("transform.solve", 0, 0, 0.0, 6.0),
    ]
    ok, verdict = tracing.coverage_check(uncovered, untraced_op_s=9.5, traced_op_s=10.0)
    assert not ok and "6.0000 s" in verdict


def test_tail_percentile_lands_in_the_same_boundary_class_for_any_round_count():
    references = harness.load_references()
    edges = [references["auto_export"][p]["eta_inf"] for p in harness.plan_round("auto_export", 3, references)]
    assert {harness.percentile(edges * k, harness.TAIL_Q) for k in range(1, 9)} == {40.0}
