"""One-second runs of the benchmark workloads the harness tests leave out,
and every reference of the two solve workloads.

``perfbench/test_harness.py`` runs only ``sweep_fixed``.  A change that
moves an ``auto_export`` wall row, or a shooting root in
``oracle_validate``, past the 1e-9 references in
``perfbench/references.json`` turns these runs incorrect.  A run checks
only the P of the rounds its seed draws, so the ``sweep_fixed`` and
``auto_export`` references are also solved here, every one of them.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from powerlaw_blasius import make_parameter, solve

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["auto_export", "oracle_validate"])
def test_workload_is_correct_with_no_failed_op(workload):
    argv = ["perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), done.stdout


#: The recorded f''(0) of every P in each workload's pool, and the
#: harness's tolerance on them.
REFERENCES = json.loads((ROOT / "perfbench" / "references.json").read_text())
REF_TOL = 1e-9
#: Boyd, SIAM Rev. 50 (2008): the Newtonian f''(0), which P = 1 must meet to 1e-13.
BOYD = 0.33205733621519630


def test_every_sweep_fixed_reference_holds():
    # a seed-1 run checks one round of 20 P out of the 76
    misses = {}
    for p, reference in REFERENCES["sweep_fixed"].items():
        value = solve(make_parameter(float(p)), step=1e-3, eta_inf=10.0).skin_friction
        if not abs(value - reference) <= REF_TOL:
            misses[p] = (value, reference)
        if p == "1.0" and not abs(value - BOYD) <= 1e-13:
            misses["Boyd"] = (value, BOYD)
    assert "1.0" in REFERENCES["sweep_fixed"] and misses == {}


def test_every_auto_export_reference_holds():
    # the solve behind `solve --eta-inf auto`, at full precision
    misses = {}
    for p, reference in REFERENCES["auto_export"].items():
        result = solve(make_parameter(float(p)), eta_inf="auto")
        found = (result.truncated_boundary, result.skin_friction)
        if not (found[0] == reference["eta_inf"] and abs(found[1] - reference["skin_friction"]) <= REF_TOL):
            misses[p] = (found, reference)
    assert misses == {}
