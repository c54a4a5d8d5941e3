"""One-second runs of the benchmark workloads the harness tests leave out.

``perfbench/test_harness.py`` runs only ``sweep_fixed``.  A change that
moves an ``auto_export`` wall row, or a shooting root in
``oracle_validate``, past the 1e-9 references in
``perfbench/references.json`` turns these runs incorrect.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["auto_export", "oracle_validate"])
def test_workload_is_correct_with_no_failed_op(workload):
    argv = ["perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), done.stdout
