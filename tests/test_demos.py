import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"


@pytest.mark.parametrize("name", ["integrator_convergence.py", "newtonian_benchmark.py", "profile_rescaling.py"])
def test_demo_runs(name, tmp_path):
    # run a copy: profile_rescaling.py writes its CSVs beside itself
    script = tmp_path / name
    shutil.copy(DEMOS / name, script)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
