"""The demos assert what they print; run each one as a user would."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = [
    ["01_basic_join.py"],
    ["02_trace_verification.py"],
    ["03_distribute_and_expand.py"],
    ["04_cost_model.py"],
    ["05_benchmark.py", "--quick"],
]


@pytest.mark.parametrize("argv", DEMOS, ids=lambda a: a[0][:2])
def test_demo_runs(argv, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / argv[0]),
                           *argv[1:]], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
