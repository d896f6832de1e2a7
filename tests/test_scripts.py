import os
import subprocess
import sys
from pathlib import Path

import pytest

import stabdet

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["scripts/random_graph_sweep.py", "--trials", "5", "--max-qubits", "4"],
    ["scripts/counterexample_demo.py"],
])
def test_script_runs(argv):
    src = str(Path(stabdet.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable] + argv, cwd=ROOT, capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert result.returncode == 0, result.stderr
