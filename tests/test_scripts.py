import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import stabdet

ROOT = Path(__file__).resolve().parents[1]


def run_script(argv):
    src = str(Path(stabdet.__file__).resolve().parents[1])
    return subprocess.run([sys.executable] + argv, cwd=ROOT, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)


@pytest.mark.parametrize("argv", [
    ["scripts/random_graph_sweep.py", "--trials", "5", "--max-qubits", "4"],
])
def test_script_runs(argv):
    result = run_script(argv)
    assert result.returncode == 0, result.stderr


_SWEEP = ["scripts/random_graph_sweep.py", "--trials", "2"]
_BAD_TOL = "argument --tol: must be a finite positive number"


@pytest.mark.parametrize("argv, complaint", [
    pytest.param(_SWEEP + ["--tol", tol], _BAD_TOL, id=f"tol-{name}")
    for name, tol in (("nan", "nan"), ("inf", "inf"), ("negative", "-1"))
] + [pytest.param(_SWEEP + ["--min-qubits", "5", "--max-qubits", "3"],
                  "need 0 <= --min-qubits <= --max-qubits", id="min-above-max")])
def test_sweep_rejects_bad_options(argv, complaint):
    result = run_script(argv)
    assert result.returncode == 2
    assert result.stderr.startswith("usage:") and complaint in result.stderr
    assert "Traceback" not in result.stderr


def test_chain_digest_smoke():
    result = run_script(["scripts/chain_digest.py", "--max-qubits", "3"])
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    # 3 qubit counts x 6 graphs x 2 generating sets x 13 families x 3 tols x 2 chains
    assert len(lines) == 3 * 6 * 2 * 13 * 3 * 2
    statuses = {line.split(": ", 1)[1].split()[0] for line in lines}
    assert statuses == {"Determined", "Inconsistent", "Underdetermined"}
    assert lines[0].startswith("n=1 graph=0 canonical exact tol=1e-12 pure: Determined")
    # Everything but the residuals is pinned: statuses, logs, rule counts,
    # states and messages.
    pinned = "\n".join(re.sub(r" residual=\S+", "", line) for line in lines)
    assert hashlib.sha256(pinned.encode()).hexdigest() == (
        "72bf2c17eee15d034debcc8a7b76b273283d17bf054037dc898519e053a5aa5e")


def test_form_digest_smoke():
    # validation reports, forms, RDM bytes, graph-form reductions and minimal
    # support sets over general-form sets with n = 1-8, valid or not
    result = run_script(["scripts/form_digest.py"])
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 8 * 12 * 4  # qubit counts x sets x variants
    assert {line.split(" valid=")[1][:3] for line in lines} >= {"+++", "-++", "+-+", "++-"}
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
        "80841faa4b31eabb3512bdca71f2d4d639a9f163a70a0f3ddbfb7be8bef99d4b")
