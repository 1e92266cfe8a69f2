"""Every narrative script under demos/ runs to completion."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of the stdout of every demo but 03_exact_search.py, which prints
# wall-clock times, so only its exit code is checked. 02 prints the
# constructions and 04 the oracle verdicts and fuzz tallies.
STDOUT_SHA256 = {
    "01_formula_table.py": "e5d55443b4cbd958c62dc13a09ec64b6de6ca1c8981584709bc8b4b564a1e06d",
    "02_constructions.py": "a919967a529c2e18f473bd507b747b768fcef7d86ceda7dd88e37144356b75b8",
    "04_theorem_oracles.py": "2420bb6c3e30334ee9643583e0d288847f83dd1d8933c87f9a724d50531c37f3",
    "05_enumeration.py": "0d848a46cb1ebe346d3af882d3cb553a84ede01d79e6d793d33795334170702c",
}


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_runs(path):
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(path)], capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    expected = STDOUT_SHA256.get(path.name)
    if expected is not None:
        assert hashlib.sha256(proc.stdout).hexdigest() == expected
