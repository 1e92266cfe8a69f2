"""Every narrative script under demos/ runs to completion."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of the stdout of demos whose output is deterministic; the others
# print wall-clock times, so only their exit code is checked
STDOUT_SHA256 = {
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
