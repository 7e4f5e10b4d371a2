"""The scripts under scripts/ run against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import hypersum

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_run_catalog():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hypersum.__file__)))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_catalog.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    catalog = [line for line in lines if line.endswith(("[ok]", "[FAIL]"))]
    assert len(catalog) == 12
    assert all(line.endswith("[ok]") for line in catalog)
    assert sum(line.startswith("  margin-m=") for line in lines) == 6
    assert "all passed: True" in proc.stdout
