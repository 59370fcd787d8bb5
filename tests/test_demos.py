"""Each demo script runs to the end and prints a known line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script,line",
    [
        ("curve_walkthrough.py", "totals: (1, 8, 12, 6, 1)"),
        ("custom_toric.py", "first exponent reaching pdim = dim X: a = (4, 0)"),
        ("points_tables.py", "minimal resolution totals: (1, 37, 120, 166, 120, 45, 7)"),
    ],
)
def test_demo_runs(script, line):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()
