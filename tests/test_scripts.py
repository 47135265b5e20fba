"""Smoke runs of the scripts/ entry points, which nothing else imports."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script,argv",
    [
        ("reproduce_tables.py", ["--max-n", "8"]),
        ("hunt_counterexamples.py", ["--max-n", "10"]),
    ],
)
def test_script_runs_clean(script, argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
