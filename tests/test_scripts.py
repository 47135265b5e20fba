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


def test_hunt_refuses_prime_past_cap():
    # 2^61 - 1 is prime; trial division on it would run for minutes
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "hunt_counterexamples.py"),
         "--p", "2305843009213693951"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert "capped" in proc.stderr
