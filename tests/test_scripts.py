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


@pytest.mark.parametrize("script", ["reproduce_tables.py", "hunt_counterexamples.py"])
def test_script_refuses_negative_bound(script):
    # a bound below 0 scans nothing, which must not pass as a clean run
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--max-n", "-1"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert "--max-n must be >= 0" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("value", ["9", "x", "5,x", "", ",", "5,5"])
def test_hunt_refuses_a_bad_prime(value):
    # exit 1 means a counterexample, so bad input must exit 2 with a usage line
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "hunt_counterexamples.py"), "--p", value],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert "usage:" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


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
