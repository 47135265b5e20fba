"""Smoke test of the benchmark itself, at tiny sizes (well under a minute).

Usage, from the repository root:

    python3 perfbench/smoke.py

It writes references for tiny versions of the workloads from the current
program, then checks that:
  * --trace 0 prints every end-to-end metric of BENCHMARK.json with its unit,
    and --trace 1 every per-layer metric, with no failed output;
  * a corrupted reference output makes the run report a failure;
  * in a directory holding only BENCHMARK.json and the benchmark's files,
    the benchmark exits nonzero without printing a result.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

TINY = {
    "hunt_p7": [run._sweep(7, str(n), "--check-conjecture") for n in (8, 9)],
    "classify_p23": [run._sweep(p, "0..9", "--audit") for p in (2, 3)],
    "verify_dense": [
        run._suite("orthogonality", "--max-n", "4"),
        run._suite("conjugation-twist", "--max-n", "4"),
        run._suite("factorization", "--max-n", "4"),
        run._suite("multichar", "--max-n", "3"),
        run._suite("equivalence", "--p", "2,3,5", "--max-n", "5"),
    ],
}


def bench(workload: str, trace: int, references: Path) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(
            ["--workload", workload, "--seed", "7", "--seconds", "0.1", "--trace", str(trace)],
            workloads=TINY,
            references=references,
        )
    if code != 0:
        raise AssertionError(f"{workload} trace {trace}: exit {code}")
    return json.loads(buf.getvalue().splitlines()[-1])


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if sorted(spec_w["name"] for spec_w in spec["workloads"]) != sorted(run.WORKLOADS):
        raise AssertionError("BENCHMARK.json workloads differ from run.WORKLOADS")
    with tempfile.TemporaryDirectory() as tmp:
        refs = Path(tmp) / "references.json"
        run.write_references(TINY, refs)

        for workload in TINY:
            for trace in (0, 1):
                result = bench(workload, trace, refs)
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    raise AssertionError(f"result keys {sorted(result)}")
                printed = {k: v["unit"] for k, v in result["metrics"].items()}
                if printed != expected[trace]:
                    missing = set(expected[trace].items()) ^ set(printed.items())
                    raise AssertionError(f"{workload} trace {trace}: metric/unit mismatch {missing}")
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    raise AssertionError(f"{workload} trace {trace}: {result}")
                print(f"ok   {workload} trace {trace}: {len(printed)} metrics")

        payload = json.loads(refs.read_text())
        key = run.argv_key(TINY["hunt_p7"][0])
        payload["sha256"][key] = payload["sha256"][key][::-1]
        refs.write_text(json.dumps(payload))
        result = bench("hunt_p7", 0, refs)
        if result["correct"] or result["failed"] < 1:
            raise AssertionError(f"corrupted reference not caught: {result}")
        print(f"ok   corrupted reference: {result['failed']} of {result['attempted']} failed")

        bare = Path(tmp) / "bare"
        shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "hunt_p7", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            raise AssertionError(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
        print(f"ok   without the program: exit {proc.returncode}, no result")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"FAIL {exc}")
        sys.exit(1)
