"""Benchmark for the pvanish CLI: end-to-end metrics and per-layer traces.

Usage, from the repository root:

    python3 perfbench/run.py --workload hunt_p7 --seed 1 --seconds 35 --trace 0

Every sample runs the pvanish CLI from ./src in a fresh process, the way a
user pays for a sweep: cold memo tables, one process, no worker pool
(PVANISH_WORKERS is removed from the child environment and --workers/--cache
are never passed).  Each workload is a fixed set of CLI invocations with
every input pinned (--limit, --max-n, --p); a round runs the whole set in an
order drawn from the seed, and rounds repeat while the time budget allows.
Keeping the set fixed keeps the metrics comparable across seeds: n = 25 and
n = 27 of the p = 7 hunt already differ by 1.8x in wall time.

Every output is checked: exit code 0, no counterexample or violation, the
p in {2, 3} structural classifier agreeing with brute force, and the
normalized --json output matching perfbench/references.json (written by
perfbench/make_references.py).  A process that fails any check counts in
"failed".

--trace 0 reports the end-to-end metrics, measured untraced: wall_s (spawn
to exit) and cpu_s (user + sys from wait4) of one invocation, items_per_s
(cycle types classified by the sweeps, or verify checks run, per second of
wall time), peak_rss_mb (ru_maxrss), and setup_s (spawn until pvanish.cli is
imported, in spawns of its own).  --trace 1
alternates an untraced round with a round run under perfbench/trace_child.py
and reports the per-layer metrics of the traced rounds: self times of the
layer boundaries, call counts, memo-table statistics, and the tracing
overhead.  All per-layer numbers are totals over one round, except memo-table
sizes, which are the largest table of any process in the round.

The last stdout line is the result object; the line before it is a record
with the seed, the generated argv, every sample, failed_frac, the layer
shares of a traced round, and a machine description: Python version, nproc,
CPU model, and the load average and a calibration loop before and after.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shlex
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
TRACE_CHILD = HERE / "trace_child.py"

# A whole run must end well inside 180 s; a process still running at this
# point is killed and counted as failed.
HARD_LIMIT_S = 170.0
# set-up spawns before each round, so they sample the same conditions as it
SETUP_PER_ROUND = 5


def _sweep(p: int, n: str, *flags: str) -> list[str]:
    """A vanishing sweep over n ("24" or "0..21"), --limit pinned to its top."""
    limit = n.rpartition(".")[2]
    return ["vanishing", "--p", str(p), "--n", n, "--limit", limit, *flags, "--json"]


def _suite(name: str, *opts: str) -> list[str]:
    return ["verify", "--suite", name, *opts, "--json"]


# Why each workload (also in BENCHMARK.json): hunt_p7 loads the Murnaghan-
# Nakayama column scan, because at n = 25..27 the last base-7 digit is 4..6
# and many classes vanish, so every singular label is evaluated; classify_p23
# loads the p-singular filter, the structural split, the structure audits and
# the largest JSON output; verify_dense evaluates full character tables and
# label tuples with no early exit.  Each invocation takes about 0.3-2.5 s, so
# a 35 s run holds four rounds or more on a noisy 2-core machine.
WORKLOADS: dict[str, list[list[str]]] = {
    "hunt_p7": [_sweep(7, str(n), "--check-conjecture") for n in (25, 26, 27)],
    "classify_p23": [_sweep(p, n, "--audit") for p in (2, 3) for n in ("0..21", "22..23", "24")],
    "verify_dense": [
        _suite("orthogonality", "--max-n", "13"),
        _suite("conjugation-twist", "--max-n", "14"),
        _suite("factorization", "--max-n", "12"),
        _suite("multichar", "--max-n", "7"),
        _suite("equivalence", "--p", "2,3,5", "--max-n", "14"),
    ],
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

VERIFY_SUITES = ("equivalence", "orthogonality", "conjugation-twist", "factorization", "multichar")
WITNESS_EDGE = ("vanishing.nonvanishing_witness", "characters.character_value")

SETUP_CODE = (
    "import sys, pvanish.cli; sys.stdout.write(pvanish.cli.__file__ + '\\n'); sys.stdout.flush()"
)


class BenchError(Exception):
    """The benchmark cannot run here (no program to measure, wrong program)."""


# ---------------------------------------------------------------------------
# reference outputs
# ---------------------------------------------------------------------------


def argv_key(argv: list[str]) -> str:
    return shlex.join(argv)


def normalize(argv: list[str], out: bytes) -> bytes:
    """verify --json embeds wall-clock "elapsed"; zero exactly that field."""
    if argv[0] == "verify":
        return re.sub(rb'("elapsed": )-?[0-9][0-9.eE+-]*', rb"\g<1>0", out)
    return out


def digest(argv: list[str], out: bytes) -> str:
    return hashlib.sha256(normalize(argv, out)).hexdigest()


def load_references(path: Path) -> dict[str, str]:
    return json.loads(path.read_text())["sha256"]


def write_references(workloads: dict[str, list[list[str]]], path: Path) -> None:
    """Run every invocation once and store the digest of its normalized output."""
    digests = {}
    for argvs in workloads.values():
        for argv in argvs:
            sample = spawn(_cli_cmd(argv), time.perf_counter() + HARD_LIMIT_S)
            problems = _check_program(argv, sample.code, sample.stdout)
            if problems:
                raise BenchError(f"{argv_key(argv)}: {'; '.join(problems)}")
            digests[argv_key(argv)] = digest(argv, sample.stdout)
    payload = {
        "normalization": 'verify outputs: every "elapsed" value replaced by 0',
        "sha256": digests,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _check_program(argv: list[str], code: int, out: bytes) -> list[str]:
    """The checks that need no reference: exit code and the reported verdicts."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        payload = json.loads(out)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    problems = []
    if argv[0] == "vanishing":
        if payload.get("counterexample_count") != 0:
            problems.append(f"counterexample_count {payload.get('counterexample_count')}")
        for report in payload.get("reports", []):
            if report.get("p") in (2, 3) and report.get("audits", {}).get(
                "structural_agreement"
            ) is not True:
                problems.append(f"structural_agreement not true at n={report.get('n')}")
    elif payload.get("failed") != 0:
        problems.append(f"failed {payload.get('failed')}")
    return problems


def check_output(argv: list[str], code: int, out: bytes, refs: dict[str, str]) -> list[str]:
    problems = _check_program(argv, code, out)
    expected = refs.get(argv_key(argv))
    if expected is None:
        problems.append("no reference output")
    elif digest(argv, out) != expected:
        problems.append("output differs from the reference")
    return problems


def items_done(argv: list[str], out: bytes) -> int:
    """Cycle types classified (sweeps) or checks run (verify) by one invocation."""
    if argv[0] == "vanishing":
        text = argv[argv.index("--n") + 1]
        lo, _, hi = text.partition("..")
        return sum(partition_count(n) for n in range(int(lo), int(hi or lo) + 1))
    try:
        return sum(s["checks"] for s in json.loads(out)["suites"])
    except (ValueError, KeyError, TypeError):
        return 0


def partition_count(n: int) -> int:
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            counts[total] += counts[total - part]
    return counts[n]


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


class Sample(NamedTuple):
    code: int
    stdout: bytes
    stderr: bytes
    wall: float
    cpu: float
    rss_mb: float


def _child_env() -> dict[str, str]:
    """The caller's environment minus PVANISH_WORKERS and every PYTHON* knob.

    Dropping PYTHON* settings (PYTHONDONTWRITEBYTECODE, PYTHONUNBUFFERED, ...)
    makes every child import and write output the same way wherever the
    benchmark runs; bytecode caching stays on, as in an installed package.
    """
    env = {
        k: v
        for k, v in os.environ.items()
        if k != "PVANISH_WORKERS" and not k.startswith("PYTHON")
    }
    env["PYTHONPATH"] = str(SRC)
    return env


def _cli_cmd(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "pvanish.cli", *argv]


def spawn(cmd: list[str], deadline: float, first_line: bool = False) -> Sample:
    """Run cmd to completion; wall from spawn to exit, cpu and rss from wait4.

    With first_line, wall stops when the child's first stdout line arrives.
    The child is killed once the deadline passes.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(), cwd=ROOT
    )
    killer = threading.Timer(max(deadline - start, 0.0), proc.kill)
    killer.start()
    try:
        err: list[bytes] = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        head = proc.stdout.readline() if first_line else b""
        ready = time.perf_counter()
        out = head + proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    return Sample(
        code=proc.returncode,
        stdout=out,
        stderr=err[0] if err else b"",
        wall=(ready if first_line else end) - start,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
    )


def _inside_src(path: str) -> bool:
    try:
        return Path(path).resolve().is_relative_to(SRC.resolve())
    except OSError:
        return False


def measure_setup(deadline: float, count: int) -> list[float]:
    """Time from spawn until pvanish.cli is imported, in spawns of their own."""
    times = []
    for _ in range(count):
        sample = spawn([sys.executable, "-c", SETUP_CODE], deadline, first_line=True)
        where = sample.stdout.decode(errors="replace").splitlines()[:1]
        if sample.code != 0 or not where or not _inside_src(where[0]):
            raise BenchError(
                f"cannot import pvanish.cli from {SRC}: "
                f"{(where or [sample.stderr.decode(errors='replace')])[0].strip()}"
            )
        times.append(sample.wall)
    return times


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


def run_round(order, traced: bool, refs, deadline: float, log) -> list[dict]:
    results = []
    for argv in order:
        cmd = [sys.executable, str(TRACE_CHILD), *argv] if traced else _cli_cmd(argv)
        sample = spawn(cmd, deadline)
        code, out, trace = sample.code, sample.stdout, None
        problems = []
        if traced:
            try:
                trace = json.loads(sample.stdout)
            except ValueError:
                problems.append(f"trace child exit {sample.code}, no trace")
                code = sample.code or 1
            else:
                code, out = trace["exit"], trace["stdout"].encode()
                if not _inside_src(trace["pvanish_file"]):
                    problems.append(f"pvanish imported from {trace['pvanish_file']}")
        problems += check_output(argv, code, out, refs)
        if sample.code != 0 and sample.stderr.strip():
            problems.append(sample.stderr.decode(errors="replace").strip().splitlines()[-1])
        results.append(
            {
                "argv": argv,
                "wall_s": sample.wall,
                "cpu_s": sample.cpu,
                "rss_mb": sample.rss_mb,
                "items": items_done(argv, out),
                "problems": problems,
                "traced": traced,
                "trace": trace,
            }
        )
        log(
            f"  {'traced ' if traced else ''}{sample.wall:8.3f} s  cpu {sample.cpu:8.3f} s  "
            f"rss {sample.rss_mb:6.1f} MB  {'ok' if not problems else 'FAIL ' + '; '.join(problems)}"
            f"  pvanish {argv_key(argv)}"
        )
    return results


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(rounds: list[list[dict]], setup: list[float]) -> dict[str, float]:
    """Medians per invocation over the rounds, then combined over the workload.

    wall_s and cpu_s average the per-invocation medians, items_per_s divides
    the items of one round by the sum of those medians, and peak_rss_mb is
    the largest per-invocation median.  A median per invocation keeps one
    slow process from moving the result.
    """
    by_argv: dict[str, list[dict]] = {}
    for r in rounds:
        for s in r:
            by_argv.setdefault(argv_key(s["argv"]), []).append(s)

    def medians(key: str) -> list[float]:
        return [_median([s[key] for s in group]) for group in by_argv.values()]

    walls = medians("wall_s")
    items = sum(max(s["items"] for s in group) for group in by_argv.values())
    return {
        "wall_s": statistics.fmean(walls),
        "cpu_s": statistics.fmean(medians("cpu_s")),
        "items_per_s": items / sum(walls),
        "peak_rss_mb": max(medians("rss_mb")),
        "setup_s": _median(setup),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced_round: list[dict]) -> dict[str, float]:
    """Per-layer numbers of one traced round (totals over its processes)."""
    calls, self_ns = Counter(), Counter()
    edges, counters, hits, misses = Counter(), Counter(), Counter(), Counter()
    sizes: Counter = Counter()
    checks = Counter()
    for s in traced_round:
        trace = s["trace"]
        if trace is None:
            continue
        for name, (n, _total, own) in trace["spans"].items():
            calls[name] += n
            self_ns[name] += own
        for a, b, n in trace["edges"]:
            edges[a, b] += n
        counters.update(trace["counters"])
        for table, info in trace["memo"].items():
            hits[table] += info["hits"]
            misses[table] += info["misses"]
            sizes[table] = max(sizes[table], info["size"])
        if s["argv"][0] == "verify":
            try:
                for suite in json.loads(trace["stdout"])["suites"]:
                    checks[suite["name"]] += suite["checks"]
            except (ValueError, KeyError, TypeError):
                pass

    def time_s(name: str) -> float:
        return self_ns[name] / 1e9

    def hit_ratio(table: str) -> float:
        return _ratio(hits[table], hits[table] + misses[table])

    labels = edges[WITNESS_EDGE]
    m = {
        "partitions.enumerate_partitions.calls": calls["partitions.enumerate_partitions"],
        "partitions.enumerate_partitions.time_s": time_s("partitions.enumerate_partitions"),
        "partitions.r_decompose.calls": calls["partitions.r_decompose"],
        "partitions.r_decompose.time_s": time_s("partitions.r_decompose"),
        "partitions.r_decompose.memo_hit_ratio": hit_ratio("partitions.r_decompose"),
        "partitions.r_decompose.memo_size": sizes["partitions.r_decompose"],
        "partitions.strippable.memo_hit_ratio": hit_ratio("partitions._strippable"),
        "padic.is_p_singular.calls": calls["padic.is_p_singular"],
        "padic.is_p_singular.time_s": time_s("padic.is_p_singular"),
        "padic.is_p_adic_type.calls": calls["padic.is_p_adic_type"],
        "padic.is_p_adic_type.time_s": time_s("padic.is_p_adic_type"),
        "characters.character_value.calls": calls["characters.character_value"],
        "characters.character_value.time_s": time_s("characters.character_value"),
        "characters.char_memo.hits": hits["characters._char"],
        "characters.char_memo.misses": misses["characters._char"],
        "characters.char_memo.hit_ratio": hit_ratio("characters._char"),
        "characters.char_memo.size": sizes["characters._char"],
        "characters.multi_character_value.calls": calls["characters.multi_character_value"],
        "characters.multi_character_value.time_s": time_s("characters.multi_character_value"),
        "characters.multi_memo.hit_ratio": hit_ratio("characters._multi"),
        "characters.induced_character_value.time_s": time_s(
            "characters.induced_character_value"
        ),
        "vanishing.singular_partitions.time_s": time_s("vanishing.singular_partitions"),
        "vanishing.singular_partitions.singular_ratio": _ratio(
            counters["filter_singular"], counters["filter_tested"]
        ),
        "vanishing.nonvanishing_witness.calls": calls["vanishing.nonvanishing_witness"],
        "vanishing.nonvanishing_witness.time_s": time_s("vanishing.nonvanishing_witness"),
        "vanishing.nonvanishing_witness.labels_tried": labels,
        "vanishing.nonvanishing_witness.witness_yield": _ratio(
            counters["nonvanishing_classes"], labels
        ),
        "vanishing.structural_split.calls": calls["vanishing.structural_split"],
        "vanishing.structural_split.time_s": time_s("vanishing.structural_split"),
        "vanishing.audit_vanishing_structure.time_s": time_s(
            "vanishing.audit_vanishing_structure"
        ),
        "vanishing.list_p_vanishing.time_s": time_s("vanishing.list_p_vanishing"),
        "vanishing.check_conjectures.time_s": time_s("vanishing.check_conjectures"),
    }
    for suite in VERIFY_SUITES:
        m[f"verify.{suite}.time_s"] = time_s(f"verify.{suite}")
        m[f"verify.{suite}.checks"] = checks[suite]
    m["cli.self_s"] = time_s("cli.main")
    return m


def layer_shares(traced_round: list[dict]) -> dict[str, float]:
    """Self time of each span as a share of the traced round's wall time."""
    own: Counter = Counter()
    for s in traced_round:
        if s["trace"] is not None:
            for name, (_n, _total, ns) in s["trace"]["spans"].items():
                own[name] += ns / 1e9
    wall = sum(s["wall_s"] for s in traced_round)
    groups = {
        "filter": ("vanishing.singular_partitions", "padic.is_p_singular", "partitions.r_decompose"),
        "scan": ("vanishing.nonvanishing_witness", "characters.character_value"),
        "dense": (
            "characters.multi_character_value",
            "characters.induced_character_value",
            *(f"verify.{s}" for s in VERIFY_SUITES),
        ),
    }
    shares = {f"group.{g}": sum(own[n] for n in names) / wall for g, names in groups.items()}
    shares.update({name: t / wall for name, t in sorted(own.items()) if t})
    return shares


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "yield")):
        return "ratio"
    return "count"


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            model = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), model)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "platform": platform.platform(),
    }


def loadavg() -> list[float] | None:
    try:
        with open("/proc/loadavg") as f:
            return [float(x) for x in f.read().split()[:3]]
    except OSError:
        return None


def calibrate() -> float:
    """A fixed pure-Python loop (about 0.25 s); its time is a diagnostic, never a divisor."""
    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


def tail(values: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it.

    The percentile is reported only when it lies above the median, which
    needs at least 21 samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    out = {"samples": n, "median": _median(ordered), "percentile": None, "value": None}
    if n >= 21:
        out["percentile"] = round(100.0 * (n - 10) / n, 1)
        out["value"] = ordered[n - 11]
    return out


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main(argv=None, workloads=WORKLOADS, references: Path = REFERENCES) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    deadline = started + HARD_LIMIT_S
    log = lambda line: print(line, flush=True)  # noqa: E731
    try:
        if not (SRC / "pvanish" / "cli.py").is_file():
            raise BenchError(f"no pvanish package under {SRC}")
        refs = load_references(references)
        argvs = workloads[args.workload]
        rng = random.Random(f"{args.workload}:{args.seed}")
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "argv": [["pvanish", *a] for a in argvs],
            "machine": machine(),
            "loadavg_before": loadavg(),
            "calibration_before_s": calibrate(),
        }
        log(f"workload {args.workload} seed {args.seed} trace {args.trace}")
        for a in argvs:
            log(f"  argv: pvanish {argv_key(a)}")
        # the first import may compile the package's bytecode: not timed
        measure_setup(deadline, 1)
        setup: list[float] = []

        plain_rounds: list[list[dict]] = []
        traced_rounds: list[list[dict]] = []
        orders = []
        measure_start = time.perf_counter()
        while True:
            now = time.perf_counter()
            # start another round only if a round of average length still fits
            per_round = (now - measure_start) / max(len(orders), 1)
            if orders and (now - measure_start + per_round > args.seconds or now + per_round > deadline):
                break
            order = rng.sample(argvs, len(argvs))
            orders.append([argv_key(a) for a in order])
            log(f"round {len(orders)}")
            if not args.trace:
                setup += measure_setup(deadline, SETUP_PER_ROUND)
            plain_rounds.append(run_round(order, False, refs, deadline, log))
            if args.trace:
                traced_rounds.append(run_round(order, True, refs, deadline, log))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    samples = [s for r in plain_rounds + traced_rounds for s in r]
    failed = sum(1 for s in samples if s["problems"])
    if args.trace:
        # median_low keeps a measured value (and counts as integers)
        layers = [layer_metrics(r) for r in traced_rounds]
        metrics = {k: statistics.median_low([m[k] for m in layers]) for k in layers[0]}
        metrics["trace.overhead_s"] = _median(
            [sum(s["wall_s"] for s in r) for r in traced_rounds]
        ) - _median([sum(s["wall_s"] for s in r) for r in plain_rounds])
        units = {k: per_layer_unit(k) for k in metrics}
        record["shares_of_traced_wall"] = layer_shares(traced_rounds[0])
        # bindings wrapped per span: a 0 means the program no longer has that boundary
        record["trace_bindings"] = next(
            (s["trace"]["bindings"] for r in traced_rounds for s in r if s["trace"]), None
        )
        record["untraced_round_wall_s"] = _median(
            [sum(s["wall_s"] for s in r) for r in plain_rounds]
        )
    else:
        metrics = end_to_end(plain_rounds, setup)
        units = END_TO_END_UNITS
        record["setup_s"] = tail(setup)
    record.update(
        {
            "orders": orders,
            "rounds": len(plain_rounds),
            "wall_s_per_process": tail([s["wall_s"] for r in plain_rounds for s in r]),
            "samples": [
                {k: s[k] for k in ("argv", "traced", "wall_s", "cpu_s", "rss_mb", "items", "problems")}
                for s in samples
            ],
            "attempted": len(samples),
            "failed": failed,
            "failed_frac": failed / len(samples),
            "elapsed_s": time.perf_counter() - started,
            "loadavg_after": loadavg(),
            "calibration_after_s": calibrate(),
        }
    )
    log("record " + json.dumps(record))
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
