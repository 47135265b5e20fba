"""Acceptance gate: every shipped claim, checked at its stated range.

Each test prints exactly one PASS/FAIL line (through captured-output
suppression, so the lines always reach the terminal) and then asserts.
Expected small-table values are hardcoded here independently of the
library's own stored tables.
"""

from __future__ import annotations

import json
import time

import pytest

from pvanish import cli
from pvanish.characters import character_value, degree
from pvanish.padic import is_p_adic_type, p_adic_context, is_p_singular
from pvanish.partitions import as_partition, enumerate_partitions
from pvanish.vanishing import equivalence_consistent, nonvanishing_witness, summary, sweep
from pvanish.verify import (
    conjugation_twist_suite,
    degree_column_suite,
    equivalence_suite,
    factorization_suite,
    multichar_suite,
    orthogonality_suite,
    split_classifier_suite,
    structure_suite,
)

# classification for p=2, n <= 7: (n, parts) -> has p-adic type
SMALL_TABLE_P2 = {
    (0, ()): True,
    (1, (1,)): True,
    (2, (2,)): True,
    (2, (1, 1)): False,
    (3, (2, 1)): True,
    (4, (4,)): True,
    (4, (2, 1, 1)): False,
    (5, (4, 1)): True,
    (6, (4, 2)): True,
    (6, (4, 1, 1)): False,
    (7, (4, 2, 1)): True,
}

# classification for p=3, n <= 8
SMALL_TABLE_P3 = {
    (0, ()): True,
    (1, (1,)): True,
    (2, (2,)): True,
    (2, (1, 1)): True,
    (3, (3,)): True,
    (3, (2, 1)): False,
    (3, (1, 1, 1)): False,
    (4, (3, 1)): True,
    (5, (3, 2)): True,
    (5, (3, 1, 1)): True,
    (5, (4, 1)): False,
    (5, (2, 1, 1, 1)): False,
    (6, (6,)): True,
    (6, (3, 3)): True,
    (6, (3, 2, 1)): False,
    (6, (3, 1, 1, 1)): False,
    (7, (6, 1)): True,
    (7, (3, 3, 1)): True,
    (8, (6, 2)): True,
    (8, (6, 1, 1)): True,
    (8, (3, 3, 2)): True,
    (8, (3, 3, 1, 1)): True,
    (8, (4, 3, 1)): False,
    (8, (3, 2, 1, 1, 1)): False,
}


def report(capsys, label: str, ok: bool, detail: str = "") -> None:
    with capsys.disabled():
        suffix = f" ({detail})" if detail else ""
        print(f"{label}: {'PASS' if ok else 'FAIL'}{suffix}")


def test_ac1_small_table_reproduction(capsys):
    start = time.perf_counter()
    observed = {}
    for p, span in ((2, "0..7"), (3, "0..8")):
        code = cli.main(["vanishing", "--p", str(p), "--n", span, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        for rep in payload["reports"]:
            for e in rep["vanishing"]:
                observed[(p, rep["n"], tuple(e["parts"]))] = e["p_adic_type"]
    expected = {(2, n, parts): f for (n, parts), f in SMALL_TABLE_P2.items()}
    expected.update({(3, n, parts): f for (n, parts), f in SMALL_TABLE_P3.items()})
    elapsed = time.perf_counter() - start
    ok = observed == expected and elapsed < 5.0
    report(capsys, "AC1 small-table reproduction", ok, f"{elapsed:.2f}s, 35 classes")
    assert observed == expected
    assert elapsed < 5.0


def test_ac2_singularity_four_way_equivalence(capsys):
    result = equivalence_suite([2, 3, 5], 20)
    ok = result.passed and result.elapsed < 120.0
    report(
        capsys,
        "AC2 singularity four-way equivalence",
        ok,
        f"{result.elapsed:.1f}s, {result.checks} checks",
    )
    assert result.violations == []
    assert result.elapsed < 120.0


def test_ac3_p_adic_type_implies_vanishing(capsys):
    start = time.perf_counter()
    checks = 0
    failures = []
    for p in (2, 3, 5, 7):
        for n in range(0, 19):
            ctx = p_adic_context(n, p)
            for beta in enumerate_partitions(n):
                if not is_p_adic_type(beta, ctx):
                    continue
                checks += 1
                if nonvanishing_witness(beta, p) is not None:
                    failures.append((p, n, beta))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 300.0
    report(
        capsys,
        "AC3 p-adic type implies vanishing",
        ok,
        f"{elapsed:.1f}s, {checks} classes",
    )
    assert failures == []
    assert elapsed < 300.0


def test_ac4_dual_classifier_agreement(capsys):
    res2 = split_classifier_suite([2], 16)
    res3 = split_classifier_suite([3], 15)
    elapsed = res2.elapsed + res3.elapsed
    violations = res2.violations + res3.violations
    ok = not violations and elapsed < 600.0
    report(
        capsys,
        "AC4 dual-classifier agreement",
        ok,
        f"{elapsed:.1f}s, {res2.checks + res3.checks} classes",
    )
    assert violations == []
    assert elapsed < 600.0


def test_ac5_core_quotient_factorization(capsys):
    result = factorization_suite(12)
    ok = result.passed and result.elapsed < 300.0
    report(
        capsys,
        "AC5 core-quotient factorization",
        ok,
        f"{result.elapsed:.1f}s, {result.checks} identities",
    )
    assert result.violations == []
    assert result.elapsed < 300.0


def test_ac6_character_table_oracles(capsys):
    orth = orthogonality_suite(10)
    deg = degree_column_suite(14)
    twist = conjugation_twist_suite(12)
    ok = orth.passed and deg.passed and twist.passed
    report(
        capsys,
        "AC6 character-table oracles",
        ok,
        f"{orth.checks + deg.checks + twist.checks} checks",
    )
    assert orth.violations == []
    assert deg.violations == []
    assert twist.violations == []


def test_ac7_label_tuple_oracles(capsys):
    result = multichar_suite(8)
    ok = result.passed
    report(capsys, "AC7 label-tuple oracles", ok, f"{result.checks} checks")
    assert result.violations == []


def test_ac8_structure_audits(capsys):
    result = structure_suite([2, 3], 14)
    ok = result.passed
    report(capsys, "AC8 structure audits", ok, f"{result.checks} predicate checks")
    assert result.violations == []


def test_ac9_conjecture_sweeps(capsys):
    start = time.perf_counter()
    sweeps = {
        (5, 18): list(sweep(5, range(0, 19), conjecture=True)),
        (7, 16): list(sweep(7, range(0, 17), conjecture=True)),
    }
    elapsed = time.perf_counter() - start
    counterexamples = [c for s in sweeps.values() for r in s for c in r.counterexamples]
    summaries = [summary(p, f"n<={top}", s) for (p, top), s in sweeps.items()]
    consistent = all(equivalence_consistent(s) for s in sweeps.values())
    worded = all("no counterexample found" in s for s in summaries) and not any(
        "true" in s for s in summaries
    )
    ok = not counterexamples and consistent and worded and elapsed < 900.0
    report(capsys, "AC9 conjecture sweeps", ok, f"{elapsed:.1f}s, {'; '.join(summaries)}")
    assert counterexamples == []
    assert consistent and worded
    assert elapsed < 900.0


def test_ac10_named_regression_vectors(capsys):
    failures = []

    if character_value((3, 3, 2), (4, 2, 1, 1)) != -2:
        failures.append("char (3,3,2) on (4,2,1,1)")
    if degree((3, 3, 2)) != 42:
        failures.append("degree (3,3,2)")

    for x in range(2, 9):
        label = as_partition((x - 1, 1))
        for beta in enumerate_partitions(x):
            fixed = sum(1 for c in beta if c == 1)
            if character_value(label, beta) != fixed - 1:
                failures.append(f"near-trivial label at x={x}, beta={beta}")

    # hook shapes (c, 1^(n-c)) with e_t <= n-c < p^t are singular whenever
    # the digit split at t is proper (d_t and e_t both avoid 0 and n)
    grid = 0
    for p in (2, 3, 5):
        for n in range(2, 25):
            ctx = p_adic_context(n, p)
            for t in range(1, ctx.k + 1):
                d, e = ctx.div(t), ctx.rem(t)
                if d in (0, n) or e in (0, n):
                    continue
                for c in range(1, n + 1):
                    if e <= n - c < p**t:
                        grid += 1
                        alpha = as_partition((c,) + (1,) * (n - c))
                        if not is_p_singular(alpha, ctx):
                            failures.append(f"hook shape p={p} n={n} t={t} c={c}")

    for n in range(6, 17):
        if degree((n - 3, 2, 1)) != n * (n - 2) * (n - 4) // 3:
            failures.append(f"staircase degree at n={n}")

    ok = not failures and grid > 0
    report(capsys, "AC10 named regression vectors", ok, f"{grid} hook-shape checks")
    assert failures == []
    assert grid > 0
