"""Result records: immutability, hashing, fresh containers, constructor forms,
the import path of the CLI that the lightweight record classes keep short,
and the package's export list."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pvanish
from pvanish.characters import CharacterTable, character_table
from pvanish.padic import p_adic_context
from pvanish.partitions import r_decompose
from pvanish.vanishing import (
    VanishEntry,
    VanishReport,
    audit_vanishing_structure,
    list_p_vanishing,
    summary,
)
from pvanish.verify import SuiteResult

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_pulls_in_no_dataclasses_or_inspect():
    # -S skips site-packages and its .pth hooks, so only pvanish's own imports count
    proc = subprocess.run(
        [
            sys.executable,
            "-S",
            "-c",
            "import sys, pvanish.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))",
        ],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_package_exports_are_sorted_unique_and_resolve():
    names = pvanish.__all__
    assert names == sorted(set(names))
    assert [name for name in names if not hasattr(pvanish, name)] == []


@pytest.mark.parametrize(
    "record",
    [
        r_decompose((4, 2, 1), 3),
        p_adic_context(10, 3),
        character_table(3),
    ],
    ids=lambda record: type(record).__name__,
)
def test_value_records_reject_assignment(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_p_adic_context_is_hashable_and_cached():
    p_adic_context.cache_clear()
    ctx = p_adic_context(10, 3)
    assert p_adic_context(10, 3) is ctx
    assert p_adic_context.cache_info().hits == 1
    assert {ctx: "x"}[p_adic_context(10, 3)] == "x"
    assert hash(ctx) == hash(p_adic_context.__wrapped__(10, 3))
    assert ctx != p_adic_context(10, 2)


def test_suite_results_never_share_containers():
    first, second = SuiteResult("a"), SuiteResult("b")
    assert first.violations is not second.violations
    first.violations.append({"kind": "x"})
    first.checks += 1
    first.elapsed = 1.5
    assert (second.checks, second.violations, second.elapsed) == (0, [], 0.0)


def test_structure_audits_never_share_containers():
    ctx = p_adic_context(4, 2)
    first, second = audit_vanishing_structure(ctx), audit_vanishing_structure(ctx)
    for name in ("checked", "violations", "informational"):
        assert first[name] is not second[name]
    first["checked"]["min_part"] = 1
    first["violations"].append({"predicate": "min_part"})
    first["informational"].append({"predicate": "min_part"})
    first["vanishing_count"] = 3
    assert second == audit_vanishing_structure(ctx)
    assert second["passed"] and not second["violations"]
    assert second["vanishing_count"] == 2


def test_constructor_forms():
    report = VanishReport(
        n=4, p=2, vanishing=[], audits={}, counterexamples=[{"kind": "k", "beta": [4]}]
    )
    assert report.to_json_dict()["counterexamples"] == [{"kind": "k", "beta": [4]}]
    entry = VanishEntry(parts=(4,), p_adic_type=True, split_i=None)
    assert (entry.parts, entry.p_adic_type, entry.split_i) == ((4,), True, None)

    result = SuiteResult(name="equivalence", checks=1, violations=[{"fake": True}])
    assert (result.name, result.checks, result.passed) == ("equivalence", 1, False)

    table = character_table(3)
    rebuilt = CharacterTable(table.n, table.labels, table.values)
    assert rebuilt == table

    empty = VanishReport(5, 5, [], {}, [])
    assert (empty.n, empty.p, empty.counterexamples) == (5, 5, [])
    found = list_p_vanishing(p_adic_context(5, 5), conjecture=True)
    assert summary(5, "n=5", [found]) == summary(5, "n=5", [empty])
