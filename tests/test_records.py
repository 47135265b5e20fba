"""Result records and reports: immutability, hashing, fresh containers, the
key order and JSON round trip of the report and suite dicts, constructor
forms, the import path of the CLI that the lightweight record classes keep
short, and the package's export list."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pvanish
from pvanish import vanishing
from pvanish.characters import CharacterTable, character_table
from pvanish.padic import p_adic_context
from pvanish.partitions import r_decompose
from pvanish.vanishing import (
    audit_vanishing_structure,
    equivalence_consistent,
    list_p_vanishing,
    summary,
    sweep,
)
from pvanish.verify import SUITES, degree_column_suite

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
    first, second = degree_column_suite(3), degree_column_suite(3)
    assert first["violations"] is not second["violations"]
    first["violations"].append({"kind": "x"})
    first["checks"] += 1
    first["elapsed"] = 1.5
    assert (second["checks"], second["violations"], second["passed"]) == (7, [], True)
    assert second["elapsed"] != 1.5


def test_suite_results_keep_their_key_order():
    for name, (primes, _, _, runner) in SUITES.items():
        result = runner(list(primes), 3)
        assert list(result) == ["name", "checks", "violations", "passed", "elapsed"], name
        assert result["name"] == name


def test_reports_keep_their_key_order():
    report = list_p_vanishing(p_adic_context(7, 2))
    assert list(report) == ["schema_version", "n", "p", "vanishing", "audits", "counterexamples"]
    assert [list(entry) for entry in report["vanishing"]] == [["parts", "p_adic_type", "split_i"]]


@pytest.mark.parametrize(
    "p,ns,keywords", [(2, range(25), {"audit": True}), (7, range(28), {"conjecture": True})]
)
def test_reports_survive_a_json_round_trip(p, ns, keywords):
    # a tuple, or a dict with a key that is no string, would come back changed
    for report in sweep(p, ns, **keywords):
        assert json.loads(json.dumps(report)) == report, report["n"]


def test_structure_audits_never_share_containers(monkeypatch):
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

    # in a report, a class's parts and the beta of its counterexample are two
    # lists: (9, 1, 1, 1), made to vanish at n = 12, p = 5, has no p-adic type
    real = vanishing.vanishing_classes
    monkeypatch.setattr(
        vanishing, "vanishing_classes", lambda n, p: real(n, p) + ((9, 1, 1, 1),)
    )
    report = list_p_vanishing(p_adic_context(12, 5), conjecture=True)
    entry = report["vanishing"][-1]
    (flagged,) = [
        c for c in report["counterexamples"] if c["kind"] == "vanishing_without_p_adic_type"
    ]
    assert entry["parts"] == flagged["beta"] == [9, 1, 1, 1]
    assert entry["parts"] is not flagged["beta"]

    # an audited report copies each structure violation into counterexamples:
    # (6, 6), made to vanish at n = 12, p = 2, gives three violations
    monkeypatch.setattr(
        vanishing, "vanishing_classes", lambda n, p: real(n, p) + ((6, 6),) * (n == 12)
    )
    report = list_p_vanishing(p_adic_context(12, 2), audit=True)
    audited = report["audits"]["structure"]["violations"]
    copied = [c for c in report["counterexamples"] if "predicate" in c]
    assert len(audited) == 3 and copied == audited
    for mine, theirs in zip(audited, copied):
        assert mine is not theirs and mine["beta"] is not theirs["beta"]


def test_constructor_forms():
    table = character_table(3)
    rebuilt = CharacterTable(table.n, table.labels, table.values)
    assert rebuilt == table

    # a report written by hand reads like one from list_p_vanishing; below
    # p = 5 nothing counts as the conjecture's counterexample
    report = {"n": 4, "p": 2, "counterexamples": [{"kind": "k", "beta": [4]}]}
    assert summary(2, "n=4", [report]) == "p=2 n=4: no counterexample found"
    empty = {
        "schema_version": 1, "n": 5, "p": 5, "vanishing": [], "audits": {}, "counterexamples": []
    }
    found = list_p_vanishing(p_adic_context(5, 5), conjecture=True)
    assert summary(5, "n=5", [found]) == summary(5, "n=5", [empty])
    assert equivalence_consistent([empty])
