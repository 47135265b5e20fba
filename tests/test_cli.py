"""Command-line surface: outputs, exit codes, JSON round trips, determinism."""

from __future__ import annotations

import hashlib
import json
import re
import shlex
from pathlib import Path

import pytest

import pvanish
from pvanish import characters, cli, padic, vanishing, verify
from pvanish.vanishing import VanishReport, vanishing_classes


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# single evaluations
# ---------------------------------------------------------------------------


def test_char_text(capsys):
    code, out, _ = run(capsys, "char", "--alpha", "3,3,2", "--beta", "4,2,1,1")
    assert code == 0
    assert out.strip() == "-2"


def test_char_json(capsys):
    code, out, _ = run(
        capsys, "char", "--alpha", "(4,2,1^3)", "--beta", "9", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "schema_version": 1,
        "alpha": [4, 2, 1, 1, 1],
        "beta": [9],
        "value": 0,
    }


def test_char_more_examples(capsys):
    assert run(capsys, "char", "--alpha", "5", "--beta", "3,2")[1].strip() == "1"
    assert run(capsys, "char", "--alpha", "1,1,1", "--beta", "3")[1].strip() == "1"


def test_degree(capsys):
    code, out, _ = run(capsys, "degree", "--alpha", "3,3,2")
    assert code == 0 and out.strip() == "42"


# ---------------------------------------------------------------------------
# partition surgery
# ---------------------------------------------------------------------------


def test_decompose_compose_roundtrip(capsys, request):
    code, out, _ = run(capsys, "decompose", "--alpha", "4", "--r", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["core"] == [] and payload["weight"] == 2

    quotient = ";".join(
        "(" + (",".join(str(c) for c in q) or "0") + ")" for q in payload["quotient"]
    )
    # the core check reads the weight alone and builds no decomposition
    request.getfixturevalue("no_decompositions")
    code, out, _ = run(
        capsys, "compose", "--core", "0", "--quotient", quotient, "--r", "2"
    )
    assert code == 0
    assert out.strip() == "(4)"


def test_decompose_long_column_matches_compose(capsys):
    # a 4,000-bead display: the sign must not cost a pass over every pair of beads
    code, out, _ = run(capsys, "decompose", "--alpha", "1^2000", "--r", "1999", "--json")
    assert code == 0
    payload = json.loads(out)
    # one 1999-hook, the first column down to its last cell, leg 1998
    assert payload["core"] == [1]
    assert payload["weight"] == 1 and payload["sign"] == 1
    quotient = ";".join(
        "(" + (",".join(str(c) for c in q) or "0") + ")" for q in payload["quotient"]
    )
    code, out, _ = run(capsys, "compose", "--core", "1", "--quotient", quotient, "--r", "1999")
    assert code == 0
    assert out.strip() == "(" + ",".join(["1"] * 2000) + ")"


def test_decompose_text(capsys):
    code, out, _ = run(capsys, "decompose", "--alpha", "2,1", "--r", "2")
    assert code == 0
    assert "core: (2,1)" in out
    assert "weight: 0" in out


def test_core_and_quotient_commands(capsys):
    code, out, _ = run(capsys, "core", "--alpha", "4", "--r", "2")
    assert code == 0 and out.strip() == "(0)"
    code, out, _ = run(capsys, "quotient", "--alpha", "4", "--r", "2")
    assert code == 0 and out.strip() == "(0);(2)"


def test_padic_json(capsys):
    code, out, _ = run(capsys, "padic", "--n", "10", "--p", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["digits"] == [0, 1, 0, 1]
    assert payload["p_power_partition"] == [8, 2]
    assert payload["schema_version"] == 1


# ---------------------------------------------------------------------------
# vanishing sweeps
# ---------------------------------------------------------------------------


def entry_lines(out: str) -> list[str]:
    return [l for l in out.splitlines() if l.startswith("  n=")]


def test_vanishing_text_small_sweep(capsys):
    code, out, _ = run(capsys, "vanishing", "--p", "2", "--n", "0..7")
    assert code == 0
    assert "(11 classes)" in out
    assert len(entry_lines(out)) == 11
    assert sum(1 for l in entry_lines(out) if l.endswith("*")) == 3


def test_vanishing_json_matches_text(capsys):
    code, text_out, _ = run(capsys, "vanishing", "--p", "3", "--n", "0..8")
    assert code == 0
    code, json_out, _ = run(capsys, "vanishing", "--p", "3", "--n", "0..8", "--json")
    assert code == 0
    payload = json.loads(json_out)
    assert payload["schema_version"] == 1
    assert payload["total_vanishing"] == 24
    entries = [e for r in payload["reports"] for e in r["vanishing"]]
    assert len(entries) == len(entry_lines(text_out)) == 24
    flagged_text = sum(1 for l in entry_lines(text_out) if l.endswith("*"))
    flagged_json = sum(1 for e in entries if not e["p_adic_type"])
    assert flagged_text == flagged_json == 8


def test_vanishing_single_n(capsys):
    code, out, _ = run(capsys, "vanishing", "--p", "3", "--n", "8")
    assert code == 0
    assert "(6 classes)" in out


def test_vanishing_with_audit(capsys):
    code, out, _ = run(capsys, "vanishing", "--p", "2", "--n", "0..6", "--audit")
    assert code == 0
    assert "structure: pass" in out


def test_vanishing_conjecture_mode(capsys):
    code, out, _ = run(
        capsys, "vanishing", "--p", "5", "--n", "10", "--check-conjecture"
    )
    assert code == 0
    assert "no counterexample found" in out


def test_vanishing_deterministic(capsys):
    first = run(capsys, "vanishing", "--p", "2", "--n", "0..7", "--json")[1]
    second = run(capsys, "vanishing", "--p", "2", "--n", "0..7", "--json")[1]
    assert first == second


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("char", "--alpha", "3,1", "--beta", "3"),  # size mismatch
        ("char", "--alpha", "x", "--beta", "1"),  # unparsable
        ("padic", "--n", "10", "--p", "4"),  # not prime
        ("vanishing", "--p", "2", "--n", "31"),  # over the sweep limit
        ("vanishing", "--p", "2", "--n", "7..3"),  # backwards range
        ("vanishing", "--p", "2", "--n", "5", "--workers", "2"),  # removed option
        ("vanishing", "--p", "2", "--n", "5", "--cache", "shared"),  # removed option
        ("verify", "--suite", "equivalence", "--workers", "2"),  # removed option
        ("verify", "--suite", "equivalence", "--max-n", "-1"),  # runs 0 checks
        ("vanishing", "--p", "2,3", "--n", "5"),  # one prime only
        ("vanishing", "--p", "2", "--n", "5", "--check-conjecture"),  # p too small
        ("compose", "--core", "2", "--quotient", "(0);(0)", "--r", "2"),  # not a core
        ("degree", "--alpha", "1^1000000000000"),  # over the size cap, never expanded
        # primes and moduli past the size cap, refused before trial division
        # or an r-hook display of that size
        ("padic", "--n", "10", "--p", "2305843009213693951"),
        ("vanishing", "--p", "2305843009213693951", "--n", "5"),
        ("verify", "--suite", "equivalence", "--p", "2,100003"),
        ("decompose", "--alpha", "1", "--r", "100000"),
        ("compose", "--core", "0", "--quotient", "(0)", "--r", "100000"),
        ("core", "--alpha", "1", "--r", "100000"),
        ("quotient", "--alpha", "1", "--r", "100000"),
        ("verify", "--suite", "equivalence", "--p", "2,2", "--max-n", "3"),  # repeated prime
        ("verify", "--suite", "conjectures", "--p", "5,5", "--max-n", "4"),  # repeated prime
        # full character tables past TABLE_GUARD, refused before they are built
        ("verify", "--suite", "orthogonality", "--max-n", "17"),
        ("verify", "--suite", "conjugation-twist", "--max-n", "17"),
        # sizes past the cap: a composed partition, and the n of padic
        ("compose", "--core", "0", "--quotient", "(10000);(0)", "--r", "2"),
        ("padic", "--n", "10001", "--p", "2"),
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.strip()


def test_size_caps_admit_the_cap(capsys):
    code, out, _ = run(capsys, "compose", "--core", "0", "--quotient", "(5000);(0)", "--r", "2")
    assert (code, out.strip()) == (0, "(9999,1)")
    assert run(capsys, "padic", "--n", "10000", "--p", "2")[0] == 0


@pytest.mark.parametrize("primes", ["", ","])
@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--suite", "equivalence", "--max-n", "3"),
        ("vanishing", "--n", "5"),
    ],
)
def test_empty_prime_list_exits_2(capsys, argv, primes):
    # an empty list must not fall back to the default primes or sweep nothing
    code, out, err = run(capsys, *argv, "--p", primes)
    assert code == 2
    assert "no prime" in err
    assert out == ""


def test_sweep_range_checked_before_sweeping(capsys):
    # the top of the range is over the limit, so not even n = 0 is classified
    pvanish.clear_caches()
    code, _, err = run(capsys, "vanishing", "--p", "2", "--n", "0..31")
    assert code == 2
    assert "--limit" in err
    assert vanishing_classes.cache_info().currsize == 0


@pytest.mark.parametrize("suite", ["orthogonality", "conjugation-twist"])
def test_table_guard_checked_before_building(capsys, suite):
    # the top of the range is over TABLE_GUARD, so not even n = 0 gets a column
    pvanish.clear_caches()
    code, _, err = run(capsys, "verify", "--suite", suite, "--max-n", "17")
    assert code == 2
    assert "guard" in err
    assert characters._column.cache_info().currsize == 0


def test_verify_all_checks_every_table_bound_first(capsys):
    # orthogonality refuses 17, so equivalence, which runs first and fills
    # the p'-label table, must not run at all
    pvanish.clear_caches()
    code, out, err = run(capsys, "verify", "--suite", "all", "--max-n", "17")
    assert (code, out) == (2, "")
    assert "guard" in err
    assert padic._pprime_masks.cache_info().currsize == 0


def test_range_sweep_releases_the_growing_tables(capsys):
    # the CLI loops through vanishing.sweep, which drops _char and the
    # p'-label sets after each n
    pvanish.clear_caches()
    code, out, _ = run(
        capsys, "vanishing", "--p", "7", "--n", "0..27", "--limit", "27", "--check-conjecture",
        "--json",
    )
    assert code == 0 and json.loads(out)["counterexample_count"] == 0
    assert characters._char.cache_info().currsize == 0
    assert padic._pprime_masks.cache_info().currsize == 0


def test_fixed_point_tail_costs_no_depth(capsys):
    code, out, _ = run(capsys, "char", "--alpha", "1^1200", "--beta", "1^1200")
    assert code == 0
    assert out.strip() == "1"


def test_internal_error_exit_3(capsys):
    # 1000 nested 2-hook removals exceed the default recursion limit
    code, out, err = run(capsys, "char", "--alpha", "2000", "--beta", "2^1000")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error:")
    assert "violation" not in err


def test_argparse_errors_exit_2(capsys):
    assert run(capsys, "bogus")[0] == 2
    assert run(capsys, "verify", "--suite", "nonsense")[0] == 2
    assert run(capsys)[0] == 2


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0


def test_counterexample_exit_1(capsys, monkeypatch):
    # plumbing check only: force one counterexample through the report path
    def fake_report(ctx, *, audit=False, conjecture=False):
        return VanishReport(
            n=ctx.n,
            p=ctx.p,
            vanishing=[],
            audits={},
            counterexamples=[{"kind": "classifier_disagreement", "beta": [ctx.n]}],
        )

    monkeypatch.setattr(vanishing, "list_p_vanishing", fake_report)
    code, out, _ = run(capsys, "vanishing", "--p", "2", "--n", "4")
    assert code == 1
    assert "COUNTEREXAMPLE" in out


def test_missed_type_without_witness_exits_1(capsys, monkeypatch):
    # a sweep that drops the p-adic-type class (10) disagrees with the
    # oracle, which finds no witness for it; the scan reports it all the same
    def dropped(n, p):
        return tuple(beta for beta in vanishing_classes(n, p) if beta != (10,))

    monkeypatch.setattr(vanishing, "vanishing_classes", dropped)
    code, out, _ = run(capsys, "vanishing", "--p", "5", "--n", "10", "--check-conjecture", "--json")
    assert code == 1
    (report,) = json.loads(out)["reports"]
    assert report["counterexamples"] == [
        {"kind": "p_adic_type_not_vanishing", "beta": [10], "witness": None}
    ]


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------


def test_verify_suite_text(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "equivalence", "--p", "2", "--max-n", "8"
    )
    assert code == 0
    assert "pass" in out
    assert "0 failed" in out


def test_verify_suite_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "orthogonality", "--max-n", "6", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["failed"] == 0
    assert payload["suites"][0]["name"] == "orthogonality"
    assert payload["suites"][0]["violations"] == []


def test_verify_split_classifier(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "split-classifier", "--p", "2,3", "--max-n", "10"
    )
    assert code == 0
    assert "split-classifier" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--suite", "split-classifier", "--p", "5"),  # only p = 2, 3
        ("verify", "--suite", "conjectures", "--p", "2,3"),  # only p >= 5
    ],
)
def test_verify_zero_checks_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "0 checks" in err
    assert "pass" not in out


@pytest.mark.parametrize(
    "p,skipped", [("2", "conjectures"), ("5", "split-classifier")]
)
def test_verify_all_skips_suites_with_zero_checks(capsys, p, skipped):
    # conjectures takes only p >= 5 and split-classifier only p = 2, 3
    code, out, _ = run(capsys, "verify", "--suite", "all", "--p", p, "--max-n", "6")
    assert code == 0
    assert f"skipped, 0 checks with these options: {skipped}\n" in out
    assert f"{len(verify.SUITES) - 1} suite(s)" in out
    code, out, _ = run(capsys, "verify", "--suite", "all", "--p", p, "--max-n", "6", "--json")
    suites = json.loads(out)["suites"]
    assert code == 0 and skipped not in [s["name"] for s in suites]
    assert all(s["checks"] > 0 for s in suites)


def test_verify_all_with_zero_checks_exits_2(capsys):
    code, out, err = run(capsys, "verify", "--suite", "all", "--max-n", "-1")
    assert code == 2
    assert "suite 'all' ran 0 checks" in err
    assert out == ""


@pytest.mark.parametrize(
    "suite", [name for name, (primes, _, _) in verify.SUITES.items() if not primes]
)
def test_verify_primeless_suite_rejects_p(capsys, suite):
    code, out, err = run(capsys, "verify", "--suite", suite, "--p", "2")
    assert code == 2
    assert f"suite {suite!r} takes no primes" in err
    assert out == ""


def test_verify_failure_exits_1(capsys, monkeypatch):
    # the registry runner reads the suite's module global when it runs
    def fake_suite(primes, max_n):
        return verify.SuiteResult(name="equivalence", checks=1, violations=[{"fake": True}])

    monkeypatch.setattr(verify, "equivalence_suite", fake_suite)
    code, out, _ = run(capsys, "verify", "--suite", "equivalence")
    assert code == 1
    assert "FAIL" in out


def test_verify_suite_choices_are_the_registry():
    (commands,) = [a for a in cli._build_parser()._actions if a.dest == "command"]
    (suite,) = [a for a in commands.choices["verify"]._actions if a.dest == "suite"]
    assert list(suite.choices) == [*verify.SUITES, "all"]


# ---------------------------------------------------------------------------
# README examples
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]


def readme_examples() -> list[tuple[list[str], list[str]]]:
    """Each "$ pvanish ..." line of README.md with the output lines shown under it."""
    examples: list[tuple[list[str], list[str]]] = []
    shown = None  # the output lines of the example being read, if any
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith(("```", "$")):
            shown = None
            if line.startswith("$ pvanish "):
                shown = []
                examples.append((shlex.split(line)[2:], shown))
        elif shown is not None:
            shown.append(line)
    return [(argv, shown) for argv, shown in examples if shown]


def test_readme_examples_print_what_they_show(capsys):
    examples = readme_examples()
    assert {argv[0] for argv, _ in examples} >= {"char", "degree", "decompose", "compose", "padic"}
    for argv, shown in examples:
        code, out, _ = run(capsys, *argv)
        assert (code, out.splitlines()) == (0, shown), argv


# ---------------------------------------------------------------------------
# byte-identical --json output
# ---------------------------------------------------------------------------

REFERENCES = ROOT / "perfbench" / "references.json"


@pytest.mark.parametrize(
    "command",
    [
        "vanishing --p 7 --n 25 --limit 25 --check-conjecture --json",
        "vanishing --p 7 --n 26 --limit 26 --check-conjecture --json",
        "vanishing --p 7 --n 27 --limit 27 --check-conjecture --json",
        "vanishing --p 2 --n 0..21 --limit 21 --audit --json",
        "vanishing --p 2 --n 22..23 --limit 23 --audit --json",
        "vanishing --p 2 --n 24 --limit 24 --audit --json",
        "vanishing --p 3 --n 0..21 --limit 21 --audit --json",
        "vanishing --p 3 --n 22..23 --limit 23 --audit --json",
        "vanishing --p 3 --n 24 --limit 24 --audit --json",
        "verify --suite orthogonality --max-n 13 --json",
        "verify --suite conjugation-twist --max-n 14 --json",
        "verify --suite factorization --max-n 12 --json",
        "verify --suite multichar --max-n 7 --json",
        "verify --suite equivalence --p 2,3,5 --max-n 14 --json",
    ],
)
def test_json_output_matches_reference_digest(capsys, command):
    digest = json.loads(REFERENCES.read_text())["sha256"][command]
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    if command.startswith("verify"):
        # the references store verify output with its wall-clock field zeroed
        out = re.sub(r'("elapsed": )-?[0-9][0-9.eE+-]*', r"\g<1>0", out)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of the --json output of hunts outside the benchmark's references:
# two levels of the weight bound (q = 5, 25) at p = 5, and a larger prime; of
# audited sweeps at a size and a prime the references do not cover (k = 2 at
# p = 5) and at n = 36 for p = 2, 3, with a p = 7 hunt at n = 40, sizes where
# the closed-form tiers decide almost every class, and over n <= 50 at p = 2
# and n <= 40 at p = 3, where the audit's classes must be built, not listed;
# of the two verify suites that read the brute-force flag table; and of
# multichar and factorization at their `verify --suite all` bounds, which the
# references run lower; every verify output with its wall-clock "elapsed"
# zeroed as in the references
PINNED_DIGESTS = {
    "vanishing --p 5 --n 35 --limit 35 --check-conjecture --json": (
        "cb9483e1271a545c23562d5477bbb921d593af4f7632bb6a1f9e20698b8d48e0"
    ),
    "vanishing --p 11 --n 30 --limit 30 --check-conjecture --json": (
        "a3c4c3d3991945a40f28612b16b19fffae37b1bb38d0e17d955934abdaf5e21f"
    ),
    "vanishing --p 2 --n 26 --limit 26 --audit --json": (
        "fd1ee78f909f07f5ea64c753969c4d632811bfdf19fe20f29b2ff52bf040341a"
    ),
    "vanishing --p 5 --n 26 --limit 26 --audit --json": (
        "964051163e5b3ea55998d38db5b04cff67abc7929bae3ce30597a2f55dad9007"
    ),
    "vanishing --p 2 --n 36 --limit 36 --audit --json": (
        "bbd2235d67f3777c37e184159fc1972ff97a153167352b00f4734c266b53bb18"
    ),
    "vanishing --p 3 --n 36 --limit 36 --audit --json": (
        "e30d5ed539fcff98842aac74c6855c6a09fc20c0da1743c90bdf1f004a112d84"
    ),
    "vanishing --p 2 --n 0..50 --limit 50 --audit --json": (
        "a4c2f6c0af7ba42b0c798824ecbeb626811f8515dbfa9f1946cc274bf6c1b01a"
    ),
    "vanishing --p 3 --n 0..40 --limit 40 --audit --json": (
        "e9b85d9c449724c2adb157f84d2de60b2d8028971aad81590abf6b44071a81b6"
    ),
    "vanishing --p 7 --n 40 --limit 40 --check-conjecture --json": (
        "9b52c56ee2ac67d3f68ed83ec6f1317bf0724423902162ceb500a15571452005"
    ),
    "verify --suite structure --p 2,3 --max-n 16 --json": (
        "cdea45657074ba2c0d91090a4b5438431fa2039ef5670ea3a3a6e4aded6150c3"
    ),
    "verify --suite split-classifier --p 2,3 --max-n 16 --json": (
        "10597373c31c76b5ca9ff804fcca0dcdc3e7d2f27ccbcd3086774cc096b6685d"
    ),
    "verify --suite multichar --max-n 8 --json": (
        "bccf7011452fe363e1669a9be59b418f0b5edc2a303711003e1c93a2cb2fd803"
    ),
    "verify --suite factorization --max-n 14 --json": (
        "ae30b726071a72e53c16b231ebd04828ae7a03ce3ed52b47b8347c55d6e79aa0"
    ),
    "decompose --alpha 1^10000 --r 9999 --json": (
        "bdafaf0c031eb718e4b73d528432999c8b8ea21470d37ffb3070d5916ffc12a8"
    ),
}


@pytest.mark.parametrize("command", sorted(PINNED_DIGESTS))
def test_json_output_matches_pinned_digest(capsys, command):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    if command.startswith("verify"):
        out = re.sub(r'("elapsed": )-?[0-9][0-9.eE+-]*', r"\g<1>0", out)
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DIGESTS[command]
