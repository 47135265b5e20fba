"""Vanishing classification: brute force, structural classifier, audits, scans."""

from __future__ import annotations

import json
from functools import cache

import pytest
from naive import naive_two_row_and_hook_values

import pvanish
from pvanish import characters, padic, vanishing, verify
from pvanish.characters import character_value
from pvanish.padic import (
    _mask_singular,
    degree_valuation,
    is_p_adic_type,
    is_p_singular,
    p_adic_context,
    p_adic_type_classes,
)
from pvanish.partitions import _beta_mask, enumerate_partitions, partition_count
from pvanish.vanishing import (
    STRUCTURAL_LEVEL,
    audit_vanishing_structure,
    base_vanishing_table,
    equivalence_consistent,
    is_p_vanishing_structural,
    list_p_vanishing,
    nonvanishing_witness,
    structural_classes,
    structural_split,
    suffix_reduction_check,
    summary,
    sweep,
    vanishing_classes,
)
from pvanish.verify import conjecture_suite, split_classifier_suite, structure_suite


def _by_kind(ctx):
    """The conjecture's counterexamples of one report, by kind, in report order."""
    found = {}
    for c in list_p_vanishing(ctx, conjecture=True).counterexamples:
        found.setdefault(c["kind"], []).append(c)
    return found


# ---------------------------------------------------------------------------
# brute force
# ---------------------------------------------------------------------------


@cache
def _degree_singular_labels(n, p):
    """The p-singular labels of S_n in enumeration order, by the degree's valuation."""
    ctx = p_adic_context(n, p)
    return [a for a in enumerate_partitions(n) if is_p_singular(a, ctx, "degree")]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", range(0, 15))
def test_singular_partitions_match_predicate(n, p):
    # the oracle's filter reads each label's beta mask; the degree method
    # divides hook products and reads no mask
    ctx = p_adic_context(n, p)
    masks = [m for m in map(_beta_mask, enumerate_partitions(n)) if _mask_singular(m, ctx)]
    assert masks == list(map(_beta_mask, _degree_singular_labels(n, p)))


def test_singular_filter_builds_no_decompositions(no_decompositions):
    # the b_invariants test reads r-weights only, never the full record
    pvanish.clear_caches()
    ctx = p_adic_context(20, 2)
    assert any(_mask_singular(m, ctx) for m in map(_beta_mask, enumerate_partitions(20)))


def test_witness_enumerates_only_as_far_as_the_witness(monkeypatch):
    # (58, 2) is the third label of S_60 and the first 5-singular one that
    # is nonzero on (59, 1); the scan must not list the other partitions
    pulled = []
    real = vanishing.enumerate_partitions

    def counted(n):
        for alpha in real(n):
            pulled.append(alpha)
            yield alpha

    monkeypatch.setattr(vanishing, "enumerate_partitions", counted)
    assert nonvanishing_witness((59, 1), 5) == ((58, 2), -1)
    assert len(pulled) <= 3


def test_witness_is_singular_with_nonzero_value():
    ctx = p_adic_context(8, 2)
    for beta in enumerate_partitions(8):
        witness = nonvanishing_witness(beta, 2)
        if witness is None:
            assert all(character_value(a, beta) == 0 for a in _degree_singular_labels(8, 2))
            continue
        alpha, value = witness
        assert is_p_singular(alpha, ctx)
        assert value != 0
        assert character_value(alpha, beta) == value


def _first_witness(beta, p):
    for alpha in _degree_singular_labels(sum(beta), p):
        value = character_value(alpha, beta)
        if value:
            return (alpha, value)
    return None


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_witness_is_first_nonzero_singular_label(p):
    for n in range(15):
        for beta in enumerate_partitions(n):
            assert nonvanishing_witness(beta, p) == _first_witness(beta, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_weight_bound_skips_only_zero_values(p):
    # a class of p-adic type demands div(t) hooks of length p^t at every
    # level t, which the p^t-weight of each singular label falls short of at
    # its first digit mismatch, so vanishing_classes skips its scan: every
    # singular label must be 0 on it
    checked = 0
    for n in range(17):
        ctx = p_adic_context(n, p)
        labels = _degree_singular_labels(n, p)
        for beta in p_adic_type_classes(ctx):
            for alpha in labels:
                assert character_value(alpha, beta) == 0, (alpha, beta)
                checked += 1
    assert checked > 0


def test_witness_scan_keeps_top_level_pairs_out_of_memo():
    # a label of S_5 either has no 5-hook or loses all of it to one, so only
    # the empty remainder (0, ()) may be stored, not one entry per label tried
    pvanish.clear_caches()
    nonvanishing_witness((5,), 2)
    assert characters._char.cache_info().currsize <= 1


@pytest.mark.parametrize("beta", [(3, 0), (2, 0), (0,)])
def test_witness_rejects_non_positive_parts(beta):
    # S_2 and S_0 have no 2-singular label, so the class is checked before the scan
    with pytest.raises(ValueError):
        nonvanishing_witness(beta, 2)


@pytest.mark.parametrize("p,n", [(2, 9), (3, 8)])
def test_flags_in_enumeration_order(p, n):
    expected = [b for b in enumerate_partitions(n) if nonvanishing_witness(b, p) is None]
    assert list(vanishing_classes(n, p)) == expected


def test_one_flag_table_per_sweep():
    # the plain report and the conjecture report share one scan of (20, 7);
    # witnesses are not memoized, and the shared tuple cannot be changed by a caller
    pvanish.clear_caches()
    ctx = p_adic_context(20, 7)
    list_p_vanishing(ctx)
    list_p_vanishing(ctx, conjecture=True)
    info = vanishing_classes.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    assert not hasattr(nonvanishing_witness, "cache_info")
    classes = vanishing_classes(20, 7)
    assert type(classes) is tuple
    assert (20,) not in classes and (14, 6) in classes


def test_sweep_keeps_no_label_table(monkeypatch):
    # the survivor scans keep their singular masks only for the call; a
    # clean hunt reports no class, so it never scans for a witness
    def refuse(*args):
        raise AssertionError(f"nonvanishing_witness{args} was called")

    monkeypatch.setattr(vanishing, "nonvanishing_witness", refuse)
    pvanish.clear_caches()
    for n in range(25):
        assert list_p_vanishing(p_adic_context(n, 5), conjecture=True).counterexamples == []


# ---------------------------------------------------------------------------
# the pruned class search and the decision of its survivors
# ---------------------------------------------------------------------------


def _two_row(n, k):
    return tuple(x for x in (n - k, k) if x)


def _hook(n, k):
    return (n - k,) + (1,) * k


def _tier_labels(n, p):
    """(k, two-row singular, hook singular) for k <= n/2, by the degree's valuation."""
    return [
        (k, degree_valuation(_two_row(n, k), p) > 0, degree_valuation(_hook(n, k), p) > 0)
        for k in range(n // 2 + 1)
    ]


def test_closed_forms_match_character_values():
    # the identities the search cuts by, against Murnaghan-Nakayama
    checked = 0
    for n in range(17):
        for beta in enumerate_partitions(n):
            two_row, hook = naive_two_row_and_hook_values(beta)
            for k, value in enumerate(two_row):
                assert value == character_value(_two_row(n, k), beta), (n, k, beta)
            for k, value in enumerate(hook):
                assert value == character_value(_hook(n, k), beta), (n, k, beta)
            checked += 1
    assert checked == sum(1 for n in range(17) for _ in enumerate_partitions(n))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_undecided_are_the_zeros_of_the_singular_two_row_and_hook_labels(p):
    for n in range(17):
        labels = [
            alpha
            for alpha in {_two_row(n, k) for k in range(n // 2 + 1)}
            | {_hook(n, k) for k in range(n)}
            if degree_valuation(alpha, p) > 0
        ]
        oracle = [
            beta
            for beta in enumerate_partitions(n)
            if all(character_value(alpha, beta) == 0 for alpha in labels)
        ]
        assert vanishing._undecided(n, p) == oracle, n


def test_undecided_matches_the_closed_forms_to_n_30():
    # past the reach of character_value, the packed slots against plain
    # coefficient lists; 1^n puts the degrees, the largest values, in them
    tiers = {(n, p): _tier_labels(n, p) for n in range(17, 31) for p in (2, 3, 5, 7, 11, 13)}
    for n in range(17, 31):
        values = [(beta, naive_two_row_and_hook_values(beta)) for beta in enumerate_partitions(n)]
        for p in (2, 3, 5, 7, 11, 13):
            oracle = [
                beta
                for beta, (two_row, hook) in values
                if not any(
                    two and two_row[k] or singular_hook and hook[k]
                    for k, two, singular_hook in tiers[n, p]
                )
            ]
            assert vanishing._undecided(n, p) == oracle, (n, p)


def test_search_without_singular_labels_lists_every_class():
    # for p > n every label is a p'-label, so nothing is cut: the search
    # lists each partition once, in enumeration order
    for n in range(31):
        p = next(q for q in range(n + 2, 2 * n + 4) if all(q % d for d in range(2, q)))
        assert vanishing._undecided(n, p) == list(enumerate_partitions(n)), n


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_tier_flags_match_the_column_scan(p):
    # every class through the unpruned nonvanishing_witness scan, against the
    # search's cuts, p-adic-type skip, scan and orthogonality, on fresh caches
    for n in range(25):
        pvanish.clear_caches()
        oracle = [beta for beta in enumerate_partitions(n) if nonvanishing_witness(beta, p) is None]
        pvanish.clear_caches()
        assert list(vanishing_classes(n, p)) == oracle, n


def test_survivor_scan_fills_no_label_table(monkeypatch):
    # the 31 survivors of (17, 3) that are not of p-adic type share one
    # prefix of singular labels, local to the call: the partitions are
    # enumerated once
    pvanish.clear_caches()
    calls = []
    real = vanishing.enumerate_partitions
    monkeypatch.setattr(vanishing, "enumerate_partitions", lambda n: calls.append(n) or real(n))
    classes = vanishing_classes(17, 3)
    monkeypatch.undo()
    assert calls == [17]
    assert list(classes) == [
        b for b in enumerate_partitions(17) if nonvanishing_witness(b, 3) is None
    ]


def test_orthogonality_decides_the_scans_that_reach_the_cap(monkeypatch):
    # a scan stops after as many singular labels as there are p'-labels,
    # and the centralizer order decides; each such verdict must be the
    # plain scan's
    pvanish.clear_caches()
    decided = []
    real = vanishing.centralizer_order
    monkeypatch.setattr(
        vanishing, "centralizer_order", lambda beta: decided.append(beta) or real(beta)
    )
    fired = set()
    for p in (2, 3):
        for n in range(25):
            before = len(decided)
            classes = vanishing_classes(n, p)
            for beta in decided[before:]:
                fired.add((n, p))
                assert (beta in classes) == (nonvanishing_witness(beta, p) is None), (n, p, beta)
    assert {n for n, p in fired if p == 2} == {10, 12, 14, 18, 20, 22}
    assert {n for n, p in fired if p == 3} == {12, 14, 15, 21, 23, 24}


def _no_evaluation(mask, cycles):
    raise AssertionError(f"evaluated {mask} on {cycles}")


def test_p_adic_type_classes_skip_the_scan(monkeypatch):
    # at (23, 5) the search leaves 15 classes, all of p-adic type, so every
    # class is decided without one character evaluation
    oracle = [beta for beta in enumerate_partitions(23) if nonvanishing_witness(beta, 5) is None]
    assert len(p_adic_type_classes(p_adic_context(23, 5))) == 15
    pvanish.clear_caches()
    monkeypatch.setattr(vanishing, "_char", cache(_no_evaluation))
    assert list(vanishing_classes(23, 5)) == oracle


def test_frontier_class_set_needs_no_enumeration(monkeypatch):
    # both survivors of (55, 5) have p-adic type: no partition of 55 is
    # listed and no character is evaluated
    pvanish.clear_caches()
    monkeypatch.setattr(vanishing, "_char", cache(_no_evaluation))
    monkeypatch.setattr(vanishing, "enumerate_partitions", _no_evaluation)
    assert vanishing_classes(55, 5) == ((50, 5), (25, 25, 5))


def test_tiers_decide_almost_every_class():
    # the two-row and hook cuts leave 3 of the 1,575 classes of S_24 to the
    # column scan at p = 2, so the scan's memo stays small; a cut that is
    # bypassed keeps the classes right but fills it with thousands of entries
    pvanish.clear_caches()
    vanishing_classes(24, 2)
    assert characters._char.cache_info().currsize < 100


def _assert_reported_witness(witness, beta, p):
    alpha, value = witness
    assert type(witness) is list and type(alpha) is list
    alpha = tuple(alpha)
    assert is_p_singular(alpha, p_adic_context(sum(beta), p))
    assert value != 0
    assert character_value(alpha, beta) == value
    assert (alpha, value) == _first_witness(beta, p)


def test_classifier_disagreement_reports_witness(monkeypatch):
    # a structural split claimed for the identity class, which brute force
    # finds nonvanishing, must be reported with a witness of that
    ctx = p_adic_context(8, 2)
    beta = (1,) * 8
    assert beta not in vanishing_classes(8, 2)
    real = vanishing.structural_classes
    monkeypatch.setattr(
        vanishing, "structural_classes", lambda c: real(c) + ((beta,) if c == ctx else ())
    )
    report = list_p_vanishing(ctx)
    assert report.audits == {"structural_agreement": False}
    (found,) = report.counterexamples
    assert found["kind"] == "classifier_disagreement"
    assert (found["beta"], found["bruteforce"], found["structural"]) == ([1] * 8, False, True)
    _assert_reported_witness(found["witness"], beta, 2)


def test_missed_p_adic_type_reports_witness(monkeypatch):
    ctx = p_adic_context(10, 5)
    beta = (4, 3, 2, 1)
    assert beta not in vanishing_classes(10, 5)
    real = vanishing.p_adic_type_classes
    monkeypatch.setattr(
        vanishing, "p_adic_type_classes", lambda c: real(c) + ((beta,) if c == ctx else ())
    )
    kinds = _by_kind(ctx)
    assert list(kinds) == ["p_adic_type_not_vanishing"]
    (found,) = kinds["p_adic_type_not_vanishing"]
    assert found["kind"] == "p_adic_type_not_vanishing"
    assert found["beta"] == list(beta)
    _assert_reported_witness(found["witness"], beta, 5)


# ---------------------------------------------------------------------------
# base tables
# ---------------------------------------------------------------------------


def test_base_tables_recompute_cleanly():
    t2 = base_vanishing_table(2)
    t3 = base_vanishing_table(3)
    assert sorted(t2) == list(range(8))
    assert sorted(t3) == list(range(9))
    assert sum(len(v) for v in t2.values()) == 11
    assert sum(len(v) for v in t3.values()) == 24
    for p, table in ((2, t2), (3, t3)):
        for n, betas in table.items():
            for beta in betas:
                assert nonvanishing_witness(beta, p) is None


def test_base_table_rejects_other_primes():
    with pytest.raises(ValueError):
        base_vanishing_table(5)


# ---------------------------------------------------------------------------
# structural classifier
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,max_n", [(2, 12), (3, 12)])
def test_structural_matches_bruteforce(p, max_n):
    for n in range(max_n + 1):
        ctx = p_adic_context(n, p)
        vanishing = vanishing_classes(n, p)
        for beta in enumerate_partitions(n):
            assert is_p_vanishing_structural(beta, ctx) == (beta in vanishing), (p, n, beta)


def test_structural_split_examples():
    # head (8) of 2-adic type, tail (2,1,1) in the base table at 4
    assert structural_split((8, 2, 1, 1), p_adic_context(12, 2)) == 1
    assert is_p_vanishing_structural((9, 2), p_adic_context(11, 3))
    assert not is_p_vanishing_structural((4, 2, 1, 1), p_adic_context(8, 2))
    # n = 18: head (16,2)... the head must absorb div(3)*8 = 16 exactly
    assert structural_split((16, 2), p_adic_context(18, 2)) == 1
    # empty head when n < p^r
    assert structural_split((4, 2, 1), p_adic_context(7, 2)) == 0


def test_structural_split_rejects():
    with pytest.raises(ValueError):
        structural_split((5, 5), p_adic_context(10, 5))
    with pytest.raises(ValueError):
        structural_split((2, 1), p_adic_context(4, 2))


@pytest.mark.parametrize("beta", [(4, 8), (1, 2, 1, 8), (8, 4, 0), (13, -1)])
def test_structural_split_rejects_unsorted_classes(beta):
    # read unsorted, (4, 8) has no prefix of size 8 and would pass as None
    with pytest.raises(ValueError):
        structural_split(beta, p_adic_context(12, 2))
    with pytest.raises(ValueError):
        suffix_reduction_check(beta, p_adic_context(12, 2), 1)


def test_structural_classifier_ignores_part_order():
    ctx = p_adic_context(7, 2)
    assert is_p_vanishing_structural((1, 2, 4), ctx) is True
    assert nonvanishing_witness((1, 2, 4), 2) is None
    assert is_p_vanishing_structural((4, 8), p_adic_context(12, 2)) is True
    assert structural_split((8, 4), p_adic_context(12, 2)) == 1
    with pytest.raises(ValueError):
        suffix_reduction_check((1, 2, 4), ctx, 1)


@pytest.mark.parametrize("p", [2, 3])
def test_structural_classes_match_the_split(p):
    # built from heads and tails, they come out as the filter of the enumeration
    for n in range(31):
        ctx = p_adic_context(n, p)
        expected = tuple(
            b for b in enumerate_partitions(n) if structural_split(b, ctx) is not None
        )
        assert structural_classes(ctx) == expected, n


def test_structural_classes_reject_other_primes():
    with pytest.raises(ValueError):
        structural_classes(p_adic_context(10, 5))


# ---------------------------------------------------------------------------
# structure audits
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", range(0, 13))
def test_structure_audit_has_no_violations(n, p):
    audit = audit_vanishing_structure(p_adic_context(n, p))
    assert audit["passed"], audit["violations"]
    assert audit["vanishing_count"] == len(vanishing_classes(n, p))
    if n:
        assert audit["checked"].get("large_part_sum_upper", 0) > 0


def test_structure_audit_gates_empty_remainder():
    # (2,1,1) at n=4, p=2: at t=2 the large-part sum falls short while
    # rem(2) = 0, so the small-part conclusion cannot hold; the audit must
    # record that informationally, not as a violation
    audit = audit_vanishing_structure(p_adic_context(4, 2))
    assert audit["passed"]
    infos = [v for v in audit["informational"] if v["predicate"] == "small_part_excess"]
    assert any(v["beta"] == [2, 1, 1] and v["t"] == 2 for v in infos)


def test_structure_audit_json_shape():
    payload = audit_vanishing_structure(p_adic_context(7, 2))
    assert list(payload) == [
        "n", "p", "vanishing_count", "checked", "violations", "informational", "passed"
    ]
    assert payload["passed"] is True
    assert payload["n"] == 7 and payload["p"] == 2
    json.dumps(payload)


def test_min_part_exceptions_present():
    # n=4, p=2, t=2: the vanishing class (2,1,1) is the listed exception
    assert (2, 1, 1) in vanishing_classes(4, 2)
    audit = audit_vanishing_structure(p_adic_context(4, 2))
    assert not [v for v in audit["violations"] if v["predicate"] == "min_part"]


# ---------------------------------------------------------------------------
# suffix reduction
# ---------------------------------------------------------------------------


def test_suffix_reduction_applicable_case():
    ctx = p_adic_context(7, 2)
    for m in range(0, 4):
        assert suffix_reduction_check((4, 2, 1), ctx, m) is True


def test_suffix_reduction_inapplicable_case():
    ctx = p_adic_context(7, 2)
    assert suffix_reduction_check((2, 2, 1, 1, 1), ctx, 1) is None


def test_suffix_reduction_rejects():
    ctx = p_adic_context(7, 2)
    with pytest.raises(ValueError):
        suffix_reduction_check((2, 1), ctx, 1)
    with pytest.raises(ValueError):
        suffix_reduction_check((4, 2, 1), ctx, -1)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", range(0, 21))
def test_suffix_reduction_audit_matches_per_level_checks(n, p):
    # the audit's one walk per class against one suffix_reduction_check per
    # (class, m), and the applicability read straight off the definition
    ctx = p_adic_context(n, p)
    checked = 0
    violations = []
    for beta in enumerate_partitions(n):
        for m in range(0, ctx.k + 2):
            outcome = suffix_reduction_check(beta, ctx, m)
            applicable = all(
                sum(c for c in beta if c % p**t == 0) == ctx.div(t) * p**t
                for t in range(m, ctx.k + 1)
            )
            assert (outcome is not None) == applicable
            if outcome is None:
                continue
            checked += 1
            if not outcome:
                violations.append({"predicate": "suffix_reduction", "beta": list(beta), "m": m})
    audit = audit_vanishing_structure(ctx)
    assert audit["checked"]["suffix_reduction"] == checked
    assert [v for v in audit["violations"] if v["predicate"] == "suffix_reduction"] == violations


def _flip_flag(monkeypatch, n, p, beta):
    # a scratch copy of one vanishing_classes tuple with beta added or removed
    real = vanishing.vanishing_classes
    classes = real(n, p)
    scratch = tuple(b for b in classes if b != beta) if beta in classes else classes + (beta,)
    monkeypatch.setattr(
        vanishing, "vanishing_classes", lambda m, q: scratch if (m, q) == (n, p) else real(m, q)
    )


def _suffix_levels_reported(audit, beta):
    return [
        v["m"]
        for v in audit["violations"]
        if v["predicate"] == "suffix_reduction" and v["beta"] == list(beta)
    ]


def test_suffix_reduction_audit_reports_a_mutated_class_flag(monkeypatch):
    # (4, 2, 1) applies at m = 0..3; its tails (), (1) and (2, 1) below
    # 1, 2 and 4 vanish, and at m = 3 the tail is the class itself
    ctx = p_adic_context(7, 2)
    assert not _suffix_levels_reported(audit_vanishing_structure(ctx), (4, 2, 1))
    _flip_flag(monkeypatch, 7, 2, (4, 2, 1))
    assert _suffix_levels_reported(audit_vanishing_structure(ctx), (4, 2, 1)) == [0, 1, 2]
    assert suffix_reduction_check((4, 2, 1), ctx, 1) is False
    assert suffix_reduction_check((4, 2, 1), ctx, 3) is True


def test_suffix_reduction_audit_reports_a_mutated_tail_flag(monkeypatch):
    # only the level that cuts (4, 2, 1) down to (2, 1) reads the flipped flag
    _flip_flag(monkeypatch, 3, 2, (2, 1))
    audit = audit_vanishing_structure(p_adic_context(7, 2))
    assert _suffix_levels_reported(audit, (4, 2, 1)) == [2]


def test_suffix_reduction_audit_lists_by_class_then_level(monkeypatch):
    # the audit builds level by level, but (4, 3), which applies at m = 2
    # only, precedes (4, 2, 1), which applies at m = 0, 1, 2, as it does
    # in a check of one class at a time
    _flip_flag(monkeypatch, 7, 2, (4, 3))
    _flip_flag(monkeypatch, 7, 2, (4, 2, 1))
    ctx = p_adic_context(7, 2)
    per_class = [
        {"predicate": "suffix_reduction", "beta": list(beta), "m": m}
        for beta in enumerate_partitions(7)
        for m in range(ctx.k + 2)
        if suffix_reduction_check(beta, ctx, m) is False
    ]
    assert [(v["beta"], v["m"]) for v in per_class] == [
        ([4, 3], 2),
        ([4, 2, 1], 0),
        ([4, 2, 1], 1),
        ([4, 2, 1], 2),
    ]
    audit = audit_vanishing_structure(ctx)
    assert [v for v in audit["violations"] if v["predicate"] == "suffix_reduction"] == per_class


def test_suffix_reduction_audit_lists_no_partition_of_n(monkeypatch):
    # p(100) = 190,569,292: the audit lists only partitions of the
    # remainders 100 mod 2^m, 0 at m <= 2, 4 at m = 3..5 and 36 at m = 6, each
    # under one head (100 is 1100100 in base 2), and counts level 7 as p(100)
    vanishing_classes(100, 2)
    real = vanishing.enumerate_partitions

    def below_100(n):
        assert n < 100, "a partition of 100 was listed"
        return real(n)

    monkeypatch.setattr(vanishing, "enumerate_partitions", below_100)
    audit = audit_vanishing_structure(p_adic_context(100, 2))
    assert audit["passed"]
    assert audit["checked"]["suffix_reduction"] == partition_count(100) + 3 * 1 + 3 * 5 + 17_977


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_list_p_vanishing_report():
    report = list_p_vanishing(p_adic_context(7, 2))
    assert [e.parts for e in report.vanishing] == [(4, 2, 1)]
    assert report.vanishing[0].p_adic_type is True
    assert report.vanishing[0].split_i == 0
    assert report.audits == {"structural_agreement": True}
    assert report.counterexamples == []
    payload = report.to_json_dict()
    assert payload["schema_version"] == 1
    json.dumps(payload)


def test_list_p_vanishing_audit_opt_in():
    report = list_p_vanishing(p_adic_context(6, 3), audit=True)
    assert report.audits["structure"]["passed"] is True
    assert {tuple(e.parts) for e in report.vanishing} == {
        (6,), (3, 3), (3, 2, 1), (3, 1, 1, 1),
    }


def test_list_p_vanishing_takes_no_limit():
    # the sweep-size guard is the CLI's --limit; the library sweeps any n
    assert list_p_vanishing(p_adic_context(31, 2)).audits == {"structural_agreement": True}


def test_list_p_vanishing_for_large_prime_has_no_split():
    report = list_p_vanishing(p_adic_context(10, 5))
    assert [e.parts for e in report.vanishing] == [(10,), (5, 5)]
    assert all(e.split_i is None for e in report.vanishing)
    assert report.audits == {}


# ---------------------------------------------------------------------------
# conjecture scans
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(0, 12))
def test_conjecture_scan_finds_nothing_at_p5(n):
    report = list_p_vanishing(p_adic_context(n, 5), conjecture=True)
    assert report.counterexamples == []
    assert "no counterexample found" in summary(5, f"n={n}", [report])


def test_conjecture_scan_rejects_small_primes():
    with pytest.raises(ValueError):
        list_p_vanishing(p_adic_context(6, 3), conjecture=True)


def test_conjecture_scan_takes_no_limit():
    assert list_p_vanishing(p_adic_context(31, 5), conjecture=True).counterexamples == []


def test_vacuous_regime_below_p():
    # n < p: no label is singular, so every class vanishes and every class
    # has p-adic type; the scan must stay silent
    ctx = p_adic_context(4, 7)
    assert all(nonvanishing_witness(beta, 7) is None for beta in enumerate_partitions(4))
    assert vanishing_classes(4, 7) == tuple(enumerate_partitions(4))
    assert list_p_vanishing(ctx, conjecture=True).counterexamples == []
    for beta in enumerate_partitions(4):
        assert is_p_adic_type(beta, ctx)


def test_conjecture_sweep_summary():
    reports = list(sweep(5, range(0, 11), conjecture=True))
    assert [c for r in reports for c in r.counterexamples] == []
    assert equivalence_consistent(reports)
    assert "no counterexample found" in summary(5, "n<=10", reports)


@pytest.mark.parametrize(
    "p,keywords",
    [(2, {}), (3, {"audit": True}), (5, {"conjecture": True}), (7, {"audit": True, "conjecture": True})],
)
def test_sweep_yields_the_per_n_reports(p, keywords):
    ns = range(0, 17)
    expected = [list_p_vanishing(p_adic_context(n, p), **keywords) for n in ns]
    assert list(sweep(p, ns, **keywords)) == expected


def test_sweep_holds_one_n_of_the_growing_tables():
    # _pprime_masks holds only the n just reported, and the end of the sweep
    # leaves both growing tables empty; the small result tables stay
    pvanish.clear_caches()
    for report in sweep(5, range(0, 30), conjecture=True):
        assert padic._pprime_masks.cache_info().currsize == 1, report.n
    assert characters._char.cache_info().currsize == 0
    assert padic._pprime_masks.cache_info().currsize == 0
    assert vanishing_classes.cache_info().currsize == 30
    list(sweep(3, range(0, 20), audit=True))
    assert characters._char.cache_info().currsize == 0
    assert padic._pprime_masks.cache_info().currsize == 0
    assert base_vanishing_table.cache_info().currsize == 1


def test_conjecture_kinds_follow_the_audit_in_order(monkeypatch):
    # (9, 1, 1, 1) is not of p-adic type for n = 12 = 22 in base 5, and its
    # 1-parts sum to 3 > a_0 = 2; (4, 3, 2, 2, 1) is given p-adic type and
    # does not vanish; the summary line counts the conjecture's kinds only
    ctx = p_adic_context(12, 5)
    real_classes, real_types = vanishing.vanishing_classes, vanishing.p_adic_type_classes
    monkeypatch.setattr(
        vanishing, "vanishing_classes", lambda n, p: real_classes(n, p) + ((9, 1, 1, 1),)
    )
    monkeypatch.setattr(
        vanishing, "p_adic_type_classes", lambda c: real_types(c) + ((4, 3, 2, 2, 1),)
    )
    audit = {
        "n": 12,
        "p": 5,
        "vanishing_count": 0,
        "checked": {},
        "violations": [{"predicate": "min_part", "beta": [12], "t": 1}],
        "informational": [],
        "passed": False,
    }
    monkeypatch.setattr(vanishing, "audit_vanishing_structure", lambda c: audit)
    report = list_p_vanishing(ctx, audit=True, conjecture=True)
    assert [c.get("kind", c.get("predicate")) for c in report.counterexamples] == [
        "min_part",
        "vanishing_without_p_adic_type",
        "p_adic_type_not_vanishing",
        "small_part_sum_exceeds_last_digit",
    ]
    assert report.counterexamples[3] == {
        "kind": "small_part_sum_exceeds_last_digit", "beta": [9, 1, 1, 1], "sum": 3, "bound": 2
    }
    assert summary(5, "n=12", [report]) == "p=5 n=12: 3 counterexample(s)"
    assert equivalence_consistent([report])
    type_only = report._replace(counterexamples=report.counterexamples[:2])
    assert not equivalence_consistent([type_only])


def test_structural_level_matches_base_table_span():
    for p, r in STRUCTURAL_LEVEL.items():
        assert sorted(base_vanishing_table(p)) == list(range(p**r))


# ---------------------------------------------------------------------------
# the verify suites that read sweep reports
# ---------------------------------------------------------------------------


def test_split_classifier_suite_lists_no_class(monkeypatch):
    # each class is counted, by p(n), not listed
    real = verify.enumerate_partitions

    def up_to_20(n):
        assert n <= 20, f"the partitions of {n} were listed"
        return real(n)

    monkeypatch.setattr(verify, "enumerate_partitions", up_to_20)
    result = split_classifier_suite([2, 3], 30)
    assert result.passed
    assert result.checks == 2 * sum(partition_count(n) for n in range(31))


def test_split_classifier_suite_reports_a_dropped_class(monkeypatch):
    beta = vanishing_classes(12, 2)[0]
    _flip_flag(monkeypatch, 12, 2, beta)
    result = split_classifier_suite([2], 12)
    assert result.violations == [{"p": 2, "n": 12, "beta": list(beta), "bruteforce": False}]
    assert result.checks == sum(partition_count(n) for n in range(13))


def test_structure_suite_releases_the_growing_tables():
    pvanish.clear_caches()
    assert structure_suite([3], 30).passed
    assert characters._char.cache_info().currsize == 0
    assert padic._pprime_masks.cache_info().currsize == 0


@pytest.mark.parametrize(
    "n,beta,predicate,t",
    [
        # 12 = 1100 in base 2: at t = 2 the parts >= 4 sum to 3 * 4, but 6 is no multiple of 4
        (12, (6, 6), "large_parts_multiples", 2),
        # at t = 4, 2^4 divides n = 16, and the smallest part 8 is below 2^4
        (16, (8, 8), "min_part", 4),
    ],
)
def test_structure_audit_flags_an_injected_class(monkeypatch, n, beta, predicate, t):
    assert beta not in vanishing_classes(n, 2)
    _flip_flag(monkeypatch, n, 2, beta)
    flagged = {"predicate": predicate, "beta": list(beta), "t": t}
    audit = audit_vanishing_structure(p_adic_context(n, 2))
    assert [v for v in audit["violations"] if v["predicate"] == predicate] == [flagged]
    assert not audit["passed"]
    assert {**flagged, "p": 2, "n": n} in structure_suite([2], n).violations


def test_conjecture_suite_flags_a_broken_equivalence(monkeypatch):
    # 10 is 20 in base 5, so a_0 = 0: an injected (6, 4), not of p-adic
    # type, breaks the type conjecture but not the small-part sum bound
    _flip_flag(monkeypatch, 10, 5, (6, 4))
    assert conjecture_suite([5], 12).violations == [
        {"kind": "vanishing_without_p_adic_type", "beta": [6, 4], "p": 5},
        {"kind": "conjecture_equivalence_broken", "p": 5},
    ]
