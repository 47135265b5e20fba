"""Partition combinatorics against naive oracles and structural invariants."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, strategies as st

from conftest import partitions_st
from naive import (
    naive_hook_lengths,
    naive_hook_weight,
    naive_removal_sign,
    naive_weight,
    naive_rim_removals,
    partition_count,
)
from pvanish import partitions
from pvanish.partitions import (
    MAX_PARTITION_SIZE,
    as_partition,
    conjugate,
    enumerate_partitions,
    format_partition,
    from_core_and_quotient,
    hook_lengths,
    parse_partition,
    r_decompose,
    r_weight,
    _beta_mask,
    _display,
    _mask_decompose,
    _mask_partition,
    _mask_weight,
    _rim_additions,
    _rim_moves,
)


# ---------------------------------------------------------------------------
# parsing and formatting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("4,2,1", (4, 2, 1)),
        ("(4,2,1)", (4, 2, 1)),
        ("(4,2,1^3)", (4, 2, 1, 1, 1)),
        ("(2^3)", (2, 2, 2)),
        ("1,4,2", (4, 2, 1)),
        ("0", ()),
        ("(0)", ()),
        ("", ()),
        (" ( 5 , 5 ) ", (5, 5)),
        ("(3^0)", ()),
        (f"(2,1^{MAX_PARTITION_SIZE - 2})", (2,) + (1,) * (MAX_PARTITION_SIZE - 2)),
    ],
)
def test_parse_partition(text, expected):
    assert parse_partition(text) == expected


@pytest.mark.parametrize(
    "text",
    [
        "-1", "(1,,2)", "(2^-1)", "x", "(1,0)",
        # zero parts or over the size cap: rejected before expansion
        "1^1000000000000", "(0^1000000000000)", f"(2,1^{MAX_PARTITION_SIZE - 1})",
    ],
)
def test_parse_partition_rejects(text):
    with pytest.raises(ValueError):
        parse_partition(text)


def test_format_partition():
    assert format_partition(()) == "(0)"
    assert format_partition((4, 2, 1)) == "(4,2,1)"


@given(partitions_st())
def test_parse_format_roundtrip(alpha):
    assert parse_partition(format_partition(alpha)) == alpha


def test_as_partition():
    assert as_partition([1, 3, 2]) == (3, 2, 1)
    assert as_partition([]) == ()
    with pytest.raises(ValueError):
        as_partition([2, 0])


# ---------------------------------------------------------------------------
# conjugation and hooks
# ---------------------------------------------------------------------------


@given(partitions_st())
def test_conjugate_involution(alpha):
    assert conjugate(conjugate(alpha)) == alpha
    assert sum(conjugate(alpha)) == sum(alpha)


@given(partitions_st(max_n=20))
def test_hook_lengths_match_cell_counting(alpha):
    assert hook_lengths(alpha) == naive_hook_lengths(alpha)


@given(partitions_st(max_n=20))
def test_hook_multiset_symmetric_under_conjugation(alpha):
    flat = sorted(h for row in hook_lengths(alpha) for h in row)
    flat_t = sorted(h for row in hook_lengths(conjugate(alpha)) for h in row)
    assert flat == flat_t


def test_hook_length_single_node():
    # each node of (4, 2, 1) by hand: arm + leg + 1
    assert hook_lengths((4, 2, 1)) == [[6, 4, 2, 1], [3, 1], [1]]
    assert hook_lengths(()) == []


# ---------------------------------------------------------------------------
# beta-sets
# ---------------------------------------------------------------------------


def _padded_beta_set(alpha, size):
    """{alpha_i + size - 1 - i : 0 <= i < size}, missing parts read as 0."""
    padded = alpha + (0,) * (size - len(alpha))
    return [padded[i] + size - 1 - i for i in range(size)]


@given(partitions_st(), st.integers(0, 5))
def test_beta_set_roundtrip(alpha, extra):
    # the mask displayed at any size holds the padded beta set, and decodes back
    size = len(alpha) + extra
    mask = _display(alpha, size)
    assert mask == sum(1 << x for x in _padded_beta_set(alpha, size))
    assert mask.bit_count() == size
    assert _mask_partition(mask) == alpha


# ---------------------------------------------------------------------------
# rim-hook removal against the row-sliding oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(0, 13))
def test_removable_hooks_match_rim_oracle(n):
    # one removable k-hook per node of hook length k in the grid that degree
    # reads, top row first, with that node's leg: hook - arm - 1
    for alpha in enumerate_partitions(n):
        grid = hook_lengths(alpha)
        for length in range(1, n + 1):
            got = [leg for leg, _ in _rim_moves(_beta_mask(alpha), length)]
            expected = [
                h - (alpha[i] - j - 1) - 1
                for i, row in enumerate(grid)
                for j, h in enumerate(row)
                if h == length
            ]
            assert got == expected, (alpha, length)
            assert len(got) == len(list(naive_rim_removals(alpha, length))), (alpha, length)


@given(partitions_st())
def test_beta_mask_is_the_beta_set(alpha):
    mask = _beta_mask(alpha)
    assert mask & 1 == 0
    # bead i sits at the first-column hook length of row i
    assert mask == sum(1 << row[0] for row in naive_hook_lengths(alpha))
    assert _mask_partition(mask) == alpha
    # padded displays carry beads of zero-length parts, which decode to nothing
    for extra in range(1, 4):
        assert _mask_partition(_display(alpha, len(alpha) + extra)) == alpha


@pytest.mark.parametrize("n", range(0, 13))
def test_rim_moves_keep_one_mask_per_partition(n):
    # memo tables key on masks, so a move must land on the result's own mask
    for alpha in enumerate_partitions(n):
        for length in range(1, n + 1):
            got = [
                (leg, new, _mask_partition(new))
                for leg, new in _rim_moves(_beta_mask(alpha), length)
            ]
            expected = [
                (leg, _beta_mask(res), res)
                for _, _, leg, res in naive_rim_removals(alpha, length)
            ]
            assert got == expected, (alpha, length)


@pytest.mark.parametrize("n", range(0, 13))
def test_rim_additions_invert_rim_moves(n):
    # adding a k-hook to mu gives the same (leg, mask) pairs as every removal
    # of a k-hook, from a partition of n + k, that lands on mu
    masks = list(map(_beta_mask, enumerate_partitions(n)))
    for k in range(1, n + 2):
        landing: dict[int, list[tuple[int, int]]] = {}
        for lam in enumerate_partitions(n + k):
            mask = _beta_mask(lam)
            for leg, new in _rim_moves(mask, k):
                landing.setdefault(new, []).append((leg, mask))
        assert set(landing) <= set(masks), k
        for mask in masks:
            assert sorted(_rim_additions(mask, k)) == sorted(landing.get(mask, [])), (mask, k)


def test_removable_hooks_empty_cases():
    # the empty partition has no hook, and no hook is longer than the largest
    assert list(_rim_moves(_beta_mask(()), 1)) == []
    assert list(_rim_moves(_beta_mask((3, 1)), 5)) == []


# ---------------------------------------------------------------------------
# core / quotient / weight / sign
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("r", [2, 3, 5])
@pytest.mark.parametrize("n", range(0, 13))
def test_single_hook_removal_drops_weight_by_one(n, r):
    for alpha in enumerate_partitions(n):
        dec = r_decompose(alpha, r)
        for _, _, _, result in naive_rim_removals(alpha, r):
            sub = r_decompose(result, r)
            assert sub.weight == dec.weight - 1
            assert sub.core == dec.core


@pytest.mark.parametrize("n", range(0, 15))
def test_r_weight_matches_decomposition(n):
    # r > n and r == 1 take the shortcuts
    for alpha in enumerate_partitions(n):
        for r in range(1, n + 3):
            assert r_weight(alpha, r) == r_decompose(alpha, r).weight


def test_r_weight_rejects_bad_modulus():
    with pytest.raises(ValueError):
        r_weight((2, 1), 0)


@pytest.mark.parametrize("n", range(0, 19))
def test_weight_popcount_matches_naive_oracles(n):
    # the runner formula and the count of hook lengths divisible by q agree,
    # and r_weight and the mask popcount equal both; q > n and q = 1 included
    for alpha in enumerate_partitions(n):
        mask = _beta_mask(alpha)
        for q in range(1, n + 3):
            expected = naive_weight(alpha, q)
            assert naive_hook_weight(alpha, q) == expected
            assert r_weight(alpha, q) == expected
            assert _mask_weight(mask, q) == expected


@given(partitions_st(), st.integers(1, 6))
def test_decomposition_invariants(alpha, r):
    dec = r_decompose(alpha, r)
    assert sum(alpha) == sum(dec.core) + r * dec.weight
    assert dec.weight == sum(sum(q) for q in dec.quotient)
    assert len(dec.quotient) == r
    assert dec.sign in (-1, 1)
    assert list(naive_rim_removals(dec.core, r)) == []


@given(partitions_st(), st.integers(2, 5))
def test_core_is_reached_by_hook_removals(alpha, r):
    dec = r_decompose(alpha, r)
    cur = alpha
    steps = 0
    while True:
        hooks = list(naive_rim_removals(cur, r))
        if not hooks:
            break
        cur = hooks[0][3]
        steps += 1
    assert cur == dec.core
    assert steps == dec.weight


@pytest.mark.parametrize("r", [2, 3, 4, 5])
@pytest.mark.parametrize("n", range(0, 13))
def test_removal_sign_is_order_independent(n, r):
    for alpha in enumerate_partitions(n):
        m = r * ((len(alpha) + r - 1) // r)
        beta = _padded_beta_set(alpha, m)
        sign = naive_removal_sign(beta, r)
        assert sign == naive_removal_sign(beta, r, lowest_first=True)
        assert r_decompose(alpha, r).sign == sign


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("n", range(0, 11))
def test_sign_matches_explicit_removal_legs(n, r):
    # peel r-hooks greedily through the row-sliding oracle and track leg parity
    for alpha in enumerate_partitions(n):
        legs = 0
        cur = alpha
        while True:
            hooks = list(naive_rim_removals(cur, r))
            if not hooks:
                break
            _, _, leg, cur = hooks[-1]
            legs += leg
        assert r_decompose(alpha, r).sign == (-1) ** legs


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("n", range(0, 11))
def test_compose_inverts_decompose_exhaustive(n, r):
    for alpha in enumerate_partitions(n):
        dec = r_decompose(alpha, r)
        assert from_core_and_quotient(dec.core, dec.quotient, r) == alpha


@given(partitions_st(), st.integers(2, 5))
def test_compose_inverts_decompose(alpha, r):
    dec = r_decompose(alpha, r)
    assert from_core_and_quotient(dec.core, dec.quotient, r) == alpha


@pytest.mark.parametrize("r", [2, 3])
def test_decompose_inverts_compose_small(r):
    cores = [a for n in range(0, 6) for a in enumerate_partitions(n)
             if r_decompose(a, r).weight == 0]
    components = [a for n in range(0, 4) for a in enumerate_partitions(n)]
    for core in cores:
        for q0 in components:
            for q1 in components:
                quotient = (q0, q1) if r == 2 else (q0, q1, ())
                alpha = from_core_and_quotient(core, quotient, r)
                dec = r_decompose(alpha, r)
                assert dec.core == core
                assert dec.quotient == quotient


def test_compose_rejects_bad_input():
    with pytest.raises(ValueError):
        from_core_and_quotient((2,), [(), ()], 2)  # (2) has a 2-hook
    with pytest.raises(ValueError):
        from_core_and_quotient((2, 1), [()], 2)  # wrong component count


# SHA-256 of the newline-joined repr(r_decompose(alpha, r)) over every partition
# with n <= 14, in enumerate_partitions order, and r = 1 .. n + 2: it pins the
# quotient and sign themselves, not only their invariants and the round trip
R_DECOMPOSE_DIGEST = "f06386bdf73ca04e5b97414590894a5866f3566ec073dfbbc20653856d4bd6ca"


def test_r_decompose_matches_pinned_digest():
    reprs = "\n".join(
        repr(r_decompose(alpha, r))
        for n in range(15)
        for alpha in enumerate_partitions(n)
        for r in range(1, n + 3)
    )
    assert hashlib.sha256(reprs.encode()).hexdigest() == R_DECOMPOSE_DIGEST


def test_mask_decompose_gives_the_masks_of_r_decompose():
    # each mask is the one _beta_mask of its partition, so the suites can key
    # memo tables with it; the digest above does not see the mask's padding
    for n in range(13):
        for alpha in enumerate_partitions(n):
            for r in range(1, 7):
                dec = r_decompose(alpha, r)
                assert _mask_decompose(_beta_mask(alpha), r) == (
                    _beta_mask(dec.core),
                    tuple(map(_beta_mask, dec.quotient)),
                    dec.weight,
                    dec.sign,
                ), (alpha, r)


def test_decompose_known_values():
    dec = r_decompose((2, 1), 2)
    assert (dec.core, dec.weight) == ((2, 1), 0)
    dec = r_decompose((4,), 2)
    assert (dec.core, dec.weight) == ((), 2)
    # one vertical domino: leg 1 on the single removal step
    assert r_decompose((1, 1), 2).sign == -1
    assert r_decompose((2,), 2).sign == 1


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", list(range(0, 21)) + [25, 30])
def test_enumeration_count_matches_pentagonal_recurrence(n):
    assert sum(1 for _ in enumerate_partitions(n)) == partition_count(n)


def test_partition_count_known_value():
    assert partition_count(30) == 5604


def test_partition_count_matches_pentagonal_recurrence():
    # the package adds part sizes one at a time; the oracle is Euler's recurrence
    counts = [partitions.partition_count(n) for n in range(101)]
    assert counts == list(map(partition_count, range(101)))
    assert partitions.partition_count(100) == 190_569_292
    with pytest.raises(ValueError):
        partitions.partition_count(-1)


@pytest.mark.parametrize("n", range(0, 15))
def test_enumeration_order_and_validity(n):
    seen = list(enumerate_partitions(n))
    assert len(set(seen)) == len(seen)
    for alpha in seen:
        assert sum(alpha) == n
        assert all(alpha[i] >= alpha[i + 1] for i in range(len(alpha) - 1))
        assert all(c >= 1 for c in alpha)
    assert seen == sorted(seen, reverse=True)
    if n:
        assert seen[0] == (n,)
        assert seen[-1] == (1,) * n


def test_enumeration_rejects_negative():
    with pytest.raises(ValueError):
        list(enumerate_partitions(-1))
