"""Character values against textbook tables, classical formulas and identities."""

from __future__ import annotations

import hashlib
import sys
from itertools import product
from math import factorial

import pytest
from hypothesis import given, strategies as st

from conftest import partition_pairs_st, partitions_st
from naive import (
    S4_CLASSES,
    S4_TABLE,
    S5_CLASSES,
    S5_TABLE,
    naive_character_value,
    naive_induced_value,
)
import pvanish
from pvanish import characters, partitions, vanishing, verify
from pvanish.characters import (
    TABLE_GUARD,
    _multi,
    _multi_key,
    centralizer_order,
    character_table,
    character_value,
    degree,
    induced_character_values,
    merged_cycle_type,
    multi_character_value,
)
from pvanish.padic import is_p_singular, p_adic_context
from pvanish.partitions import (
    _beta_mask,
    conjugate,
    enumerate_partitions,
    r_decompose,
    r_weight,
)
from pvanish.vanishing import list_p_vanishing, nonvanishing_witness, sweep
from pvanish.verify import (
    conjugation_twist_suite,
    degree_column_suite,
    factorization_suite,
    multichar_suite,
    orthogonality_suite,
)


# ---------------------------------------------------------------------------
# textbook tables and classical formulas
# ---------------------------------------------------------------------------


def test_s4_table_reproduced():
    for alpha, row in S4_TABLE.items():
        for beta in S4_CLASSES:
            assert character_value(alpha, beta) == row[beta], (alpha, beta)


def test_s5_table_reproduced():
    for alpha, row in S5_TABLE.items():
        for beta in S5_CLASSES:
            assert character_value(alpha, beta) == row[beta], (alpha, beta)


@pytest.mark.parametrize("n", range(0, 11))
def test_trivial_sign_and_standard_characters(n):
    for beta in enumerate_partitions(n):
        assert character_value((n,) if n else (), beta) == 1
        assert character_value((1,) * n, beta) == (-1) ** (n - len(beta))
        if n >= 2:
            fixed = sum(1 for c in beta if c == 1)
            assert character_value((n - 1, 1), beta) == fixed - 1


@pytest.mark.parametrize("n", range(0, 11))
def test_values_match_naive_oracle(n):
    labels = list(enumerate_partitions(n))
    for alpha in labels:
        for beta in labels:
            expected = naive_character_value(alpha, beta)
            assert character_value(alpha, beta) == expected, (alpha, beta)
            smallest_first = characters._char(_beta_mask(alpha), tuple(sorted(beta)))
            assert smallest_first == expected, (alpha, beta)


@given(partition_pairs_st(max_n=16))
def test_values_match_naive_oracle_random(pair):
    alpha, beta = pair
    assert character_value(alpha, beta) == naive_character_value(alpha, beta)


def test_known_values():
    assert character_value((3, 3, 2), (4, 2, 1, 1)) == -2
    assert character_value((5,), (3, 2)) == 1
    assert character_value((1, 1, 1), (3,)) == 1
    assert degree((3, 3, 2)) == 42


@given(partition_pairs_st(max_n=18))
def test_peeling_order_is_irrelevant(pair):
    alpha, beta = pair
    assert character_value(alpha, beta) == characters._char(
        _beta_mask(alpha), tuple(sorted(beta))
    )


@pytest.mark.parametrize("n", range(0, 13))
def test_degree_equals_identity_column(n):
    # the naive oracle counts hook lengths cell by cell; character_value on
    # the identity class returns degree() itself, so it cannot serve here
    identity = (1,) * n
    for alpha in enumerate_partitions(n):
        assert degree(alpha) == naive_character_value(alpha, identity)


def test_degree_of_staircase_family():
    # deg(n-3,2,1) = n(n-2)(n-4)/3 for n >= 6
    for n in range(6, 17):
        assert degree((n - 3, 2, 1)) == n * (n - 2) * (n - 4) // 3


def test_value_rejects():
    with pytest.raises(ValueError):
        character_value((3, 1), (3,))
    with pytest.raises(ValueError):
        character_value((2,), (1, 0, 1))


@pytest.mark.parametrize(
    "fn,args",
    [
        (character_value, ((1, 2), (3,))),  # (2, 1) gives -1, not 0
        (r_weight, ((1, 2), 2)),  # (2, 1) has one 2-hook
        (is_p_singular, ((1, 3), p_adic_context(4, 2), "hooks")),  # (3, 1) has odd degree
        (character_value, ((3, 0), (3,))),  # would set a bead at bit 0
        (multi_character_value, (((1, 2),), (3,))),
        (character_value, ((3, 1, 2), (6,))),  # unsorted past the second part
        (character_value, ((2, 2, 0), (4,))),  # a zero part after equal parts
    ],
    ids=["char", "hooks", "strip", "zero-part", "multi", "unsorted-tail", "zero-after-equal"],
)
def test_non_partition_label_rejected(fn, args):
    with pytest.raises(ValueError, match="weakly decreasing"):
        fn(*args)


# ---------------------------------------------------------------------------
# orthogonality, twist, centralizers
# ---------------------------------------------------------------------------


def test_orthogonality_small():
    result = orthogonality_suite(8)
    assert result["passed"] and result["checks"] > 0


def test_degree_column_suite_small():
    result = degree_column_suite(10)
    assert result["passed"] and result["checks"] > 0


@pytest.fixture
def wrong_degree(monkeypatch):
    """Rebind degree, in characters and in verify, to degree + shift(alpha).

    The memo tables are cleared on both sides, so no value computed with the
    true degree hides the wrong one and none computed with it outlives the test.
    """

    def patch(shift):
        def wrong(alpha):
            return degree(alpha) + shift(alpha)

        monkeypatch.setattr(characters, "degree", wrong)
        monkeypatch.setattr(verify, "degree", wrong)

    pvanish.clear_caches()
    yield patch
    pvanish.clear_caches()


def test_degree_column_suite_flags_wrong_degree(wrong_degree):
    wrong_degree(lambda alpha: 7)
    result = degree_column_suite(8)
    assert result["checks"] == sum(len(list(enumerate_partitions(n))) for n in range(9))
    assert any(v["n"] >= 1 for v in result["violations"])


def test_degree_column_suite_flags_one_wrong_label(wrong_degree):
    wrong_degree(lambda alpha: alpha == (3, 2))
    result = degree_column_suite(8)
    assert result["violations"] == [{"n": 5, "alpha": [3, 2], "degree": 6, "branching": 5}]


def test_conjugation_twist_suite_small():
    result = conjugation_twist_suite(9)
    assert result["passed"] and result["checks"] > 0


def _flipped_table(n):
    """character_table, except that at n = 4 the value of (3,1) on the identity, 3, is -3."""
    table = character_table(n)
    if n != 4:
        return table
    values = [list(row) for row in table.values]
    values[table.labels.index((3, 1))][table.labels.index((1, 1, 1, 1))] *= -1
    return characters.CharacterTable(n, table.labels, tuple(map(tuple, values)))


def test_orthogonality_suite_flags_flipped_cell(monkeypatch):
    monkeypatch.setattr(verify, "character_table", _flipped_table)
    result = orthogonality_suite(5)
    assert result["checks"] == 2 * sum(len(list(enumerate_partitions(n))) ** 2 for n in range(6))
    # the identity class has size 1, so row (3,1) against row a moves by
    # -6 * deg(a), and column (1^4) against column b by -6 * chi^(3,1)(b);
    # the squared cell leaves both diagonals alone, and chi^(3,1)(3,1) = 0
    # leaves that column pair alone
    one = [1, 1, 1, 1]
    assert result["violations"] == [
        {"kind": "row", "n": 4, "a1": [4], "a2": [3, 1], "got": -6},
        {"kind": "row", "n": 4, "a1": [3, 1], "a2": [4], "got": -6},
        {"kind": "row", "n": 4, "a1": [3, 1], "a2": [2, 2], "got": -12},
        {"kind": "row", "n": 4, "a1": [3, 1], "a2": [2, 1, 1], "got": -18},
        {"kind": "row", "n": 4, "a1": [3, 1], "a2": one, "got": -6},
        {"kind": "row", "n": 4, "a1": [2, 2], "a2": [3, 1], "got": -12},
        {"kind": "row", "n": 4, "a1": [2, 1, 1], "a2": [3, 1], "got": -18},
        {"kind": "row", "n": 4, "a1": one, "a2": [3, 1], "got": -6},
        {"kind": "column", "n": 4, "b1": [4], "b2": one, "got": 6},
        {"kind": "column", "n": 4, "b1": [2, 2], "b2": one, "got": 6},
        {"kind": "column", "n": 4, "b1": [2, 1, 1], "b2": one, "got": -6},
        {"kind": "column", "n": 4, "b1": one, "b2": [4], "got": 6},
        {"kind": "column", "n": 4, "b1": one, "b2": [2, 2], "got": 6},
        {"kind": "column", "n": 4, "b1": one, "b2": [2, 1, 1], "got": -6},
    ]


_signed = st.integers(-(2**200), 2**200)


@st.composite
def _gram_cases(draw):
    """Signed matrices left, right of one shape (some rows all zero) and a diagonal."""
    rows, width = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    row = st.one_of(st.just([0] * width), st.lists(_signed, min_size=width, max_size=width))
    left = draw(st.lists(row, min_size=rows, max_size=rows))
    right = draw(st.lists(row, min_size=rows, max_size=rows))
    true = [sum(a * b for a, b in zip(left[i], right[i])) for i in range(rows)]
    # the true diagonal, or arbitrary values that mostly miss it
    diagonal = draw(st.one_of(st.just(true), st.lists(_signed, min_size=rows, max_size=rows)))
    return left, right, diagonal


@given(_gram_cases())
def test_packed_gram_rows_match_elementwise_sums(case):
    left, right, diagonal = case
    expected = [
        (i, j, got)
        for i in range(len(left))
        for j in range(len(right))
        if (got := sum(a * b for a, b in zip(left[i], right[j]))) != (diagonal[i] if i == j else 0)
    ]
    assert list(verify._gram_mismatches(left, right, diagonal)) == expected


@pytest.mark.parametrize("value", [0, 1, -1, 2**200, -(2**200)])
def test_packed_gram_one_by_one(value):
    assert list(verify._gram_mismatches([[value]], [[value]], [value * value])) == []
    assert list(verify._gram_mismatches([[value]], [[1]], [value + 1])) == [(0, 0, value)]


def test_conjugation_twist_suite_flags_flipped_cell(monkeypatch):
    monkeypatch.setattr(verify, "character_table", _flipped_table)
    result = conjugation_twist_suite(5)
    assert result["checks"] == sum(len(list(enumerate_partitions(n))) ** 2 for n in range(6))
    # the cell is read once from its own row and once from the conjugate's
    assert result["violations"] == [
        {"n": 4, "alpha": [3, 1], "beta": [1, 1, 1, 1]},
        {"n": 4, "alpha": [2, 1, 1], "beta": [1, 1, 1, 1]},
    ]


@given(partition_pairs_st(max_n=14))
def test_conjugation_twist_random(pair):
    alpha, beta = pair
    n = sum(alpha)
    assert character_value(conjugate(alpha), beta) == (-1) ** (
        n - len(beta)
    ) * character_value(alpha, beta)


@pytest.mark.parametrize("n", range(0, 11))
def test_class_sizes_sum_to_group_order(n):
    assert sum(
        factorial(n) // centralizer_order(b) for b in enumerate_partitions(n)
    ) == factorial(n)


def test_centralizer_known_values():
    assert centralizer_order((1, 1, 1, 1)) == 24
    assert centralizer_order((2, 2, 1)) == 8
    assert centralizer_order((5,)) == 5
    assert centralizer_order(()) == 1


# ---------------------------------------------------------------------------
# factorization through core and quotient
# ---------------------------------------------------------------------------


def test_factorization_suite_small():
    result = factorization_suite(9)
    assert result["passed"] and result["checks"] > 0


def _factored_value(alpha, r, gamma, lam):
    """r-sign times core value on lam times quotient value on gamma, by the public functions."""
    dec = r_decompose(alpha, r)
    return dec.sign * character_value(dec.core, lam) * multi_character_value(dec.quotient, gamma)


def test_factorization_example_by_hand():
    alpha = (3, 3, 2)
    dec = r_decompose(alpha, 2)
    for gamma in enumerate_partitions(dec.weight):
        for lam in enumerate_partitions(8 - 2 * dec.weight):
            merged = merged_cycle_type(2, gamma, lam)
            assert _factored_value(alpha, 2, gamma, lam) == character_value(alpha, merged)


def test_factorization_suite_flags_wrong_sign(monkeypatch):
    def flipped(mask, r):
        core, quotient, weight, sign = partitions._mask_decompose(mask, r)
        if (mask, r) != (_beta_mask((3, 1)), 2):
            return core, quotient, weight, sign
        return core, quotient, weight, -sign

    monkeypatch.setattr(verify, "_mask_decompose", flipped)
    result = factorization_suite(5)
    assert result["checks"] == sum(
        len(list(enumerate_partitions(w))) * len(list(enumerate_partitions(n - r * w)))
        for n in range(6)
        for alpha in enumerate_partitions(n)
        for r in (2, 3, 4, 5)
        for w in [r_decompose(alpha, r).weight]
    )
    # (3,1) has empty 2-core and 2-weight 2, and its value is -1 on (4) and on (2,2)
    assert result["violations"] == [
        {"n": 4, "alpha": [3, 1], "r": 2, "gamma": [2], "lam": [], "direct": -1, "split": 1},
        {"n": 4, "alpha": [3, 1], "r": 2, "gamma": [1, 1], "lam": [], "direct": -1, "split": 1},
    ]


@st.composite
def _factorization_cases(draw):
    """(alpha, r, gamma, lam) with gamma of the r-weight of alpha and lam of the rest."""
    alpha = draw(partitions_st(max_n=12))
    r = draw(st.integers(2, 5))
    weight = r_decompose(alpha, r).weight
    gamma = draw(st.sampled_from(list(enumerate_partitions(weight))))
    lam = draw(st.sampled_from(list(enumerate_partitions(sum(alpha) - r * weight))))
    return alpha, r, gamma, lam


@given(_factorization_cases())
def test_factored_value_is_the_value_on_the_merged_class(case):
    alpha, r, gamma, lam = case
    assert _factored_value(alpha, r, gamma, lam) == character_value(
        alpha, merged_cycle_type(r, gamma, lam)
    )


def test_merged_cycle_type():
    assert merged_cycle_type(2, (2, 1), (3, 1)) == (4, 3, 2, 1)
    assert merged_cycle_type(3, (), (1, 1)) == (1, 1)


# ---------------------------------------------------------------------------
# label tuples
# ---------------------------------------------------------------------------


def test_multichar_suite_small():
    result = multichar_suite(6)
    assert result["passed"] and result["checks"] > 0


def test_multichar_suite_flags_a_fault_in_hook_removal(monkeypatch):
    # every 2-hook removed with the wrong leg parity flips both peel orders
    # alike, so only the induced side, built by hook addition, can see it
    real = characters._rim_moves

    def flipped(mask, k):
        return ((leg ^ (k == 2), new) for leg, new in real(mask, k))

    pvanish.clear_caches()
    monkeypatch.setattr(characters, "_rim_moves", flipped)
    try:
        result = multichar_suite(6)
    finally:
        # the mutated values sit in the memo tables
        monkeypatch.undo()
        pvanish.clear_caches()
    assert (result["checks"], len(result["violations"])) == (4850, 1026)
    assert all("induced" in v and "smallest_first" not in v for v in result["violations"])


def test_multichar_suite_flags_a_fault_in_one_peel_order(monkeypatch):
    # a value one too large on every cycle list that is not decreasing
    # reaches only the smallest-first order, and of the classes of size <= 3
    # only (2, 1) has a reversal that is not decreasing: one violation for
    # each of the 3 + 10 + 22 label tuples of total 3 with 1, 2, 3 components
    real = verify._multi

    def skewed(masks, lam):
        return real(masks, lam) + (lam != tuple(sorted(lam, reverse=True)))

    monkeypatch.setattr(verify, "_multi", skewed)
    result = multichar_suite(3)
    assert len(result["violations"]) == 35
    for v in result["violations"]:
        assert (v["lam"], v["smallest_first"]) == ([2, 1], v["value"] + 1)
        assert "induced" not in v


@given(partition_pairs_st(max_n=12))
def test_single_component_tuple_matches_plain_value(pair):
    alpha, beta = pair
    assert multi_character_value((alpha,), beta) == character_value(alpha, beta)


@given(partition_pairs_st(max_n=10))
def test_empty_components_are_inert(pair):
    alpha, beta = pair
    assert multi_character_value(((), alpha, ()), beta) == character_value(alpha, beta)


def test_empty_tuple_on_empty_class():
    assert multi_character_value((), ()) == 1
    assert induced_character_values(()).get((), 0) == 1


def test_multi_value_rejects_size_mismatch():
    with pytest.raises(ValueError):
        multi_character_value(((2,), (1,)), (2,))


@pytest.mark.parametrize("components", [1, 2, 3])
def test_induced_column_matches_naive_oracle(components):
    for total in range(7):
        classes = list(enumerate_partitions(total))
        for sizes in product(range(total + 1), repeat=components):
            if sum(sizes) != total:
                continue
            for labels in product(*map(enumerate_partitions, sizes)):
                column = induced_character_values(labels)
                assert set(column) <= set(classes), labels
                for lam in classes:
                    expected = naive_induced_value(labels, lam)
                    assert column.get(lam, 0) == expected, (labels, lam)
                    assert multi_character_value(labels, lam) == expected, (labels, lam)


@pytest.mark.parametrize("fn", [multi_character_value])
@pytest.mark.parametrize(
    "labels,beta",
    [(((2,), (1,)), (3, 0)), (((1,),), (2, -1)), (((1, 1),), (2, 0))],
    ids=["zero", "negative", "zero-shift"],
)
def test_induced_value_rejects_non_positive_cycles(fn, labels, beta):
    # (2, -1) once summed to a class of S_1 with value 0, and (2, 0) reached a
    # negative shift inside the recursion
    with pytest.raises(ValueError, match="cycle type parts must be positive"):
        fn(labels, beta)


@st.composite
def _reordered_label_tuples(draw):
    """(labels, beta, reordered): 1-3 components of total n <= 8, a class of n,
    and the same components permuted with up to two empty ones inserted."""
    labels, room = [], 8
    for _ in range(draw(st.integers(1, 3))):
        labels.append(draw(partitions_st(max_n=room)))
        room -= sum(labels[-1])
    n = 8 - room
    beta = draw(partitions_st(max_n=n, min_n=n))
    reordered = draw(st.permutations(labels + [()] * draw(st.integers(0, 2))))
    return tuple(labels), beta, tuple(reordered)


@given(_reordered_label_tuples())
def test_multi_value_ignores_component_order_and_empty_components(case):
    labels, beta, reordered = case
    assert multi_character_value(reordered, beta) == naive_induced_value(labels, beta)


def test_multi_on_a_non_canonical_key_matches_the_canonical_key():
    labels = ((2, 1), (), (3,), (1,), (2, 1))
    masks = tuple(map(_beta_mask, labels))
    assert _multi_key(masks) != masks
    induced = induced_character_values(labels)
    pvanish.clear_caches()
    for beta in enumerate_partitions(10):
        value = _multi(masks, beta)
        assert value == _multi(_multi_key(masks), beta) == induced.get(beta, 0), beta


def test_induced_value_known():
    # two trivial components: value counts the splittings of the class
    induced = induced_character_values(((1,), (1,)))
    assert induced.get((1, 1), 0) == 2
    assert multi_character_value(((1,), (1,)), (1, 1)) == 2
    assert induced.get((2,), 0) == 0


# ---------------------------------------------------------------------------
# tables and caches
# ---------------------------------------------------------------------------


def test_character_table_matches_hardcoded_s5():
    table = character_table(5)
    assert table.labels == tuple(S5_CLASSES)
    for i, alpha in enumerate(table.labels):
        for j, beta in enumerate(table.labels):
            assert table.values[i][j] == S5_TABLE[alpha][beta]


@pytest.mark.parametrize("n", range(0, 13))
def test_character_table_matches_removal_recursion(n):
    table = character_table(n)
    for mask, row in zip(map(_beta_mask, table.labels), table.values):
        assert list(row) == [characters._char(mask, beta) for beta in table.labels]


def test_columns_hold_only_nonzero_values_of_their_labels():
    for n in range(13):
        masks = set(map(_beta_mask, enumerate_partitions(n)))
        for beta in enumerate_partitions(n):
            column = characters._column(beta)
            assert set(column) <= masks and 0 not in column.values(), beta


# SHA-256 of repr(character_table(n).values) concatenated over n = 0 .. 14,
# taken when every cell was evaluated by the removal recursion _char
CHARACTER_TABLE_DIGEST = "247b397b464c6f0b2360a603e39487a8e1f6cd2d4ba1284c7a13799c8d29d65c"


def test_character_tables_match_pinned_digest():
    reprs = "".join(repr(character_table(n).values) for n in range(15))
    assert hashlib.sha256(reprs.encode()).hexdigest() == CHARACTER_TABLE_DIGEST


def test_character_table_guard():
    with pytest.raises(ValueError):
        character_table(TABLE_GUARD + 1)


def _memo_tables() -> dict:
    """Every object with cache_info() defined in a pvanish module, by name."""
    return {
        f"{name.split('.', 1)[-1]}.{key}": value
        for name, mod in sorted(sys.modules.items())
        if name.split(".")[0] == "pvanish"
        for key, value in vars(mod).items()
        if hasattr(value, "cache_info") and getattr(value, "__module__", None) == name
    }


def test_clear_caches_recomputes_identically():
    pvanish.clear_caches()
    before = character_value((4, 3, 1), (3, 3, 2))
    multi_character_value(((2, 1), (1,)), (2, 1, 1))
    is_p_singular((3, 3, 2), p_adic_context(8, 2), method="hooks")
    list_p_vanishing(p_adic_context(8, 3), audit=True)
    nonvanishing_witness((3, 3, 2), 3)
    character_table(4)
    induced_character_values(((2, 1), (1,)))
    tables = _memo_tables()
    assert {"characters._char", "padic._pprime_masks"} <= set(tables)
    assert not hasattr(partitions._beta_mask, "cache_info")
    assert not hasattr(partitions.r_decompose, "cache_info")
    assert [name for name, t in tables.items() if t.cache_info().currsize == 0] == []
    pvanish.clear_caches()
    assert {name: t.cache_info().currsize for name, t in tables.items()} == dict.fromkeys(tables, 0)
    assert character_value((4, 3, 1), (3, 3, 2)) == before


def test_a_sweep_holds_one_n_and_leaves_every_table_empty():
    # vanishing holds the one list of memo tables; a sweep drops the two
    # tables that grow with n after each n, and leaves the caller's table
    # columns as it found them
    assert pvanish.clear_caches is vanishing.clear_caches
    assert not hasattr(characters, "clear_caches")
    pvanish.clear_caches()
    character_table(4)
    columns = characters._column.cache_info().currsize
    assert columns > 0
    list(sweep(5, range(30), conjecture=True))
    sizes = {name: t.cache_info().currsize for name, t in _memo_tables().items()}
    assert sizes["characters._char"] == sizes["padic._pprime_masks"] == 0
    assert sizes["characters._column"] == columns
