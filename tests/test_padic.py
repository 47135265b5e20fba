"""Base-p digit data and the four equivalent singularity tests."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from conftest import partitions_st, primes_st
from naive import naive_can_strip, naive_hook_weight, naive_weight, partition_count
from pvanish import verify
from pvanish.characters import degree
from pvanish.padic import (
    SINGULARITY_METHODS,
    _mask_singular,
    _pprime_masks,
    is_p_adic_type,
    is_p_singular,
    p_adic_context,
    p_adic_type_classes,
    p_adic_type_witness,
    p_power_partition,
    valuation,
    weight_digit,
)
from pvanish.partitions import _beta_mask, enumerate_partitions, r_weight


# ---------------------------------------------------------------------------
# digit contexts
# ---------------------------------------------------------------------------


@given(st.integers(0, 10**6), primes_st)
def test_digits_match_base_conversion(n, p):
    ctx = p_adic_context(n, p)
    assert sum(d * p**i for i, d in enumerate(ctx.digits)) == n
    assert all(0 <= d < p for d in ctx.digits)
    if n:
        assert ctx.digits[-1] != 0
    else:
        assert ctx.digits == (0,)


@given(st.integers(0, 10**6), primes_st, st.integers(0, 25))
def test_div_rem_identities(n, p, t):
    ctx = p_adic_context(n, p)
    assert ctx.div(t) * p**t + ctx.rem(t) == n
    assert 0 <= ctx.rem(t) < p**t
    assert ctx.digit(t) == ctx.div(t) % p


def test_context_rejects():
    with pytest.raises(ValueError):
        p_adic_context(10, 4)
    with pytest.raises(ValueError):
        p_adic_context(10, 1)
    with pytest.raises(ValueError):
        p_adic_context(-1, 2)


def test_known_context():
    ctx = p_adic_context(20, 2)
    assert ctx.digits == (0, 0, 1, 0, 1)
    assert ctx.k == 4
    assert ctx.digit(2) == 1
    assert ctx.digit(9) == 0
    assert ctx.div(3) == 2
    assert ctx.rem(3) == 4


# ---------------------------------------------------------------------------
# the canonical partition and p-adic type
# ---------------------------------------------------------------------------


@given(st.integers(0, 2000), primes_st)
def test_p_power_partition_properties(n, p):
    ctx = p_adic_context(n, p)
    lam = p_power_partition(ctx)
    assert sum(lam) == n
    assert all(c == p ** valuation(c, p) for c in lam)
    assert is_p_adic_type(lam, ctx)


def test_p_power_partition_known():
    assert p_power_partition(p_adic_context(20, 2)) == (16, 4)
    assert p_power_partition(p_adic_context(8, 3)) == (3, 3, 1, 1)
    assert p_power_partition(p_adic_context(0, 5)) == ()


def test_valuation():
    assert valuation(12, 2) == 2
    assert valuation(12, 3) == 1
    assert valuation(7, 5) == 0
    with pytest.raises(ValueError):
        valuation(0, 2)


@given(partitions_st(max_n=20), primes_st)
def test_p_adic_type_witness_consistent(alpha, p):
    ctx = p_adic_context(sum(alpha), p)
    wit = p_adic_type_witness(alpha, ctx)
    assert is_p_adic_type(alpha, ctx) == (not wit.failures)
    for i, group in wit.groups.items():
        assert all(valuation(c, p) == i for c in group)
        assert wit.group_sums[i] == sum(group) // p**i
    assert sorted(c for g in wit.groups.values() for c in g) == sorted(alpha)


def test_p_adic_type_witness_refuses_a_partition_of_another_size():
    with pytest.raises(ValueError, match="not a partition of 4"):
        p_adic_type_witness((2, 1), p_adic_context(4, 2))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_p_adic_type_loop_matches_witness(p):
    for n in range(23):
        ctx = p_adic_context(n, p)
        for alpha in enumerate_partitions(n):
            assert is_p_adic_type(alpha, ctx) == (not p_adic_type_witness(alpha, ctx).failures)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_p_adic_type_classes_match_the_predicate(p):
    # built level by level, they come out as the filter of the enumeration
    for n in range(26):
        ctx = p_adic_context(n, p)
        expected = tuple(a for a in enumerate_partitions(n) if is_p_adic_type(a, ctx))
        assert p_adic_type_classes(ctx) == expected, n


def test_p_adic_type_examples():
    ctx = p_adic_context(8, 3)  # digits (2, 2)
    assert is_p_adic_type((6, 2), ctx)
    assert is_p_adic_type((3, 3, 1, 1), ctx)
    assert not is_p_adic_type((4, 3, 1), ctx)
    with pytest.raises(ValueError):
        is_p_adic_type((2, 1), ctx)


# ---------------------------------------------------------------------------
# weight digits
# ---------------------------------------------------------------------------


@given(partitions_st(max_n=25), primes_st)
def test_weight_digits_nonnegative_and_telescope(alpha, p):
    ctx = p_adic_context(sum(alpha), p)
    digits = [weight_digit(alpha, p, i) for i in range(ctx.k + 3)]
    assert all(b >= 0 for b in digits)
    assert sum(b * p**i for i, b in enumerate(digits)) == sum(alpha)


def _filter_prefix(alpha, ctx, weight):
    # the b_invariants digit loop, on the given weight function
    p = ctx.p
    weights = []
    for i, a in enumerate(ctx.digits):
        weights.append(weight(alpha, p ** (i + 1)))
        if weight(alpha, p**i) - p * weights[-1] != a:
            return tuple(weights)
    return None


@pytest.mark.parametrize("n", range(0, 19))
def test_singular_weights_match_naive_weights(n):
    for p in (2, 3, 5, 7, 11, 13, 17, 19):
        if p > n + 2:
            break
        ctx = p_adic_context(n, p)
        for alpha in enumerate_partitions(n):
            expected = _filter_prefix(alpha, ctx, naive_weight)
            assert _filter_prefix(alpha, ctx, naive_hook_weight) == expected
            assert _filter_prefix(alpha, ctx, r_weight) == expected
            assert _mask_singular(_beta_mask(alpha), ctx) == (expected is not None)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_singular_weights_are_the_filter_prefix(p):
    for n in range(15):
        ctx = p_adic_context(n, p)
        for alpha in enumerate_partitions(n):
            weights = _filter_prefix(alpha, ctx, naive_weight)
            assert _mask_singular(_beta_mask(alpha), ctx) == (weights is not None)
            assert (weights is not None) == is_p_singular(alpha, ctx, method="degree")
            if weights is None:
                continue
            # the p^i-weights for i = 1..j+1, where digit j is the first that differs
            assert weights == tuple(r_weight(alpha, p**i) for i in range(1, len(weights) + 1))
            j = len(weights) - 1
            assert [weight_digit(alpha, p, i) for i in range(j)] == list(ctx.digits[:j])
            assert weight_digit(alpha, p, j) != ctx.digit(j)
            # so the weights read div(1), ..., div(t - 1) and fall short at
            # level t <= k: the p-adic-type skip of vanishing_classes rests on it
            t = len(weights)
            assert list(weights[:-1]) == [ctx.div(i) for i in range(1, t)]
            assert weights[-1] < ctx.div(t)
            assert t <= ctx.k


def test_weight_digits_known_values():
    # label (3): weight digits (1, 1) match the digits of 3, so not singular
    assert [weight_digit((3,), 2, i) for i in range(2)] == [1, 1]
    assert not is_p_singular((3,), p_adic_context(3, 2))
    # label (2,1) is its own 2-core: weight digits (3, 0) differ, so singular
    assert [weight_digit((2, 1), 2, i) for i in range(2)] == [3, 0]
    assert is_p_singular((2, 1), p_adic_context(3, 2))


@given(partitions_st(max_n=20), primes_st)
def test_weight_digits_match_digits_iff_nonsingular(alpha, p):
    ctx = p_adic_context(sum(alpha), p)
    matches = all(
        weight_digit(alpha, p, i) == ctx.digit(i) for i in range(ctx.k + 1)
    )
    assert matches == (not is_p_singular(alpha, ctx, "degree"))


def test_weight_digit_rejects():
    with pytest.raises(ValueError):
        weight_digit((2, 1), 4, 0)
    with pytest.raises(ValueError):
        weight_digit((2, 1), 2, -1)


# ---------------------------------------------------------------------------
# the p'-labels by hook addition
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n", range(0, 15))
def test_blocked_levels_monotone_and_anchor(n, p):
    # the labels built by hook addition are exactly those from which the naive
    # search removes the digit hooks, the parts of the canonical partition,
    # largest first; the hooks test is blocked on every other label
    hooks = p_power_partition(p_adic_context(n, p))
    strippable = {_beta_mask(a) for a in enumerate_partitions(n) if naive_can_strip(a, hooks)}
    assert _pprime_masks(n, p) == strippable
    assert len(strippable) == _macdonald_count(n, p)


def _multipartition_count(q: int, a: int) -> int:
    """k(q, a): the number of q-tuples of partitions of total size a."""
    counts = [1] + [0] * a
    for _ in range(q):
        counts = [sum(counts[j] * partition_count(i - j) for j in range(i + 1)) for i in range(a + 1)]
    return counts[a]


def _macdonald_count(n: int, p: int) -> int:
    """prod_i k(p^i, a_i), the number of labels of n of degree prime to p."""
    count = 1
    for i, a in enumerate(p_adic_context(n, p).digits):
        count *= _multipartition_count(p**i, a)
    return count


@pytest.mark.parametrize(
    "n,p,size", [(24, 2, 128), (27, 7, 1_540), (50, 3, 8_748), (55, 5, 1_750)]
)
def test_pprime_masks_size_is_macdonald_product(n, p, size):
    assert len(_pprime_masks(n, p)) == _macdonald_count(n, p) == size


# ---------------------------------------------------------------------------
# the four singularity tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", range(0, 15))
def test_singularity_four_way_agreement_exhaustive(n, p):
    ctx = p_adic_context(n, p)
    for alpha in enumerate_partitions(n):
        answers = {m: is_p_singular(alpha, ctx, m) for m in SINGULARITY_METHODS}
        assert len(set(answers.values())) == 1, (alpha, answers)


@given(partitions_st(max_n=22), primes_st)
def test_singularity_four_way_agreement_random(alpha, p):
    ctx = p_adic_context(sum(alpha), p)
    answers = [is_p_singular(alpha, ctx, m) for m in SINGULARITY_METHODS]
    assert len(set(answers)) == 1


def test_equivalence_suite_flags_one_flipped_answer(monkeypatch):
    # (2, 1) has degree 2, so every test calls it 2-singular but the flipped one
    real = verify.is_p_singular

    def flipped(alpha, ctx, method):
        return real(alpha, ctx, method) ^ (alpha == (2, 1) and method == "degree")

    monkeypatch.setattr(verify, "is_p_singular", flipped)
    result = verify.equivalence_suite([2], 3)
    answers = {m: m != "degree" for m in SINGULARITY_METHODS}
    assert result["violations"] == [{"p": 2, "n": 3, "alpha": [2, 1], "answers": answers}]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", range(0, 13))
def test_degree_valuation_matches_actual_degree(n, p):
    for alpha in enumerate_partitions(n):
        d = degree(alpha)
        v = 0
        while d % p == 0:
            d //= p
            v += 1
        assert is_p_singular(alpha, p_adic_context(n, p), "degree") == (v > 0)


def test_singularity_rejects():
    ctx = p_adic_context(4, 2)
    with pytest.raises(ValueError):
        is_p_singular((2, 1), ctx)
    with pytest.raises(ValueError):
        is_p_singular((2, 2), ctx, "unknown")
    with pytest.raises(ValueError):
        is_p_singular((2, 1), ctx, "hooks")
