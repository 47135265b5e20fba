"""Base-p digit data for n and the hook-theoretic singularity tests.

Throughout, n = sum a_i p^i with 0 <= a_i < p.  Splitting the digit string
at position t gives n = div(t) * p^t + rem(t).  The canonical partition of
p-adic type is the one with a_i parts equal to p^i for every i; a general
partition has p-adic type when, for every i, its parts of exact p-valuation
i sum to a_i p^i.

One loop per digit test: _mask_singular for p-singularity, _type_level for p-adic
type and the suffix-reduction levels, and _pprime_masks, the p'-labels by hook addition.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from typing import NamedTuple

from . import characters
from .partitions import (
    Partition,
    _beta_mask,
    _mask_weight,
    _rim_additions,
    enumerate_partitions,
    hook_lengths,
    r_weight,
)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class PAdicContext(NamedTuple):
    """n together with its base-p digits (a_0, ..., a_k)."""

    p: int
    n: int
    digits: tuple[int, ...]

    @property
    def k(self) -> int:
        """Index of the leading digit."""
        return len(self.digits) - 1

    def digit(self, i: int) -> int:
        return self.digits[i] if 0 <= i <= self.k else 0

    def div(self, t: int) -> int:
        """The digits from position t up, i.e. n // p^t."""
        return self.n // self.p**t

    def rem(self, t: int) -> int:
        """The digits below position t, i.e. n % p^t."""
        return self.n % self.p**t


@cache
def p_adic_context(n: int, p: int) -> PAdicContext:
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    digits = [0]
    if n:
        digits = []
        m = n
        while m:
            digits.append(m % p)
            m //= p
    return PAdicContext(p=p, n=n, digits=tuple(digits))


def p_power_partition(ctx: PAdicContext) -> Partition:
    """The canonical partition of p-adic type: a_i parts equal to p^i."""
    return tuple(ctx.p**i for i in range(ctx.k, -1, -1) for _ in range(ctx.digit(i)))


def valuation(x: int, p: int) -> int:
    """Exponent of p in x; x must be positive."""
    if x <= 0:
        raise ValueError(f"valuation needs a positive argument, got {x}")
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


class PAdicTypeWitness(NamedTuple):
    """Parts grouped by exact p-valuation, each group divided by its p-power.

    groups[i] collects c / p^i over the parts c with valuation exactly i.
    The partition has p-adic type iff group i sums to digit a_i for all i.
    """

    groups: dict[int, tuple[int, ...]]
    group_sums: dict[int, int]
    failures: tuple[int, ...]


def p_adic_type_witness(alpha: Partition, ctx: PAdicContext) -> PAdicTypeWitness:
    if sum(alpha) != ctx.n:
        raise ValueError(f"{alpha} is not a partition of {ctx.n}")
    groups: dict[int, list[int]] = {}
    for c in alpha:
        groups.setdefault(valuation(c, ctx.p), []).append(c)
    levels = set(groups) | set(range(ctx.k + 1))
    sums = {i: sum(groups.get(i, ())) // ctx.p**i for i in levels}
    failures = tuple(sorted(i for i in levels if sums[i] != ctx.digit(i)))
    return PAdicTypeWitness(
        groups={i: tuple(sorted(g, reverse=True)) for i, g in groups.items()},
        group_sums=sums,
        failures=failures,
    )


def _type_level(beta: Partition, ctx: PAdicContext) -> int:
    """The least m with the parts divisible by p^t summing to div(t) p^t for m <= t <= k.

    The levels are walked from k down to the first that fails.  It is 0 exactly
    for p-adic type: the parts of valuation i sum to div(i) p^i - div(i+1) p^(i+1).
    """
    p = ctx.p
    m = ctx.k + 1
    while m:
        q = p ** (m - 1)
        if sum(c for c in beta if not c % q) != ctx.div(m - 1) * q:
            break
        m -= 1
    return m


def is_p_adic_type(alpha: Partition, ctx: PAdicContext) -> bool:
    """Whether the parts of exact p-valuation i sum to a_i p^i for every i.

    The level-0 case of _type_level; p_adic_type_witness gives the same
    answer with every level's groups.
    """
    if sum(alpha) != ctx.n:
        raise ValueError(f"{alpha} is not a partition of {ctx.n}")
    return not _type_level(alpha, ctx)


def p_adic_type_classes(ctx: PAdicContext) -> tuple[Partition, ...]:
    """Every partition of ctx.n of p-adic type, in enumerate_partitions order.

    Its parts of valuation i are p^i times a partition of a_i < p, so they lie
    in [p^i, p^(i+1)), and the product of the levels, top first, each level's
    partitions in decreasing order, is in decreasing order too.
    """
    levels = [
        [tuple(ctx.p**i * c for c in mu) for mu in enumerate_partitions(ctx.digit(i))]
        for i in range(ctx.k, -1, -1)
    ]
    return tuple(sum(parts, ()) for parts in product(*levels))


def weight_digit(alpha: Partition, p: int, i: int) -> int:
    """p^i-weight minus p times the p^(i+1)-weight.

    Non-negative for every partition; equal to digit a_i for every i
    exactly when the character indexed by alpha has degree prime to p.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if i < 0:
        raise ValueError(f"digit position must be >= 0, got {i}")
    return r_weight(alpha, p**i) - p * r_weight(alpha, p**(i + 1))


@cache
def _pprime_masks(n: int, p: int) -> frozenset[int]:
    """The beta masks of the p'-labels of n, the labels of degree prime to p.

    Macdonald's hook criterion (1971) run forward: from (), add a_0 hooks of
    length 1, then a_1 of length p, up to a_k of length p^k.  There are
    prod_i k(p^i, a_i), where k(q, a) counts q-tuples of partitions of total a.
    """
    masks = {0}
    for i, a in enumerate(p_adic_context(n, p).digits):
        for _ in range(a):
            masks = {new for mask in masks for _, new in _rim_additions(mask, p**i)}
    return frozenset(masks)


def degree_valuation(alpha: Partition, p: int) -> int:
    """p-adic valuation of the character degree, without forming the degree."""
    n = sum(alpha)
    v_fact = 0
    q = p
    while q <= n:
        v_fact += n // q
        q *= p
    return v_fact - sum(valuation(h, p) for row in hook_lengths(alpha) for h in row)


def _mask_singular(mask: int, ctx: PAdicContext) -> bool:
    """Whether the partition of ctx.n with this beta mask is p-singular.

    Its weight digits are read off the mask up to the first that differs from a_i.
    """
    p = ctx.p
    upper = ctx.n  # the 1-weight
    q = p
    for a in ctx.digits:
        lower = _mask_weight(mask, q)
        if upper - p * lower != a:
            return True
        upper = lower
        q *= p
    return False


SINGULARITY_METHODS = ("b_invariants", "hooks", "character", "degree")


def is_p_singular(alpha: Partition, ctx: PAdicContext, method: str = "b_invariants") -> bool:
    """Whether p divides the degree of the character indexed by alpha.

    Four equivalent tests are available:
      b_invariants  some weight digit differs from the matching digit of n,
                    read off the beta mask by the oracle's filter, _mask_singular
      hooks         the label is not a p'-label built by hook addition (_pprime_masks)
      character     the character vanishes on the canonical p-adic class
      degree        p divides the degree (via valuations, no big integers)
    """
    if sum(alpha) != ctx.n:
        raise ValueError(f"{alpha} is not a partition of {ctx.n}")
    if method == "b_invariants":
        return _mask_singular(_beta_mask(alpha), ctx)
    if method == "hooks":
        return _beta_mask(alpha) not in _pprime_masks(ctx.n, ctx.p)
    if method == "character":
        return characters.character_value(alpha, p_power_partition(ctx)) == 0
    if method == "degree":
        return degree_valuation(alpha, ctx.p) > 0
    raise ValueError(f"unknown method {method!r}, expected one of {SINGULARITY_METHODS}")
