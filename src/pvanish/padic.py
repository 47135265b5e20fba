"""Base-p digit data for n and the hook-theoretic singularity tests.

Throughout, n = sum a_i p^i with 0 <= a_i < p.  Splitting the digit string
at position t gives n = div(t) * p^t + rem(t).  The canonical partition of
p-adic type is the one with a_i parts equal to p^i for every i; a general
partition has p-adic type when, for every i, its parts of exact p-valuation
i sum to a_i p^i.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from . import characters
from .partitions import (
    Partition,
    _beta_mask,
    _mask_weight,
    can_remove_sequence,
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


def digit_hook_lengths(ctx: PAdicContext, min_level: int = 0) -> tuple[int, ...]:
    """Hook lengths (p^k repeated a_k times, ..., p^min_level repeated a_min_level times)."""
    out: list[int] = []
    for i in range(ctx.k, min_level - 1, -1):
        out.extend([ctx.p**i] * ctx.digit(i))
    return tuple(out)


def p_power_partition(ctx: PAdicContext) -> Partition:
    """The canonical partition of p-adic type: a_i parts equal to p^i."""
    return digit_hook_lengths(ctx, 0)


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


def is_p_adic_type(alpha: Partition, ctx: PAdicContext) -> bool:
    """Whether the parts of exact p-valuation i sum to a_i p^i for every i.

    A digit-sum loop that exits at the first level that fails; the parts left
    after the top digit sum to 0, so none has valuation above k.
    p_adic_type_witness gives the same answer with every level's groups.
    """
    if sum(alpha) != ctx.n:
        raise ValueError(f"{alpha} is not a partition of {ctx.n}")
    p = ctx.p
    q = 1
    rest = alpha  # the parts divisible by q = p^i
    for a in ctx.digits:
        up = q * p
        if sum(c for c in rest if c % up) != a * q:
            return False
        rest = [c for c in rest if not c % up]
        q = up
    return True


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


def is_blocked_at_level(alpha: Partition, ctx: PAdicContext, m: int) -> bool:
    """Whether the digit hooks from the top down to level m cannot all be removed.

    Blocked at level 0 is the same as p-singular; blocked above the leading
    digit is impossible (the sequence is empty).
    """
    if sum(alpha) != ctx.n:
        raise ValueError(f"{alpha} is not a partition of {ctx.n}")
    return not can_remove_sequence(alpha, digit_hook_lengths(ctx, m))


def degree_valuation(alpha: Partition, p: int) -> int:
    """p-adic valuation of the character degree, without forming the degree."""
    n = sum(alpha)
    v_fact = 0
    q = p
    while q <= n:
        v_fact += n // q
        q *= p
    return v_fact - sum(valuation(h, p) for row in hook_lengths(alpha) for h in row)


def _mask_singular_weights(mask: int, ctx: PAdicContext) -> tuple[int, ...] | None:
    """singular_weights of the partition of ctx.n with this beta mask."""
    p = ctx.p
    weights = []
    upper = ctx.n  # the 1-weight
    q = p
    for a in ctx.digits:
        lower = _mask_weight(mask, q)
        weights.append(lower)
        if upper - p * lower != a:
            return tuple(weights)
        upper = lower
        q *= p
    return None


def singular_weights(alpha: Partition, ctx: PAdicContext) -> tuple[int, ...] | None:
    """The p^i-weights the b_invariants test reads, or None if alpha is not p-singular.

    weight_digit(alpha, p, i) is compared with a_i for i = 0, 1, ... and the
    test stops at the first i that differs, having read the p-, p^2-, ...,
    p^(i+1)-weights; those are returned in that order.  alpha must be a
    partition of ctx.n.  No digit differs exactly when the degree is prime to
    p, and then the result is None.  The weights are read off one beta mask,
    built outside the memo of _beta_mask.
    """
    return _mask_singular_weights(_beta_mask.__wrapped__(alpha), ctx)


SINGULARITY_METHODS = ("b_invariants", "hooks", "character", "degree")


def is_p_singular(alpha: Partition, ctx: PAdicContext, method: str = "b_invariants") -> bool:
    """Whether p divides the degree of the character indexed by alpha.

    Four equivalent tests are available:
      b_invariants  some weight digit differs from the matching digit of n
      hooks         the digit hook sequence cannot be removed
      character     the character vanishes on the canonical p-adic class
      degree        p divides the degree (via valuations, no big integers)
    """
    if sum(alpha) != ctx.n:
        raise ValueError(f"{alpha} is not a partition of {ctx.n}")
    if method == "b_invariants":
        return singular_weights(alpha, ctx) is not None
    if method == "hooks":
        return is_blocked_at_level(alpha, ctx, 0)
    if method == "character":
        return characters.character_value(alpha, p_power_partition(ctx)) == 0
    if method == "degree":
        return degree_valuation(alpha, ctx.p) > 0
    raise ValueError(f"unknown method {method!r}, expected one of {SINGULARITY_METHODS}")
