"""Exact character values for symmetric groups via rim-hook recursion.

The value of the irreducible character labelled alpha on the class of cycle
type beta is computed by peeling one cycle length at a time: peel a part k,
sum (-1)^leg over all rim hooks of length k, recurse on what is left; once
only 1-cycles remain, the value is the degree of the remaining label.  Labels
are beta-set bitmasks (partitions._beta_mask) inside the recursion, and the
memo key is (remaining label's mask, remaining cycle parts), so the cache is
shared across queries whenever class suffixes coincide; vanishing sweeps hit
the same suffixes over and over.  The vanishing column scans
(vanishing.vanishing_classes and vanishing.nonvanishing_witness) read the
singular labels as bare masks and call the uncached body _char.__wrapped__
for each top-level (label mask, class) pair: a sweep evaluates that pair
once, so storing it would only grow the table, while every deeper pair
still goes through the memo.  A sweep scans only the few classes that the
pruned search of vanishing.vanishing_classes leaves and that are not of
p-adic type, so the memo holds 1,268 entries after vanishing_classes(27, 7)
on fresh caches.  vanishing.sweep, the loop of every range sweep and hunt,
drops the memo after each n, so a p = 7 sweep over n <= 27 leaves it empty.

character_table builds the table a whole column at a time, by the same rule
run the other way (_column): the column of a class, {label mask: value} over
the labels it does not vanish on, comes from the column of the class minus
its largest cycle k by adding every addable k-hook to each of its labels
(partitions._rim_additions).  Every cell of a full table is evaluated, so
there is no early exit to lose, and the cells that are 0 (36% for n <= 14)
are never stored; columns are memoized by class, and the column of a class
is shared by every class that ends in it.  The direct side of
verify.factorization_suite reads the same columns.  A table past n =
TABLE_GUARD, the largest default bound of the verify suites that build
tables, is refused, and no caller can raise the guard.

multi_character_value extends the recursion to tuples of labels, where each
cycle part may be peeled from any component.  The recursion is symmetric in
the components, and an empty component has no rim hooks, so the memo key of
_multi is the sorted tuple of the nonzero component masks (_multi_key): label
tuples that differ only in order or in empty components share their entries.
That quantity equals the character induced from an outer tensor product over
a Young subgroup, which induced_character_values computes by a different route
for cross-checking: it reads each component's row of nonzero values, built
once per label from the columns of _column (_nonzero_row), and walks the
product of those rows, adding each combination of component classes, with
its multinomial weight, to the class they merge into.  The rows come from
rim-hook addition and _multi from rim-hook removal, so a fault in either
engine shows up as a disagreement.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import product
from math import factorial, prod
from typing import Iterable, NamedTuple

from .partitions import (
    Partition,
    _beta_mask,
    _mask_partition,
    _rim_additions,
    _rim_moves,
    enumerate_partitions,
    hook_lengths,
)

TABLE_GUARD = 16


@cache
def _char(mask: int, cycles: tuple[int, ...]) -> int:
    if not cycles:
        return 1
    k = cycles[0]
    if k == 1 == cycles[-1]:
        # cycles are sorted, so both ends being 1 leaves only fixed points,
        # on which the value is the degree; this also saves a frame per 1-cycle
        return degree(_mask_partition(mask))
    rest = cycles[1:]
    total = 0
    for leg, new in _rim_moves(mask, k):
        value = _char(new, rest)
        total += -value if leg & 1 else value
    return total


def character_value(alpha: Partition, beta: Partition) -> int:
    """Character labelled alpha evaluated on the class of cycle type beta.

    Cycle parts are peeled largest first; the value does not depend on the order.
    """
    if sum(alpha) != sum(beta):
        raise ValueError(f"label {alpha} and class {beta} have different sizes")
    if any(c < 1 for c in beta):
        raise ValueError(f"cycle type parts must be positive: {beta}")
    return _char(_beta_mask(alpha), tuple(sorted(beta, reverse=True)))


def degree(alpha: Partition) -> int:
    """Degree of the character labelled alpha (hook length formula)."""
    n = sum(alpha)
    return factorial(n) // prod(h for row in hook_lengths(alpha) for h in row)


def centralizer_order(beta: Partition) -> int:
    """Order of the centralizer of an element of cycle type beta."""
    mult = Counter(beta)
    return prod(k**m * factorial(m) for k, m in mult.items())


def _multi_key(masks: Iterable[int]) -> tuple[int, ...]:
    """The memo key of _multi for these component masks: the nonzero ones, sorted."""
    return tuple(sorted(filter(None, masks)))


@cache
def _multi(masks: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    if not cycles:
        return 1
    k, rest = cycles[0], cycles[1:]
    total = 0
    for i, mask in enumerate(masks):
        others = masks[:i] + masks[i + 1 :]
        for leg, new in _rim_moves(mask, k):
            value = _multi(_multi_key(others + (new,)), rest)
            total += -value if leg & 1 else value
    return total


def multi_character_value(labels: tuple[Partition, ...], beta: Partition) -> int:
    """Character of a label tuple: peel each cycle part from any component.

    Equals the character of S_m induced from the outer tensor product of the
    component characters over the matching Young subgroup.
    """
    if sum(sum(l) for l in labels) != sum(beta):
        raise ValueError(f"label tuple {labels} and class {beta} have different sizes")
    if any(c < 1 for c in beta):
        raise ValueError(f"cycle type parts must be positive: {beta}")
    return _multi(_multi_key(map(_beta_mask, labels)), tuple(sorted(beta, reverse=True)))


def induced_character_values(labels: tuple[Partition, ...]) -> dict[Partition, int]:
    """The character induced from a label tuple, on every class it does not vanish on.

    Frobenius induction from the Young subgroup S_{|alpha_1|} x ... x
    S_{|alpha_s|}: the value on lam sums, over every choice of one class mu_i
    per component whose parts together make up lam, prod chi_i(mu_i) times
    prod_k m_k(lam)! / prod_i prod_k m_k(mu_i)!, the number of ways to hand
    the k-cycles of lam out to the components.  Each component's row, its
    nonzero values chi_i(mu_i) with mu_i over enumerate_partitions, comes
    from _nonzero_row, and every combination of row entries adds one term
    to its merged class.  Nothing here goes through _multi or removes a rim
    hook, so this stays an independent check of it.
    """
    rows = [_nonzero_row(_beta_mask(alpha), sum(alpha)) for alpha in labels]
    values: dict[Partition, int] = {}
    for combination in product(*rows):
        parts: list[int] = []
        value = denominator = 1
        for mu, chi, mu_factorials in combination:
            parts += mu
            value *= chi
            denominator *= mu_factorials
        lam = tuple(sorted(parts, reverse=True))
        # the multinomials are integers, so the division is exact
        values[lam] = values.get(lam, 0) + _multiplicity_factorials(lam) // denominator * value
    return values


@cache
def _nonzero_row(mask: int, m: int) -> tuple[tuple[Partition, int, int], ...]:
    """(mu, chi(mu), prod_k m_k(mu)!) for each class mu of S_m, in order, with chi(mu) != 0.

    chi is labelled by this beta mask and read from the column of mu, built
    by hook addition; a label recurs across a suite's tuples.
    """
    return tuple(
        (mu, chi, _multiplicity_factorials(mu))
        for mu in enumerate_partitions(m)
        if (chi := _column(mu).get(mask))
    )


def _multiplicity_factorials(beta: Partition) -> int:
    """prod_k m_k(beta)! for sorted beta: the j-th occurrence of a part multiplies by j."""
    out = run = 1
    for a, b in zip(beta, beta[1:]):
        run = run + 1 if a == b else 1
        out *= run
    return out


def merged_cycle_type(r: int, gamma: Partition, lam: Partition) -> Partition:
    """Cycle type with one r*g cycle per part g of gamma plus the parts of lam."""
    return tuple(sorted([r * g for g in gamma] + list(lam), reverse=True))


class CharacterTable(NamedTuple):
    """Full character table of S_n, rows and columns in enumeration order."""

    n: int
    labels: tuple[Partition, ...]
    values: tuple[tuple[int, ...], ...]


@cache
def _column(cycles: tuple[int, ...]) -> dict[int, int]:
    """{label mask: value} of every label whose value on the class cycles is not 0.

    cycles is sorted in decreasing order.  Each label of the column of
    cycles[1:] grows by every addable cycles[0]-hook, with the sign of its
    leg, and the sums that cancel to 0 are dropped.
    """
    if not cycles:
        return {0: 1}
    k = cycles[0]
    column: dict[int, int] = {}
    for mask, value in _column(cycles[1:]).items():
        for leg, new in _rim_additions(mask, k):
            column[new] = column.get(new, 0) + (-value if leg & 1 else value)
    return {mask: value for mask, value in column.items() if value}


def character_table(n: int) -> CharacterTable:
    """Character table of S_n; refused past TABLE_GUARD, as the size grows like p(n)^2.

    The classes come from enumerate_partitions, so they are already sorted
    and of the right size; each cell is read from its class's _column.
    """
    if n > TABLE_GUARD:
        raise ValueError(f"table for n={n} exceeds the guard ({TABLE_GUARD})")
    labels = tuple(enumerate_partitions(n))
    columns = list(map(_column, labels))
    values = tuple(
        tuple(column.get(mask, 0) for column in columns)
        for mask in map(_beta_mask, labels)
    )
    return CharacterTable(n=n, labels=labels, values=values)
