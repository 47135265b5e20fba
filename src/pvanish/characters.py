"""Exact character values for symmetric groups via rim-hook recursion.

The value of the irreducible character labelled alpha on the class of cycle
type beta is computed by peeling one cycle length at a time: peel a part k,
sum (-1)^leg over all rim hooks of length k, recurse on what is left; once
only 1-cycles remain, the value is the degree of the remaining label.  Labels
are beta-set bitmasks (partitions._beta_mask) inside the recursion, and the
memo key is (remaining label's mask, remaining cycle parts), so the cache is
shared across queries whenever class suffixes coincide; vanishing sweeps hit
the same suffixes over and over.  The vanishing column scan
(vanishing.nonvanishing_witness) calls the uncached body _char.__wrapped__
for each top-level (label, class) pair: a sweep evaluates that pair once, so
storing it would only grow the table, while every deeper pair still goes
through the memo.  A sweep sends the scan only the few classes that the
closed-form tiers of vanishing.vanishing_flags leave, so the memo holds
about 1,300 entries after the largest class set of a p = 7 hunt at n = 27.

character_table builds one mask per row and evaluates each cell with _char
directly: its classes come from enumerate_partitions, so they are already
positive, sorted and of the right size.

multi_character_value extends the recursion to tuples of labels, where each
cycle part may be peeled from any component.  That quantity equals the
character induced from an outer tensor product over a Young subgroup, which
induced_character_values computes by a different route for cross-checking:
it evaluates each component's column of nonzero values once with _char and
walks the product of those columns, adding each combination of component
classes, with its multinomial weight, to the class they merge into.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import cache
from itertools import product
from math import factorial, prod
from typing import NamedTuple

from .partitions import (
    Partition,
    _beta_mask,
    _mask_partition,
    _rim_moves,
    enumerate_partitions,
    format_partition,
    hook_lengths,
    r_decompose,
)

TABLE_GUARD = 14


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


@cache
def _multi(masks: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    if not cycles:
        return 1
    k, rest = cycles[0], cycles[1:]
    total = 0
    for i, mask in enumerate(masks):
        head, tail = masks[:i], masks[i + 1 :]
        for leg, new in _rim_moves(mask, k):
            value = _multi(head + (new,) + tail, rest)
            total += -value if leg & 1 else value
    return total


def multi_character_value(labels: tuple[Partition, ...], beta: Partition) -> int:
    """Character of a label tuple: peel each cycle part from any component.

    Equals the character of S_m induced from the outer tensor product of the
    component characters over the matching Young subgroup.
    """
    if sum(sum(l) for l in labels) != sum(beta):
        raise ValueError(f"label tuple {labels} and class {beta} have different sizes")
    masks = tuple(_beta_mask(l) for l in labels)
    return _multi(masks, tuple(sorted(beta, reverse=True)))


def induced_character_values(labels: tuple[Partition, ...]) -> dict[Partition, int]:
    """The character induced from a label tuple, on every class it does not vanish on.

    Frobenius induction from the Young subgroup S_{|alpha_1|} x ... x
    S_{|alpha_s|}: the value on lam sums, over every choice of one class mu_i
    per component whose parts together make up lam, prod chi_i(mu_i) times
    prod_k m_k(lam)! / prod_i prod_k m_k(mu_i)!, the number of ways to hand
    the k-cycles of lam out to the components.  Each component's column,
    its nonzero values chi_i(mu_i) with mu_i over enumerate_partitions, is
    evaluated once with _char on the component's mask, and every combination
    of column entries adds one term to its merged class.  Nothing here goes
    through _multi, so this stays an independent check of it.
    """
    columns = [
        [
            (mu, chi, _multiplicity_factorials(mu))
            for mu in enumerate_partitions(sum(alpha))
            if (chi := _char(mask, mu))
        ]
        for alpha, mask in zip(labels, map(_beta_mask, labels))
    ]
    values: dict[Partition, int] = {}
    for combination in product(*columns):
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


def _multiplicity_factorials(beta: Partition) -> int:
    """prod_k m_k(beta)! for sorted beta: the j-th occurrence of a part multiplies by j."""
    out = run = 1
    for a, b in zip(beta, beta[1:]):
        run = run + 1 if a == b else 1
        out *= run
    return out


def induced_character_value(labels: tuple[Partition, ...], beta: Partition) -> int:
    """Same quantity as multi_character_value, by the induction formula.

    Looks beta up in induced_character_values(labels), which builds the
    whole induced column; a class missing from it has value 0.
    """
    if sum(sum(l) for l in labels) != sum(beta):
        raise ValueError(f"label tuple {labels} and class {beta} have different sizes")
    if any(c < 1 for c in beta):
        raise ValueError(f"cycle type parts must be positive: {beta}")
    return induced_character_values(labels).get(tuple(sorted(beta, reverse=True)), 0)


def factored_character_value(
    alpha: Partition, r: int, gamma: Partition, lam: Partition
) -> int:
    """r-sign times core value on lam times quotient value on gamma.

    Equals character_value(alpha, merged) where merged is the cycle type
    made of the parts of lam together with r times each part of gamma;
    gamma must be a partition of the r-weight of alpha.
    """
    dec = r_decompose(alpha, r)
    if sum(gamma) != dec.weight:
        raise ValueError(f"{gamma} is not a partition of the {r}-weight {dec.weight}")
    if sum(lam) != sum(alpha) - r * dec.weight:
        raise ValueError(f"{lam} does not have size {sum(alpha) - r * dec.weight}")
    return (
        dec.sign
        * character_value(dec.core, lam)
        * multi_character_value(dec.quotient, gamma)
    )


def merged_cycle_type(r: int, gamma: Partition, lam: Partition) -> Partition:
    """Cycle type with one r*g cycle per part g of gamma plus the parts of lam."""
    return tuple(sorted([r * g for g in gamma] + list(lam), reverse=True))


class CharacterTable(NamedTuple):
    """Full character table of S_n, rows and columns in enumeration order."""

    n: int
    labels: tuple[Partition, ...]
    values: tuple[tuple[int, ...], ...]

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema_version": 1,
                "n": self.n,
                "labels": [list(l) for l in self.labels],
                "values": [list(row) for row in self.values],
            }
        )

    def to_text(self) -> str:
        headers = [format_partition(b) for b in self.labels]
        rows = [format_partition(a) for a in self.labels]
        cells = [[str(v) for v in row] for row in self.values]
        widths = [
            max(len(headers[j]), max(len(cells[i][j]) for i in range(len(rows))))
            for j in range(len(headers))
        ]
        label_w = max(len(r) for r in rows)
        lines = [" " * label_w + "  " + "  ".join(h.rjust(widths[j]) for j, h in enumerate(headers))]
        for i, r in enumerate(rows):
            lines.append(r.ljust(label_w) + "  " + "  ".join(cells[i][j].rjust(widths[j]) for j in range(len(headers))))
        return "\n".join(lines)


def character_table(n: int, *, limit: int = TABLE_GUARD) -> CharacterTable:
    """Character table of S_n; guarded because the size grows like p(n)^2."""
    if n > limit:
        raise ValueError(f"table for n={n} exceeds the guard ({limit}); raise limit= to override")
    labels = tuple(enumerate_partitions(n))
    values = tuple(
        tuple(_char(mask, b) for b in labels)
        for mask in map(_beta_mask.__wrapped__, labels)
    )
    return CharacterTable(n=n, labels=labels, values=values)


def clear_caches() -> None:
    """Drop the process-wide character memo tables."""
    _char.cache_clear()
    _multi.cache_clear()
