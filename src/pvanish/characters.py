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
induced_character_value computes by a different route (distributing cycle
parts over the components with multinomial weights) for cross-checking.  It
hands out the largest cycle lengths first and tries only the splits that fit
what each component has left, so no split is built only to be thrown away.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cache
from math import comb, factorial, prod

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


def _bounded_splits(count: int, caps: tuple[int, ...]):
    """Every (x_0, ..., x_{s-1}) with sum count and 0 <= x_i <= caps[i], in lex order."""
    if len(caps) == 1:
        if count <= caps[0]:
            yield (count,)
        return
    rest = caps[1:]
    # the first bin takes at least what the other bins cannot hold
    for first in range(max(0, count - sum(rest)), min(count, caps[0]) + 1):
        for tail in _bounded_splits(count - first, rest):
            yield (first,) + tail


def induced_character_value(labels: tuple[Partition, ...], beta: Partition) -> int:
    """Same quantity as multi_character_value, by the induction formula.

    Sum over all ways of distributing the multiset of cycle parts among the
    components so sizes match, weighting each cycle length by the multinomial
    coefficient of its multiplicity split.  Cycle lengths are handed out
    largest first, and a component with r cells left gets at most r // k
    cycles of length k, so only splits that fit are tried.  Each component's
    parts then arrive in descending order, and every leaf evaluates the
    components with _char directly.
    """
    sizes = tuple(sum(l) for l in labels)
    if sum(sizes) != sum(beta):
        raise ValueError(f"label tuple {labels} and class {beta} have different sizes")
    if any(c < 1 for c in beta):
        raise ValueError(f"cycle type parts must be positive: {beta}")
    masks = tuple(_beta_mask(l) for l in labels)
    mult = sorted(Counter(beta).items(), reverse=True)

    total = 0

    def distribute(idx: int, remaining: tuple[int, ...], assigned: tuple, weight: int):
        nonlocal total
        if idx == len(mult):
            # each component holds at most its size and the sizes add up, so
            # every component is filled exactly
            value = weight
            for mask, parts in zip(masks, assigned):
                value *= _char(mask, parts)
                if value == 0:
                    return
            total += value
            return
        k, count = mult[idx]
        for split in _bounded_splits(count, tuple(r // k for r in remaining)):
            w = weight
            left = count
            for c in split:
                w *= comb(left, c)
                left -= c
            distribute(
                idx + 1,
                tuple(r - c * k for r, c in zip(remaining, split)),
                tuple(parts + (k,) * c for parts, c in zip(assigned, split)),
                w,
            )

    distribute(0, sizes, ((),) * len(labels), 1)
    return total


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


@dataclass(frozen=True)
class CharacterTable:
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
