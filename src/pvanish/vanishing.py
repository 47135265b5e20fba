"""Classification of p-vanishing cycle types.

A cycle type beta of S_n is p-vanishing when every irreducible character of
degree divisible by p vanishes on it.  The brute-force oracle checks exactly
that, scanning every p-singular label in enumeration order with early exit
on the first witness; the p-singular filter, padic._mask_singular, reads
each label's weight digits off its beta mask by popcount, and the labels
are enumerated lazily, as far as the witness, and never kept.  For p = 2
and p = 3 there is also a structural classifier: split beta into a head of
parts >= p^r that must form a p-adic-type partition of div(r) * p^r and a
tail that must be a p-vanishing cycle type of the remainder rem(r) < p^r,
where r = 3 for p = 2 and r = 2 for p = 3.  The tail lands below p^r, so a
fixed table of small cases closes the recursion.  The two classifiers are
kept independent and compared over full sweeps.

Each (n, p) is classified once per process: vanishing_classes, the one memo
of a sweep, keeps only the vanishing classes.  It never lists the classes
one by one.  A search over the parts, smallest first, cuts every prefix
on which a p-singular two-row label (Young's rule) or hook label (Macdonald
1995, ch. I) is already nonzero: both families come from two integer
polynomials, packed into one int each, whose low coefficients are final
once the small parts are chosen.  Of the classes that survive, those of
p-adic type vanish by the weight bound (chi^alpha(beta) = 0 when, for some
q = p^t, the cycles of beta divisible by q sum to more than q times the
q-weight of alpha; James & Kerber 1981, section 2.7).  The rest are scanned
against the singular labels in enumeration order, as far as the number of
p'-labels, and column orthogonality decides a scan that gets that far.  The
oracle, nonvanishing_witness, scans every singular label and depends on
none of the cuts, the skip or the orthogonality.
The reports and the suffix-reduction audit build the classes they compare
directly, and rescan for a witness only a class that they report.

For p >= 5 the classification is conjectural: list_p_vanishing with
conjecture=True hunts for counterexamples, and a clean hunt only ever
reports "none found".  list_p_vanishing is the one report per n, and sweep
the one loop over n: after each n it drops the two tables that grow with n
(_char and padic._pprime_masks) and keeps the small result tables that
later n read.  clear_caches drops every table.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, Iterator, NamedTuple

from .characters import _char, _column, _multi, _nonzero_row, centralizer_order
from .padic import (
    PAdicContext,
    _mask_singular,
    _pprime_masks,
    _type_level,
    is_p_adic_type,
    p_adic_context,
    p_adic_type_classes,
)
from .partitions import (
    Partition,
    _beta_mask,
    _mask_partition,
    enumerate_partitions,
    partition_count,
)

# Known classification below the structural threshold (n < 8 for p=2,
# n < 9 for p=3).  base_vanishing_table() recomputes these by brute force on
# first use and refuses to serve them if anything disagrees.
_BASE_TABLE: dict[int, dict[int, frozenset[Partition]]] = {
    2: {
        0: frozenset({()}),
        1: frozenset({(1,)}),
        2: frozenset({(2,), (1, 1)}),
        3: frozenset({(2, 1)}),
        4: frozenset({(4,), (2, 1, 1)}),
        5: frozenset({(4, 1)}),
        6: frozenset({(4, 2), (4, 1, 1)}),
        7: frozenset({(4, 2, 1)}),
    },
    3: {
        0: frozenset({()}),
        1: frozenset({(1,)}),
        2: frozenset({(2,), (1, 1)}),
        3: frozenset({(3,), (2, 1), (1, 1, 1)}),
        4: frozenset({(3, 1)}),
        5: frozenset({(3, 2), (3, 1, 1), (4, 1), (2, 1, 1, 1)}),
        6: frozenset({(6,), (3, 3), (3, 2, 1), (3, 1, 1, 1)}),
        7: frozenset({(6, 1), (3, 3, 1)}),
        8: frozenset(
            {(6, 2), (6, 1, 1), (3, 3, 2), (3, 3, 1, 1), (4, 3, 1), (3, 2, 1, 1, 1)}
        ),
    },
}

STRUCTURAL_LEVEL = {2: 3, 3: 2}


def nonvanishing_witness(beta: Partition, p: int) -> tuple[Partition, int] | None:
    """A p-singular label with nonzero value on beta, or None if beta p-vanishes.

    Not memoized, and it keeps no table: sweeps read vanishing_classes, and
    only a reported class has its witness scanned for again.

    The witness is the first such label in enumeration order, found by a
    plain scan of every singular label, so it does not depend on the tiers
    or on the p-adic-type skip of vanishing_classes.  The partitions of n
    are enumerated lazily, only as far as the witness, and filtered by
    _mask_singular on their beta masks; only the witness's mask is turned
    back into a partition.  Each top-level (label,
    class) pair is used once, so it bypasses the memo; every deeper pair
    goes through _char and is shared with the other columns.

    The class is checked and sorted once per column, before any label is
    tried, so a bad class raises even when S_n has no p-singular label.
    """
    if any(c < 1 for c in beta):
        raise ValueError(f"cycle type parts must be positive: {beta}")
    cycles = tuple(sorted(beta, reverse=True))
    ctx = p_adic_context(sum(beta), p)
    uncached = _char.__wrapped__
    for mask in map(_beta_mask, enumerate_partitions(ctx.n)):
        if _mask_singular(mask, ctx) and (value := uncached(mask, cycles)):
            return (_mask_partition(mask), value)
    return None


def _undecided(n: int, p: int) -> list[Partition]:
    """The classes of S_n on which every p-singular two-row and hook label is 0.

    A depth-first search, on an explicit stack, over the multiplicities of
    the parts, smallest part first.  Each prefix carries two polynomials,
    packed into one int each in slots of S = n + 2 bits, coefficient k in
    slot k, and truncated after slot n // 2:
      c = prod (1 + x^a) over the parts a: c_k counts the k-sets that an
          element of the class fixes, and chi^(n-k,k) = c_k - c_(k-1);
      h = prod (1 - (-x)^a) = (1 + x) sum_k chi^(n-k,1^k) x^k (Macdonald
          1995, ch. I), so H_k = chi^(n-k,1^k) = h_k - H_(k-1).
    Truncating the int modulo 2^(S (n // 2 + 1)) truncates the polynomial
    modulo x^(n // 2 + 1).  0 <= c_k <= 2^n and |h_k| <= c_k, so with a bias
    of 2^(S - 1) added to every slot of h each slot reads back exactly.
    Once the multiplicities of the parts <= s are chosen, every later part
    is larger than s, so c_s, h_s and H_s are final, and the whole subtree
    is cut when (n - s, s) is p-singular with c_s != c_(s-1), or (n - s, 1^s)
    is with H_s != 0.  Only s <= n / 2 is checked: (n - k, 1^k) is conjugate
    to (k + 1, 1^(n-1-k)), with the same singularity and a value that
    differs only in sign.  Past n / 2 at most one part is left: the rest.
    """
    pprime = _pprime_masks(n, p)
    top = n // 2
    S = n + 2
    slot = (1 << S) - 1
    half = 1 << (S - 1)
    width = (1 << (S * (top + 1))) - 1
    bias = width // slot * half
    two = {k: _beta_mask((n - k, k)) not in pprime for k in range(1, top + 1)}
    hook = {k: _beta_mask((n - k,) + (1,) * k) not in pprime for k in range(1, top + 1)}
    survivors = []
    # (s, what is left of n, c, h, H_(s-1), the parts below s in increasing order)
    stack = [(1, n, 1, 1, 1, ())]
    while stack:
        s, left, c, h, H, parts = stack.pop()
        if s > top:
            survivors.append(((left,) if left else ()) + parts[::-1])
            continue
        shift = S * s
        for m in range(left // s + 1):
            if m:
                c = (c + (c << shift)) & width
                h = (h + (h << shift) if s & 1 else h - (h << shift)) & width
                parts += (s,)
            rest = left - m * s
            if 0 < rest <= s:
                continue  # the parts after s are larger than rest
            low = c >> (shift - S)
            H_s = ((h + bias) >> shift & slot) - half - H
            if not (two[s] and (low ^ (low >> S)) & slot or hook[s] and H_s):
                stack.append((s + 1, rest, c, h, H_s, parts))
    return sorted(survivors, reverse=True)


@cache
def vanishing_classes(n: int, p: int) -> tuple[Partition, ...]:
    """The p-vanishing cycle types of S_n, by brute force, in enumeration order.

    The one per-class memo of a sweep: each (n, p) is classified once per
    process, and only the vanishing classes are kept.  _undecided cuts
    every class on which a p-singular two-row or hook label is nonzero, and
    only its survivors are decided here.

    A survivor of p-adic type vanishes with no evaluation: such a class
    demands div(t) hooks of length q = p^t at every level t <= k, and a
    singular label's q-weight falls below div(t) at the level t <= k of its
    first digit mismatch, so every singular label is 0 on it (James & Kerber
    1981, 2.7: peel the cycles divisible by q first; each c-cycle lowers the
    q-weight by c/q).  Any other survivor is scanned, up to the first
    nonzero value, against the singular labels in enumeration order, kept as
    bare masks in a prefix that grows only as far as a scan reaches.  A scan
    stops after as many labels as there are p'-labels, and column
    orthogonality decides instead: sum chi(beta)^2 over all labels is the
    centralizer order, so the class vanishes exactly when its p'-labels
    alone make up that sum.  The column scans reuse each other's values
    through the _char memo.
    """
    ctx = p_adic_context(n, p)
    pprime = _pprime_masks(n, p)
    uncached = _char.__wrapped__
    masks: list[int] = []  # the singular labels that a scan has reached

    def singular() -> Iterator[int]:  # enumerates nothing until a scan needs a label
        yield from (m for m in map(_beta_mask, enumerate_partitions(n)) if m not in pprime)

    labels = singular()

    def vanishes(beta: Partition) -> bool:
        if is_p_adic_type(beta, ctx):
            return True
        for i in range(len(pprime)):
            if i == len(masks):
                mask = next(labels, None)
                if mask is None:
                    return True
                masks.append(mask)
            if uncached(masks[i], beta):
                return False
        return sum(uncached(mask, beta) ** 2 for mask in pprime) == centralizer_order(beta)

    return tuple(filter(vanishes, _undecided(n, p)))


@cache
def base_vanishing_table(p: int) -> dict[int, frozenset[Partition]]:
    """Vanishing sets below p^r, recomputed and checked against the fixed table."""
    if p not in _BASE_TABLE:
        raise ValueError(f"no structural classifier for p={p}")
    table = _BASE_TABLE[p]
    for n, expected in table.items():
        got = frozenset(vanishing_classes(n, p))
        if got != expected:
            raise RuntimeError(
                f"base table mismatch at p={p}, n={n}: "
                f"computed {sorted(got)} vs stored {sorted(expected)}"
            )
    return table


def _check_class(beta: Partition, ctx: PAdicContext) -> None:
    """Raise ValueError unless beta is a partition of ctx.n, parts weakly decreasing."""
    if sum(beta) != ctx.n:
        raise ValueError(f"{beta} is not a partition of {ctx.n}")
    if any(c < 1 for c in beta) or any(a < b for a, b in zip(beta, beta[1:])):
        raise ValueError(f"cycle type parts must be positive and weakly decreasing: {beta}")


def structural_split(beta: Partition, ctx: PAdicContext) -> int | None:
    """Index i splitting beta into p-adic head and small vanishing tail, or None.

    beta[:i] must be a p-adic-type partition of div(r) * p^r and beta[i:]
    a vanishing cycle type of rem(r) per the base table.  Such a head has
    every part divisible by p^r and such a tail every part below it, so in
    beta, which must be weakly decreasing, i is the number of parts >= p^r.
    """
    _check_class(beta, ctx)
    table = base_vanishing_table(ctx.p)
    r = STRUCTURAL_LEVEL[ctx.p]
    i = sum(1 for c in beta if c >= ctx.p**r)
    # a tail from the table sums to rem(r), so the head sums to div(r) * p^r
    head_ctx = p_adic_context(ctx.div(r) * ctx.p**r, ctx.p)
    if beta[i:] in table[ctx.rem(r)] and is_p_adic_type(beta[:i], head_ctx):
        return i
    return None


def is_p_vanishing_structural(beta: Partition, ctx: PAdicContext) -> bool:
    return structural_split(tuple(sorted(beta, reverse=True)), ctx) is not None


def structural_classes(ctx: PAdicContext) -> tuple[Partition, ...]:
    """The cycle types of S_n with a structural split, in enumeration order.

    A p-adic-type head of div(r) * p^r has every part divisible by p^r, and
    a base-table tail of rem(r) every part below it, so each head, tail pair
    in decreasing order, heads outermost, concatenates in decreasing order.
    """
    table = base_vanishing_table(ctx.p)
    r = STRUCTURAL_LEVEL[ctx.p]
    heads = p_adic_type_classes(p_adic_context(ctx.div(r) * ctx.p**r, ctx.p))
    tails = sorted(table[ctx.rem(r)], reverse=True)
    return tuple(head + tail for head in heads for tail in tails)


# ---------------------------------------------------------------------------
# structure audits: necessary conditions a vanishing cycle type must satisfy
# ---------------------------------------------------------------------------


def _lower_bound_covered(p: int, n: int, t: int) -> bool:
    # congruence cases under which the >= d_t p^t bound is asserted
    if p == 2:
        if n % 2 == 1 or n % 8 == 0:
            return True
        if n % 4 == 2:
            return t != 1
        if n % 8 == 4:
            return t not in (1, 2)
        return False
    if p == 3:
        if n % 9 in (0, 1, 2, 4, 7):
            return True
        return t != 1
    return False


def _upper_bound_covered(p: int, n: int, t: int) -> bool:
    # asserted everywhere except p=3, t=1, n = 2 mod 3
    return not (p == 3 and t == 1 and n % 3 == 2)


def _check_min_part(beta: Partition, p: int, t: int) -> bool:
    P = p**t
    tail = beta[-1]
    if P not in (2, 3, 4):
        return tail >= P
    if P in (2, 3):
        return tail >= P or tail == 1
    if tail >= 4:
        return True
    if beta == (2, 1, 1):
        return True
    return len(beta) >= 4 and beta[-3:] == (2, 1, 1) and beta[-4] >= 4


def suffix_reduction_check(beta: Partition, ctx: PAdicContext, m: int) -> bool | None:
    """Compare vanishing status of beta and of its parts below p^m.

    Applicable when, for every t with m <= t <= k, the parts divisible by
    p^t sum to div(t) * p^t; returns None otherwise.  When applicable the
    two statuses, read from vanishing_classes, must agree; when no part
    reaches p^m the tail is beta itself and shares its status.  beta must be
    weakly decreasing, the form in which vanishing_classes lists it.
    """
    _check_class(beta, ctx)
    if m < 0:
        raise ValueError(f"level must be >= 0, got {m}")
    if m < _type_level(beta, ctx):
        return None
    tail = tuple(c for c in beta if c < ctx.p**m)
    whole = beta in vanishing_classes(ctx.n, ctx.p)
    return (tail in vanishing_classes(sum(tail), ctx.p)) == whole


class StructureAudit:
    """Outcome of auditing the necessary conditions over one (n, p) sweep."""

    __slots__ = ("n", "p", "vanishing_count", "checked", "violations", "informational")

    def __init__(self, n: int, p: int, vanishing_count: int) -> None:
        self.n = n
        self.p = p
        self.vanishing_count = vanishing_count
        self.checked: dict[str, int] = {}
        self.violations: list[dict] = []
        self.informational: list[dict] = []

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "vanishing_count": self.vanishing_count,
            "checked": dict(self.checked),
            "violations": list(self.violations),
            "informational": list(self.informational),
            "passed": self.passed,
        }


def audit_vanishing_structure(ctx: PAdicContext) -> StructureAudit:
    """Audit every vanishing cycle type of S_n against the structure facts.

    Predicates (each per level t, gated by its hypotheses):
      large_part_sum_upper   sum of parts >= p^t is at most div(t) * p^t
      large_part_sum_lower   same sum is at least div(t) * p^t (congruence cases)
      large_parts_multiples  if that sum equals div(t) * p^t, those parts are
                             all divisible by p^t
      small_part_excess      if the sum falls short, parts below rem(t) sum
                             to more than rem(t)
      min_part               when p^t divides n, the smallest part is at
                             least p^t (small p^t have listed exceptions)
      suffix_reduction       dropping the parts >= p^m preserves the
                             vanishing status when digit sums match above m
                             (checked for every cycle type, not just
                             vanishing ones)
    Failures under a hypothesis the facts do not cover are recorded as
    informational, not as violations.

    Suffix reduction at level m <= k applies exactly to the classes p^m gamma
    + tau, built here: gamma of p-adic type for div(m), tau any partition of
    rem(m) < p^m.  At m = k + 1 every class is its own tail, so that level
    adds p(n) to the count and is never listed.  Violations come by class in
    enumeration order, then by m, as suffix_reduction_check finds them.
    """
    n, p, k = ctx.n, ctx.p, ctx.k
    vanishing = vanishing_classes(n, p)
    audit = StructureAudit(n=n, p=p, vanishing_count=len(vanishing))

    def tally(name: str) -> None:
        audit.checked[name] = audit.checked.get(name, 0) + 1

    def flag(where: list[dict], name: str, beta: Partition, **details) -> None:
        where.append({"predicate": name, "beta": list(beta), **details})

    for beta in vanishing:
        if not beta:
            continue
        for t in range(0, k + 2):
            P = p**t
            big = sum(c for c in beta if c >= P)
            target = ctx.div(t) * P

            tally("large_part_sum_upper")
            if big > target:
                dest = (
                    audit.violations
                    if _upper_bound_covered(p, n, t)
                    else audit.informational
                )
                flag(dest, "large_part_sum_upper", beta, t=t, sum=big, bound=target)

            tally("large_part_sum_lower")
            if big < target:
                dest = (
                    audit.violations
                    if _lower_bound_covered(p, n, t)
                    else audit.informational
                )
                flag(dest, "large_part_sum_lower", beta, t=t, sum=big, bound=target)

            tally("large_parts_multiples")
            if big == target and any(c % P for c in beta if c >= P):
                flag(audit.violations, "large_parts_multiples", beta, t=t)

            # the small-part lemma needs rem(t) >= 1 (its hook-family
            # ingredient has d_t, e_t != 0 as a hypothesis, and at e_t = 0
            # the conclusion is an empty sum); outcomes at rem(t) = 0 are
            # recorded informationally only
            tally("small_part_excess")
            if big < target:
                small = sum(c for c in beta if c < ctx.rem(t))
                if small <= ctx.rem(t):
                    dest = audit.violations if ctx.rem(t) >= 1 else audit.informational
                    flag(
                        dest,
                        "small_part_excess",
                        beta,
                        t=t,
                        sum=small,
                        bound=ctx.rem(t),
                    )

            if t >= 1 and n % P == 0 and n > 0:
                tally("min_part")
                if not _check_min_part(beta, p, t):
                    flag(audit.violations, "min_part", beta, t=t)

    applicable = partition_count(n)
    vanishing_set = set(vanishing)
    failed = []
    for m in range(k + 1):
        gammas = p_adic_type_classes(p_adic_context(ctx.div(m), p))
        rem = ctx.rem(m)
        tails = set(vanishing_classes(rem, p))
        applicable += len(gammas) * partition_count(rem)
        for gamma in gammas:
            head = tuple(p**m * c for c in gamma)
            for tau in enumerate_partitions(rem):
                if (head + tau in vanishing_set) != (tau in tails):
                    failed.append((head + tau, m))
    for beta, m in sorted(failed, key=lambda v: (v[0], -v[1]), reverse=True):
        flag(audit.violations, "suffix_reduction", beta, m=m)
    audit.checked["suffix_reduction"] = applicable

    return audit


# ---------------------------------------------------------------------------
# reports, one per n, and the sweep over n
# ---------------------------------------------------------------------------


class VanishEntry(NamedTuple):
    parts: Partition
    p_adic_type: bool
    split_i: int | None


class VanishReport(NamedTuple):
    n: int
    p: int
    vanishing: list[VanishEntry]
    audits: dict
    counterexamples: list[dict]

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "n": self.n,
            "p": self.p,
            "vanishing": [
                {
                    "parts": list(e.parts),
                    "p_adic_type": e.p_adic_type,
                    "split_i": e.split_i,
                }
                for e in self.vanishing
            ],
            "audits": self.audits,
            "counterexamples": self.counterexamples,
        }


def _witness_json(beta: Partition, p: int) -> list | None:
    """The witness of a reported class, [label, value], or None if the oracle finds none."""
    witness = nonvanishing_witness(beta, p)
    return [list(witness[0]), witness[1]] if witness else None


def list_p_vanishing(
    ctx: PAdicContext, *, audit: bool = False, conjecture: bool = False
) -> VanishReport:
    """All p-vanishing cycle types of S_n, annotated, in enumeration order.

    Each disagreement between the brute-force vanishing set and a predicted
    set lands in counterexamples.  For p in {2, 3} the prediction is the
    structural classes, and each class in one set but not the other is
    reported in enumeration order.  audit=True appends the structure
    audit's violations.  conjecture=True, for p >= 5 only, then appends the
    conjecture's counterexamples, kind by kind:
      vanishing_without_p_adic_type      a vanishing class not of p-adic type
                                         (would refute the classification)
      p_adic_type_not_vanishing          a p-adic-type class that does not
                                         vanish (would refute a proven fact,
                                         so it means a bug), with its witness
      small_part_sum_exceeds_last_digit  a vanishing class whose parts below
                                         the last digit a_0 sum to more than a_0
    """
    if conjecture and ctx.p < 5:
        raise ValueError(f"conjecture scans apply to p >= 5, got p={ctx.p}")
    vanishing = vanishing_classes(ctx.n, ctx.p)
    vanishing_set = set(vanishing)
    structural = ctx.p in STRUCTURAL_LEVEL
    audits: dict = {}
    counterexamples: list[dict] = []
    if structural:
        disagreements = vanishing_set.symmetric_difference(structural_classes(ctx))
        for beta in sorted(disagreements, reverse=True):  # enumeration order
            ok = beta in vanishing_set
            counterexamples.append(
                {
                    "kind": "classifier_disagreement",
                    "beta": list(beta),
                    "bruteforce": ok,
                    "structural": not ok,
                    "witness": _witness_json(beta, ctx.p),
                }
            )
        audits["structural_agreement"] = not counterexamples
    entries = [
        VanishEntry(
            parts=beta,
            p_adic_type=is_p_adic_type(beta, ctx),
            split_i=structural_split(beta, ctx) if structural else None,
        )
        for beta in vanishing
    ]
    if audit:
        result = audit_vanishing_structure(ctx)
        audits["structure"] = result.to_json_dict()
        counterexamples.extend(result.violations)
    if conjecture:
        counterexamples.extend(
            {"kind": "vanishing_without_p_adic_type", "beta": list(e.parts)}
            for e in entries
            if not e.p_adic_type
        )
        for beta in p_adic_type_classes(ctx):
            if beta not in vanishing_set:
                # reported, so its witness is scanned for again; the oracle
                # may find none if it disagrees with the sweep
                counterexamples.append(
                    {
                        "kind": "p_adic_type_not_vanishing",
                        "beta": list(beta),
                        "witness": _witness_json(beta, ctx.p),
                    }
                )
        a0 = ctx.digit(0)
        for beta in vanishing:
            small = sum(c for c in beta if c < a0)
            if small > a0:
                counterexamples.append(
                    {
                        "kind": "small_part_sum_exceeds_last_digit",
                        "beta": list(beta),
                        "sum": small,
                        "bound": a0,
                    }
                )
    return VanishReport(
        n=ctx.n, p=ctx.p, vanishing=entries, audits=audits, counterexamples=counterexamples
    )


def sweep(
    p: int, ns: Iterable[int], *, audit: bool = False, conjecture: bool = False
) -> Iterator[VanishReport]:
    """The report of each n in ns, in order: the one per-n loop of every range sweep.

    After each n it drops the two memo tables that grow with n, _char and
    _pprime_masks, so a sweep holds one n's worth of them at a time.  The
    small result tables that later n read (vanishing_classes,
    base_vanishing_table, p_adic_context) stay, and so does every table a
    caller built that a sweep does not fill.
    """
    for n in ns:
        yield list_p_vanishing(p_adic_context(n, p), audit=audit, conjecture=conjecture)
        _char.cache_clear()
        _pprime_masks.cache_clear()


def _conjecture_kinds(reports: Iterable[VanishReport]) -> list[str]:
    # the conjecture's counterexamples are the only ones of p >= 5 with a kind;
    # the audit's violations carry a predicate instead
    return [c["kind"] for r in reports if r.p >= 5 for c in r.counterexamples if "kind" in c]


def summary(p: int, where: str, reports: Iterable[VanishReport]) -> str:
    """One line counting the conjecture's counterexamples in reports, at where ("n=7")."""
    found = len(_conjecture_kinds(reports))
    if not found:
        return f"p={p} {where}: no counterexample found"
    return f"p={p} {where}: {found} counterexample(s)"


def equivalence_consistent(reports: Iterable[VanishReport]) -> bool:
    """The two conjectures stand or fall together across the reports.

    If the small-part sum bound held everywhere scanned, the type
    classification must have held as well.
    """
    kinds = set(_conjecture_kinds(reports))
    return (
        "vanishing_without_p_adic_type" not in kinds
        or "small_part_sum_exceeds_last_digit" in kinds
    )


def clear_caches() -> None:
    """Drop every memo table in the package; this module holds the one list of them."""
    for table in (p_adic_context, _pprime_masks, _char, _multi, _column, _nonzero_row,
                  vanishing_classes, base_vanishing_table):
        table.cache_clear()
