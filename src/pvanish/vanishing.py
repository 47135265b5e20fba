"""Classification of p-vanishing cycle types.

A cycle type beta of S_n is p-vanishing when every irreducible character of
degree divisible by p vanishes on it.  The brute-force oracle checks exactly
that, with early exit on the first witness.  It skips, without evaluating
them, the labels alpha that the weight bound rules out: chi^alpha(beta) = 0
when, for some q = p^t, the cycles of beta divisible by q sum to more than
q times the q-weight of alpha (James & Kerber 1981, section 2.7).  Only the
level where the p-singular filter finds a digit mismatch can rule a label out,
and its weight comes free from the filter, which reads every weight off the
label's beta mask by popcount and keeps that mask for the scan.  For p = 2
and p = 3 there is also a structural classifier: split beta into a head of
parts >= p^r that must form a p-adic-type partition of div(r) * p^r and a
tail that must be a p-vanishing cycle type of the remainder rem(r) < p^r,
where r = 3 for p = 2 and r = 2 for p = 3.  The tail lands below p^r, so a
fixed table of small cases closes the recursion.  The two classifiers are
kept independent and compared over full sweeps.

Each (n, p) is classified once per process: vanishing_flags is the one memo
of a sweep, and every report, audit and scan reads it.  It walks the
partitions of n once.  Read as labels, they fill the table of p-singular
labels that the oracle scans.  Read as classes, two closed-form tiers decide
almost all of them: a class is nonvanishing as soon as a p-singular two-row
label (Young's rule) or hook label (Macdonald 1995, ch. I) is nonzero on it,
and both families come from two integer polynomials per class, packed into
one int each and shared along the prefix that consecutive partitions have in
common.  Only the classes that neither tier decides go to the brute-force
oracle, nonvanishing_witness, whose witness does not depend on the tiers.
A nonvanishing witness is recomputed, by one column scan, only for a class
that is reported.

For p >= 5 the classification is conjectural; scan functions hunt for
counterexamples and only ever report "none found".
"""

from __future__ import annotations

from functools import cache
from itertools import compress
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple

from .characters import _char
from .padic import (
    PAdicContext,
    _mask_singular_weights,
    is_p_adic_type,
    p_adic_context,
)
from .partitions import Partition, _beta_mask, enumerate_partitions

DEFAULT_SWEEP_LIMIT = 30

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


class _SingularLabels:
    """The p-singular labels of S_n in enumeration order, with masks and weights.

    Filled by add, one partition at a time in enumeration order: labels[i]
    has beta mask masks[i].  Each offered label's weights are read off its
    mask, by the digit loop of padic.singular_weights; only a singular
    label's mask is kept.  They read w_{p^i} = div(i) up to the level t <= k
    where a weight digit first differs from a digit of n, and w_{p^t} < div(t)
    there.  A class demands at most div(i) hooks at level i, so only level t
    can prune, and the labels are grouped by the pair (t, w_{p^t}).
    """

    __slots__ = ("p", "labels", "masks", "_ctx", "_groups", "_selectors")

    def __init__(self, n: int, p: int) -> None:
        self.p = p
        self._ctx = p_adic_context(n, p)
        self.labels: list[Partition] = []
        self.masks: list[int] = []
        self._groups: dict[tuple[int, int], list[int]] = {}
        self._selectors: dict[tuple[int, ...], bytearray] = {}

    def add(self, alpha: Partition, mask: int) -> None:
        """Keep alpha, the next partition in enumeration order, if it is p-singular."""
        weights = _mask_singular_weights(mask, self._ctx)
        if weights is not None:
            self._groups.setdefault((len(weights), weights[-1]), []).append(len(self.labels))
            self.labels.append(alpha)
            self.masks.append(mask)

    def candidates(self, cycles: Partition) -> Iterable[int]:
        """Indices of the labels the bound leaves for this class, ascending.

        The class demands d_q = sum of c/q over its cycles c divisible by
        q = p^t.  A label with d_q > w_q for some q has value 0 on the class,
        so a group (t, w) is kept when the demand has no level t or w covers
        it.  The kept labels are marked in one byte selector per demand.
        """
        demand = []
        q = self.p
        divisible = [c for c in cycles if not c % q]
        while divisible:
            demand.append(sum(divisible) // q)
            q *= self.p
            divisible = [c for c in divisible if not c % q]
        if not demand:
            return range(len(self.labels))
        key = tuple(demand)
        selector = self._selectors.get(key)
        if selector is None:
            selector = self._selectors[key] = bytearray(len(self.labels))
            for (t, w), idx in self._groups.items():
                if t > len(key) or w >= key[t - 1]:
                    for i in idx:
                        selector[i] = 1
        return compress(range(len(self.labels)), selector)


# One singular-label table per (n, p), built at most once per process: by the
# walk of vanishing_flags, or by _singular_labels when it is asked first.
_LABEL_TABLES: dict[tuple[int, int], _SingularLabels] = {}


def _singular_labels(n: int, p: int) -> _SingularLabels:
    table = _LABEL_TABLES.get((n, p))
    if table is None:
        table = _SingularLabels(n, p)
        # computed here, not through the memo of _beta_mask, so a sweep does
        # not keep a second copy of every mask for the life of the process
        beta_mask = _beta_mask.__wrapped__
        for alpha in enumerate_partitions(n):
            table.add(alpha, beta_mask(alpha))
        _LABEL_TABLES[n, p] = table
    return table


def singular_partitions(n: int, p: int) -> tuple[Partition, ...]:
    """All labels of S_n whose character degree is divisible by p."""
    return tuple(_singular_labels(n, p).labels)


def nonvanishing_witness(beta: Partition, p: int) -> tuple[Partition, int] | None:
    """A p-singular label with nonzero value on beta, or None if beta p-vanishes.

    Not memoized: sweeps read vanishing_flags, and only a reported class has
    its witness scanned for again.

    The witness is the first such label in enumeration order.  Labels that
    the weight bound rules out are skipped without evaluation: peeling the
    cycles divisible by q = p^t first (the value does not depend on the
    order), each c-cycle removes a hook of length c, which lowers the
    q-weight by c/q, so chi^alpha(beta) = 0 whenever the sum of c/q over
    those cycles exceeds the q-weight of alpha (James & Kerber 1981, 2.7).
    A skipped label has value 0, so the witness is the same as in a full scan.

    The class is checked and sorted once per column, before any label is
    tried, so a bad class raises even when S_n has no p-singular label.
    """
    if any(c < 1 for c in beta):
        raise ValueError(f"cycle type parts must be positive: {beta}")
    cycles = tuple(sorted(beta, reverse=True))
    table = _singular_labels(sum(beta), p)
    labels, masks = table.labels, table.masks
    # The labels are partitions of sum(beta) by construction, so the size check
    # of character_value is a tautology here.  Each top-level (label, class)
    # pair is used once, so it bypasses the memo; every deeper pair goes
    # through _char and is shared with the other columns.
    uncached = _char.__wrapped__
    for i in table.candidates(cycles):
        value = uncached(masks[i], cycles)
        if value:
            return (labels[i], value)
    return None


def is_p_vanishing_bruteforce(beta: Partition, ctx: PAdicContext) -> bool:
    if sum(beta) != ctx.n:
        raise ValueError(f"{beta} is not a partition of {ctx.n}")
    return nonvanishing_witness(beta, ctx.p) is None


def _walk(n: int) -> Iterator[tuple[Partition, int, int, int]]:
    """(alpha, mask, c, h) for each partition alpha of n, in enumerate_partitions order.

    mask is _beta_mask(alpha).  c and h pack polynomials into one int each,
    in slots of S = n + 2 bits, coefficient k in slot k:
      c = prod (1 + x^a) over the parts a: c_k counts the k-sets that an
          element of cycle type alpha fixes;
      h = prod (1 - (-x)^a), which is (1 + x) sum_k chi^(n-k,1^k)(alpha) x^k
          (Macdonald 1995, ch. I).
    The products are exact integers, so the slots matter only when values are
    read: 0 <= c_k <= 2^len(alpha) <= 2^n, and a hook value is at most its
    degree C(n - 1, k) < 2^n in size, so each fits its slot with a bit to
    spare for a sign.  Consecutive partitions share a prefix, and the three
    values for each prefix depth are kept on a stack, so each step pays only
    for the parts after the prefix.  Bit a_i - i + n of the stacked beta bits
    (0-indexed i) is bit a_i + m - 1 - i of the mask, shifted up by
    n - m + 1 for m parts.
    """
    S = n + 2
    # (1 + x)^r, the factor of r parts equal to 1 in both products
    ones = [1]
    for _ in range(n):
        ones.append(ones[-1] + (ones[-1] << S))
    cs, hs, bs = [1] * (n + 1), [1] * (n + 1), [0] * (n + 1)
    part = [n] if n else []
    top = 0  # the stack holds the values of part[:top]
    while True:
        m = len(part)
        j = m
        while j and part[j - 1] == 1:
            j -= 1
        c, h, bits = cs[top], hs[top], bs[top]
        for i in range(top, j):
            a = part[i]
            c += c << (S * a)
            h = h + (h << (S * a)) if a & 1 else h - (h << (S * a))
            bits |= 1 << (a - i + n)
            cs[i + 1], hs[i + 1], bs[i + 1] = c, h, bits
        if j < m:
            # the next step lowers a part before the trailing 1s, so their
            # depths are never read back and need no stack entries
            c *= ones[m - j]
            h *= ones[m - j]
            bits |= ((1 << (m - j)) - 1) << (n + 2 - m)
        yield tuple(part), bits >> (n - m + 1), c, h
        if not j:
            return
        # the step of enumerate_partitions: lower the last part above 1 and
        # refill after it with parts no larger than it
        i = j - 1
        part[i] -= 1
        cap = part[i]
        full, rest = divmod(m - i, cap)
        del part[i + 1 :]
        part += [cap] * full
        if rest:
            part.append(rest)
        top = i


def _tier_masks(ctx: PAdicContext) -> tuple[int, int, int]:
    """Slot masks of the p-singular two-row and hook labels, and the hook bias.

    Slot k of the first mask is full when (n - k, k) is p-singular, and of
    the second when (n - k, 1^k) is.  The bias puts 2^(S - 1) in every hook
    slot, so adding it makes every signed slot value non-negative.
    """
    n = ctx.n
    S = n + 2
    full = (1 << S) - 1
    beta_mask = _beta_mask.__wrapped__
    two = hook = bias = 0
    for k in range(n // 2 + 1):
        label = tuple(x for x in (n - k, k) if x)
        if _mask_singular_weights(beta_mask(label), ctx) is not None:
            two |= full << (S * k)
    for k in range(n):
        if _mask_singular_weights(beta_mask((n - k,) + (1,) * k), ctx) is not None:
            hook |= full << (S * k)
        bias |= 1 << (S * k + S - 1)
    return two, hook, bias


@cache
def vanishing_flags(n: int, p: int) -> Mapping[Partition, bool]:
    """Brute-force vanishing flag for every cycle type of S_n, in enumeration order.

    The one per-class memo of a sweep: each (n, p) is classified once per
    process into a read-only mapping that every consumer shares.  One walk
    over the partitions of n does two jobs.  Read as labels, they fill the
    singular-label table of (n, p), unless it is already built.  Read as
    classes, each is marked nonvanishing as soon as a p-singular two-row or
    hook label is nonzero on it:
      two-row  chi^(n-k,k) = c_k - c_(k-1), nonzero where c ^ (c << S) is;
      hook     h / (1 + x), exact, holds chi^(n-k,1^k) in its slot k, and it
               is nonzero where its biased slots differ from the bias.
    Two-column labels add nothing: a conjugate label has the same
    singularity, and its value differs only in sign.  Only the classes left
    undecided, p-adic-type classes among them, go to nonvanishing_witness,
    after the walk; its column scans reuse each other's values through the
    _char memo.
    """
    ctx = p_adic_context(n, p)
    two, hook, bias = _tier_masks(ctx)
    S = n + 2
    divisor = (1 << S) + 1
    table = None if (n, p) in _LABEL_TABLES else _SingularLabels(n, p)
    flags: dict[Partition, bool] = {}  # True: undecided by the tiers
    for beta, mask, c, h in _walk(n):
        if table is not None:
            table.add(beta, mask)
        flags[beta] = not (
            (c ^ (c << S)) & two or ((h // divisor + bias) ^ bias) & hook
        )
    if table is not None:
        _LABEL_TABLES[n, p] = table
    for beta, undecided in flags.items():
        if undecided:
            flags[beta] = nonvanishing_witness(beta, p) is None
    return MappingProxyType(flags)


@cache
def base_vanishing_table(p: int) -> dict[int, frozenset[Partition]]:
    """Vanishing sets below p^r, recomputed and checked against the fixed table."""
    if p not in _BASE_TABLE:
        raise ValueError(f"no structural classifier for p={p}")
    table = _BASE_TABLE[p]
    for n, expected in table.items():
        got = frozenset(b for b, ok in vanishing_flags(n, p).items() if ok)
        if got != expected:
            raise RuntimeError(
                f"base table mismatch at p={p}, n={n}: "
                f"computed {sorted(got)} vs stored {sorted(expected)}"
            )
    return table


def structural_split(beta: Partition, ctx: PAdicContext) -> int | None:
    """Index i splitting beta into p-adic head and small vanishing tail, or None.

    beta[:i] must be a p-adic-type partition of div(r) * p^r and beta[i:]
    a vanishing cycle type of rem(r) per the base table.  Prefix sums are
    strictly increasing, so at most one index can match the head size.
    """
    if sum(beta) != ctx.n:
        raise ValueError(f"{beta} is not a partition of {ctx.n}")
    if ctx.p not in STRUCTURAL_LEVEL:
        raise ValueError(f"no structural classifier for p={ctx.p}")
    r = STRUCTURAL_LEVEL[ctx.p]
    table = base_vanishing_table(ctx.p)
    head_size = ctx.div(r) * ctx.p**r
    tail_size = ctx.rem(r)
    running = 0
    for i in range(len(beta) + 1):
        if running == head_size:
            head, tail = beta[:i], beta[i:]
            head_ctx = p_adic_context(head_size, ctx.p)
            if is_p_adic_type(head, head_ctx) and tail in table[tail_size]:
                return i
            return None
        if running > head_size:
            return None
        if i < len(beta):
            running += beta[i]
    return None


def is_p_vanishing_structural(beta: Partition, ctx: PAdicContext) -> bool:
    return structural_split(beta, ctx) is not None


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


def _lowest_suffix_level(beta: Partition, ctx: PAdicContext) -> int:
    """The least m at which suffix_reduction_check applies to beta.

    Walks the levels t = k, k - 1, ... down and stops at the first whose parts
    divisible by p^t do not sum to div(t) * p^t; every m above it applies.
    """
    p = ctx.p
    m = ctx.k + 1
    while m:
        q = p ** (m - 1)
        if sum(c for c in beta if not c % q) != ctx.div(m - 1) * q:
            break
        m -= 1
    return m


def _suffix_reduction_holds(beta: Partition, p: int, m: int, whole: bool) -> bool:
    """Whether beta's parts below p^m share beta's vanishing flag, whole."""
    q = p**m
    cut = sum(1 for c in beta if c >= q)
    if cut == 0:
        return True  # the tail is beta itself
    tail = beta[cut:]
    return vanishing_flags(sum(tail), p)[tail] == whole


def suffix_reduction_check(beta: Partition, ctx: PAdicContext, m: int) -> bool | None:
    """Compare vanishing status of beta and of its parts below p^m.

    Applicable when, for every t with m <= t <= k, the parts divisible by
    p^t sum to div(t) * p^t; returns None otherwise.  When applicable the
    two statuses, read from vanishing_flags, must agree; when no part reaches
    p^m the tail is beta itself and shares its flag.
    """
    if sum(beta) != ctx.n:
        raise ValueError(f"{beta} is not a partition of {ctx.n}")
    if m < 0:
        raise ValueError(f"level must be >= 0, got {m}")
    if m < _lowest_suffix_level(beta, ctx):
        return None
    return _suffix_reduction_holds(beta, ctx.p, m, vanishing_flags(ctx.n, ctx.p)[beta])


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
    """
    n, p, k = ctx.n, ctx.p, ctx.k
    audit = StructureAudit(n=n, p=p, vanishing_count=0)

    def tally(name: str) -> None:
        audit.checked[name] = audit.checked.get(name, 0) + 1

    def flag(where: list[dict], name: str, beta: Partition, **details) -> None:
        where.append({"predicate": name, "beta": list(beta), **details})

    flags = vanishing_flags(n, p)
    vanishing = [beta for beta, ok in flags.items() if ok]
    audit.vanishing_count = len(vanishing)
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

    # one walk over the levels per class gives every m the check applies at
    applicable = 0
    for beta, whole in flags.items():
        low = _lowest_suffix_level(beta, ctx)
        applicable += k + 2 - low
        for m in range(low, k + 2):
            if not _suffix_reduction_holds(beta, p, m, whole):
                flag(audit.violations, "suffix_reduction", beta, m=m)
    audit.checked["suffix_reduction"] = applicable

    return audit


# ---------------------------------------------------------------------------
# reports and conjecture scans
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


def _check_sweep_limit(n: int, limit: int | None) -> None:
    bound = DEFAULT_SWEEP_LIMIT if limit is None else limit
    if n > bound:
        raise ValueError(
            f"sweep at n={n} exceeds the limit ({bound}); pass limit= to opt in"
        )


def list_p_vanishing(
    ctx: PAdicContext,
    *,
    limit: int | None = None,
    audit: bool = False,
) -> VanishReport:
    """All p-vanishing cycle types of S_n, annotated, in enumeration order.

    For p in {2, 3} every flag is cross-checked against the structural
    classifier and a disagreement lands in counterexamples.  Sweeps above
    the configured limit must opt in explicitly.
    """
    _check_sweep_limit(ctx.n, limit)
    flags = vanishing_flags(ctx.n, ctx.p)
    structural = ctx.p in STRUCTURAL_LEVEL
    entries: list[VanishEntry] = []
    counterexamples: list[dict] = []
    agreement = True
    for beta, ok in flags.items():
        split = structural_split(beta, ctx) if structural else None
        if structural and ok != (split is not None):
            agreement = False
            witness = nonvanishing_witness(beta, ctx.p)
            counterexamples.append(
                {
                    "kind": "classifier_disagreement",
                    "beta": list(beta),
                    "bruteforce": ok,
                    "structural": split is not None,
                    "witness": [list(witness[0]), witness[1]] if witness else None,
                }
            )
        if ok:
            entries.append(
                VanishEntry(
                    parts=beta,
                    p_adic_type=is_p_adic_type(beta, ctx),
                    split_i=split,
                )
            )
    audits: dict = {}
    if structural:
        audits["structural_agreement"] = agreement
    if audit:
        result = audit_vanishing_structure(ctx)
        audits["structure"] = result.to_json_dict()
        counterexamples.extend(result.violations)
    return VanishReport(
        n=ctx.n, p=ctx.p, vanishing=entries, audits=audits, counterexamples=counterexamples
    )


class ConjectureScan(NamedTuple):
    """Counterexample hunt at a single n for p >= 5.

    type_mismatches: vanishing cycle types that do not have p-adic type
    (would refute the classification conjecture).  missed_types: p-adic-type
    cycle types that fail to vanish (would refute a proven fact, so finding
    one means a bug).  sum_bound_violations: vanishing cycle types whose
    parts below the last digit a_0 sum to more than a_0.
    """

    n: int
    p: int
    vanishing: list[Partition]
    type_mismatches: list[Partition]
    missed_types: list[dict]
    sum_bound_violations: list[dict]

    @property
    def counterexamples(self) -> list[dict]:
        out: list[dict] = []
        for beta in self.type_mismatches:
            out.append({"kind": "vanishing_without_p_adic_type", "beta": list(beta)})
        out.extend(self.missed_types)
        out.extend(self.sum_bound_violations)
        return out

    def summary(self) -> str:
        if not self.counterexamples:
            return f"p={self.p} n={self.n}: no counterexample found"
        return f"p={self.p} n={self.n}: {len(self.counterexamples)} counterexample(s)"


def check_conjectures(ctx: PAdicContext, *, limit: int | None = None) -> ConjectureScan:
    """Scan one symmetric group for conjecture counterexamples (p >= 5)."""
    if ctx.p < 5:
        raise ValueError(f"conjecture scans apply to p >= 5, got p={ctx.p}")
    _check_sweep_limit(ctx.n, limit)
    a0 = ctx.digit(0)
    scan = ConjectureScan(ctx.n, ctx.p, [], [], [], [])
    for beta, ok in vanishing_flags(ctx.n, ctx.p).items():
        typed = is_p_adic_type(beta, ctx)
        if ok:
            scan.vanishing.append(beta)
            if not typed:
                scan.type_mismatches.append(beta)
            small = sum(c for c in beta if c < a0)
            if small > a0:
                scan.sum_bound_violations.append(
                    {
                        "kind": "small_part_sum_exceeds_last_digit",
                        "beta": list(beta),
                        "sum": small,
                        "bound": a0,
                    }
                )
        elif typed:
            # reported, so its witness is scanned for again
            alpha, value = nonvanishing_witness(beta, ctx.p)
            scan.missed_types.append(
                {
                    "kind": "p_adic_type_not_vanishing",
                    "beta": list(beta),
                    "witness": [list(alpha), value],
                }
            )
    return scan


class ConjectureSweep(NamedTuple):
    p: int
    scans: list[ConjectureScan]

    @property
    def counterexamples(self) -> list[dict]:
        return [c for s in self.scans for c in s.counterexamples]

    @property
    def equivalence_consistent(self) -> bool:
        """The two conjectures stand or fall together across the sweep.

        If the small-part sum bound held everywhere scanned, the type
        classification must have held as well.
        """
        no_sum_violation = all(not s.sum_bound_violations for s in self.scans)
        no_type_mismatch = all(not s.type_mismatches for s in self.scans)
        return no_type_mismatch or not no_sum_violation

    def summary(self) -> str:
        total = len(self.counterexamples)
        ns = f"n<={max((s.n for s in self.scans), default=0)}"
        if total == 0:
            return f"p={self.p} {ns}: no counterexample found"
        return f"p={self.p} {ns}: {total} counterexample(s)"


def conjecture_sweep(
    p: int, ns: range | list[int], *, limit: int | None = None
) -> ConjectureSweep:
    scans = [check_conjectures(p_adic_context(n, p), limit=limit) for n in ns]
    return ConjectureSweep(p=p, scans=scans)


def clear_caches() -> None:
    """Drop the sweep-level memo tables."""
    _LABEL_TABLES.clear()
    vanishing_flags.cache_clear()
    base_vanishing_table.cache_clear()
