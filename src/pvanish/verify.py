"""Batch self-verification sweeps.

Each runner exhaustively checks one family of identities over a stated range
and returns a SuiteResult carrying the number of checks and any violations,
each violation with a full witness.  Runners never stop at the first failure;
they exist to certify ranges, not to shortcut them.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from math import factorial
from operator import lshift, mul

from .characters import (
    TABLE_GUARD,
    _char,
    _column,
    _multi,
    _multi_key,
    centralizer_order,
    character_table,
    degree,
    induced_character_values,
    merged_cycle_type,
)
from .padic import SINGULARITY_METHODS, is_p_singular, p_adic_context
from .partitions import _beta_mask, _rim_moves, conjugate, enumerate_partitions
from .partitions import partition_count, r_decompose
from .vanishing import (
    audit_vanishing_structure,
    equivalence_consistent,
    is_p_vanishing_structural,
    sweep,
    vanishing_classes,
)


class SuiteResult:
    __slots__ = ("name", "checks", "violations", "elapsed")

    def __init__(
        self, name: str, checks: int = 0, violations: list[dict] | None = None, elapsed: float = 0.0
    ) -> None:
        self.name = name
        self.checks = checks
        self.violations = [] if violations is None else violations
        self.elapsed = elapsed

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "checks": self.checks,
            "violations": self.violations,
            "passed": self.passed,
            "elapsed": round(self.elapsed, 3),
        }


def _timed(fn):
    def wrapper(*args, **kwargs) -> SuiteResult:
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        result.elapsed = time.perf_counter() - start
        return result

    return wrapper


@_timed
def equivalence_suite(primes: list[int], max_n: int) -> SuiteResult:
    """The four singularity tests agree on every label."""
    res = SuiteResult("equivalence")
    for p in primes:
        for n in range(max_n + 1):
            ctx = p_adic_context(n, p)
            for alpha in enumerate_partitions(n):
                answers = {m: is_p_singular(alpha, ctx, m) for m in SINGULARITY_METHODS}
                res.checks += 1
                if len(set(answers.values())) != 1:
                    res.violations.append(
                        {"p": p, "n": n, "alpha": list(alpha), "answers": answers}
                    )
    return res


def _gram_mismatches(left, right, diagonal):
    """Every (i, j, G_ij) with G_ij != (diagonal[i] if i == j else 0), i-major.

    G = left . right^T, with G_ij = sum_k left[i][k] * right[j][k], is square
    (left, right and diagonal have one entry per index) and is read one row
    at a time.  Column k of right is packed into the single integer
    sum_j right[j][k] * 2^(s*j), so sum_k left[i][k] * packed_k is
    sum_j G_ij * 2^(s*j): all of row i in one sum, compared at once with
    diagonal[i] * 2^(s*i).

    The slot width s is bound.bit_length() + 2, where bound is at least
    every |diagonal[i]| and every sum_k |left[i][k]| * max_j |right[j][k]|,
    which bounds |G_ij|.  Each slot difference d_j = G_ij - expected_ij then
    has |d_j| <= 2 * bound < 2^(s-1).  If the two integers are equal but some
    d_j is not 0, take the lowest such j: sum_j d_j * 2^(s*j) = 0 forces
    2^s to divide d_j, which needs |d_j| >= 2^s.  So equal integers mean equal
    slots, and only a row that differs is decoded, as balanced slots in
    (-2^(s-1), 2^(s-1)), into its entries.
    """
    columns = list(zip(*right))
    peaks = [max(map(abs, column)) for column in columns]
    bound = max(
        max(map(abs, diagonal), default=0),
        max((sum(map(mul, map(abs, row), peaks)) for row in left), default=0),
    )
    s = bound.bit_length() + 2
    shifts = [s * j for j in range(len(right))]
    packed = [sum(map(lshift, column, shifts)) for column in columns]
    slot, half = (1 << s) - 1, 1 << (s - 1)
    for i, row in enumerate(left):
        total = sum(map(mul, row, packed))
        if total == diagonal[i] << shifts[i]:
            continue
        for j in range(len(right)):
            got = total & slot
            if got >= half:
                got -= slot + 1
            total = (total - got) >> s
            if got != (diagonal[i] if i == j else 0):
                yield i, j, got


def check_table_guard(name: str, max_n: int) -> None:
    """Refuse max_n past TABLE_GUARD for a suite that builds full character tables.

    The two table suites check their own bound before their first table,
    and the CLI checks every selected suite's bound before the first suite runs.
    """
    if name in ("orthogonality", "conjugation-twist") and max_n > TABLE_GUARD:
        raise ValueError(f"table for n={max_n} exceeds the guard ({TABLE_GUARD})")


@_timed
def orthogonality_suite(max_n: int) -> SuiteResult:
    """Row and column orthogonality of the full character table, exactly.

    Each Gram matrix is checked one packed row at a time (_gram_mismatches);
    every (i, j) entry still counts as one check.
    """
    check_table_guard("orthogonality", max_n)
    res = SuiteResult("orthogonality")
    for n in range(max_n + 1):
        table = character_table(n)
        labels, rows = table.labels, table.values
        order = factorial(n)
        sizes = [order // centralizer_order(b) for b in labels]
        # class sizes folded into one side of each row sum
        weighted = [list(map(mul, sizes, row)) for row in rows]
        for i, j, got in _gram_mismatches(weighted, rows, [order] * len(labels)):
            res.violations.append(
                {"kind": "row", "n": n, "a1": list(labels[i]), "a2": list(labels[j]), "got": got}
            )
        columns = list(zip(*rows))
        for i, j, got in _gram_mismatches(columns, columns, list(map(centralizer_order, labels))):
            res.violations.append(
                {"kind": "column", "n": n, "b1": list(labels[i]), "b2": list(labels[j]), "got": got}
            )
        res.checks += 2 * len(labels) ** 2
    return res


@_timed
def degree_column_suite(max_n: int) -> SuiteResult:
    """Hook-length degree obeys the branching rule.

    deg(()) = 1 and deg(alpha) is the sum of deg(alpha minus one corner) over
    the removable corners.  The branching values are built up from n = 0 on
    beta-set masks, one 1-hook removal per corner, independently of the hook
    length formula, so a wrong degree is flagged at every label it affects.
    """
    res = SuiteResult("degree-column")
    below: dict[int, int] = {}
    for n in range(max_n + 1):
        level = {}
        for alpha in enumerate_partitions(n):
            mask = _beta_mask(alpha)
            branching = sum(below[new] for _, new in _rim_moves(mask, 1)) if n else 1
            level[mask] = branching
            hook = degree(alpha)
            res.checks += 1
            if hook != branching:
                res.violations.append(
                    {"n": n, "alpha": list(alpha), "degree": hook, "branching": branching}
                )
        below = level
    return res


@_timed
def conjugation_twist_suite(max_n: int) -> SuiteResult:
    """Transposing the label multiplies values by the sign of the class.

    Builds the character table of each S_n once and compares the row of the
    conjugate label with the sign of each class times the row of the label,
    one check per (label, class) cell.
    """
    check_table_guard("conjugation-twist", max_n)
    res = SuiteResult("conjugation-twist")
    for n in range(max_n + 1):
        table = character_table(n)
        labels, rows = table.labels, table.values
        row_of = dict(zip(labels, rows))
        signs = [(-1) ** (n - len(beta)) for beta in labels]
        for alpha, row in zip(labels, rows):
            twisted = row_of[conjugate(alpha)]
            for beta, sign, value, value_t in zip(labels, signs, row, twisted):
                res.checks += 1
                if value_t != sign * value:
                    res.violations.append(
                        {"n": n, "alpha": list(alpha), "beta": list(beta)}
                    )
    return res


@_timed
def split_classifier_suite(primes: list[int], max_n: int) -> SuiteResult:
    """Structural classifier agrees with brute force on every cycle type."""
    res = SuiteResult("split-classifier")
    for p in primes:
        if p not in (2, 3):
            continue
        for n in range(max_n + 1):
            ctx = p_adic_context(n, p)
            vanishing = set(vanishing_classes(n, p))
            for beta in enumerate_partitions(n):
                res.checks += 1
                ok = beta in vanishing
                if ok != is_p_vanishing_structural(beta, ctx):
                    res.violations.append(
                        {"p": p, "n": n, "beta": list(beta), "bruteforce": ok}
                    )
    return res


@_timed
def structure_suite(primes: list[int], max_n: int) -> SuiteResult:
    """Necessary-condition audits over every vanishing cycle type."""
    res = SuiteResult("structure")
    for p in primes:
        for n in range(max_n + 1):
            audit = audit_vanishing_structure(p_adic_context(n, p))
            res.checks += sum(audit.checked.values())
            res.violations.extend(
                {**v, "p": p, "n": n} for v in audit.violations
            )
    return res


@_timed
def factorization_suite(max_n: int) -> SuiteResult:
    """Character on a class with cycles divisible by r factors through core and quotient.

    For every alpha, r in 2..5, gamma a partition of the r-weight and lam of
    what is left, the value of alpha on merged_cycle_type(r, gamma, lam) is
    compared with sign * (quotient tuple on gamma) * (core on lam), all read
    from r_decompose.  The direct side is read from the merged class's column
    (characters._column, hook addition); the core and quotient factors come
    from the removal recursions _char and _multi.  The partitions of each
    size are listed once, the alpha, core and quotient masks are built once
    per (alpha, r), and the quotient factor once per gamma.
    """
    res = SuiteResult("factorization")
    partitions = [list(enumerate_partitions(m)) for m in range(max_n + 1)]
    for n in range(max_n + 1):
        for alpha in partitions[n]:
            alpha_mask = _beta_mask(alpha)
            for r in (2, 3, 4, 5):
                dec = r_decompose(alpha, r)
                core_mask = _beta_mask(dec.core)
                quotient_masks = _multi_key(map(_beta_mask, dec.quotient))
                lams = partitions[n - r * dec.weight]
                for gamma in partitions[dec.weight]:
                    q = dec.sign * _multi(quotient_masks, gamma)
                    for lam in lams:
                        direct = _column(merged_cycle_type(r, gamma, lam)).get(alpha_mask, 0)
                        split = q * _char(core_mask, lam)
                        res.checks += 1
                        if direct != split:
                            res.violations.append(
                                {
                                    "n": n,
                                    "alpha": list(alpha),
                                    "r": r,
                                    "gamma": list(gamma),
                                    "lam": list(lam),
                                    "direct": direct,
                                    "split": split,
                                }
                            )
    return res


def _label_tuples(total: int, components: int):
    """All tuples of the given number of partitions (empty allowed) summing to total."""
    if components == 1:
        for a in enumerate_partitions(total):
            yield (a,)
        return
    for head in range(total + 1):
        for a in enumerate_partitions(head):
            for rest in _label_tuples(total - head, components - 1):
                yield (a,) + rest


@_timed
def multichar_suite(max_total: int) -> SuiteResult:
    """Multi-label values: removal-order independence and the induction formula.

    Label tuples have one to three components.  Both peel orders (largest
    and smallest cycle first) run on the recursion directly, with the
    component masks built once per label tuple into _multi's sorted key, so
    tuples that differ only in order or in empty components share memo
    entries; the induced column of each label tuple is also built once and
    read class by class.
    """
    res = SuiteResult("multichar")
    for total in range(max_total + 1):
        classes = list(enumerate_partitions(total))
        for s in (1, 2, 3):
            for labels in _label_tuples(total, s):
                masks = _multi_key(map(_beta_mask, labels))
                column = induced_character_values(labels)
                for lam in classes:
                    lead = _multi(masks, lam)
                    res.checks += 1
                    bad = {}
                    trail = _multi(masks, lam[::-1])
                    if trail != lead:
                        bad["smallest_first"] = trail
                    induced = column.get(lam, 0)
                    if induced != lead:
                        bad["induced"] = induced
                    if bad:
                        res.violations.append(
                            {
                                "labels": [list(l) for l in labels],
                                "lam": list(lam),
                                "value": lead,
                                **bad,
                            }
                        )
    return res


@_timed
def conjecture_suite(primes: list[int], max_n: int) -> SuiteResult:
    """Counterexample hunt for p >= 5; a found counterexample is a violation."""
    res = SuiteResult("conjectures")
    for p in primes:
        if p < 5:
            continue
        reports = list(sweep(p, range(max_n + 1), conjecture=True))
        # every class of every S_n is classified, once
        res.checks += sum(partition_count(r.n) for r in reports)
        res.violations.extend({**c, "p": p} for r in reports for c in r.counterexamples)
        if not equivalence_consistent(reports):
            res.violations.append({"kind": "conjecture_equivalence_broken", "p": p})
    return res


# Every suite in run order: name -> (default primes, default bound, runner).
# A runner takes (primes, bound) and looks its suite up by module-global name
# when it runs, so a rebinding of that global (a tracing wrapper) is honoured.
# With the default bounds, `verify --suite all` takes 1.3-2.1 s in-process on
# one core of a 2-core Xeon VM under Python 3.11 (the VM drifts between speed
# states); equivalence, at 0.45-0.55 s, is the largest share.
SUITES: dict[str, tuple[tuple[int, ...], int, Callable[[list[int], int], SuiteResult]]] = {
    "equivalence": ((2, 3, 5), 22, lambda primes, n: equivalence_suite(primes, n)),
    "orthogonality": ((), 13, lambda primes, n: orthogonality_suite(n)),
    "degree-column": ((), 26, lambda primes, n: degree_column_suite(n)),
    "conjugation-twist": ((), 16, lambda primes, n: conjugation_twist_suite(n)),
    "split-classifier": ((2, 3), 24, lambda primes, n: split_classifier_suite(primes, n)),
    "structure": ((2, 3), 24, lambda primes, n: structure_suite(primes, n)),
    "factorization": ((), 14, lambda primes, n: factorization_suite(n)),
    "multichar": ((), 8, lambda primes, n: multichar_suite(n)),
    "conjectures": ((5,), 26, lambda primes, n: conjecture_suite(primes, n)),
}
