"""Batch self-verification sweeps.

Each runner exhaustively checks one family of identities over a stated range
and returns the JSON dict that `verify --json` prints: name, checks (the
number of checks), violations (each with a full witness), passed and
elapsed.  Runners never stop at the first failure; they exist to certify
ranges, not to shortcut them.
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
from .partitions import _beta_mask, _mask_decompose, _rim_moves, conjugate
from .partitions import enumerate_partitions, partition_count
from .vanishing import STRUCTURAL_LEVEL, equivalence_consistent, sweep


def _timed(fn):
    """Add passed and elapsed (seconds, to 3 places) to the suite's {name, checks, violations}."""

    def wrapper(*args, **kwargs) -> dict:
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        result["passed"] = not result["violations"]
        result["elapsed"] = round(time.perf_counter() - start, 3)
        return result

    return wrapper


@_timed
def equivalence_suite(primes: list[int], max_n: int) -> dict:
    """The four singularity tests agree on every label."""
    checks, violations = 0, []
    for p in primes:
        for n in range(max_n + 1):
            ctx = p_adic_context(n, p)
            for alpha in enumerate_partitions(n):
                answers = {m: is_p_singular(alpha, ctx, m) for m in SINGULARITY_METHODS}
                checks += 1
                if len(set(answers.values())) != 1:
                    violations.append({"p": p, "n": n, "alpha": list(alpha), "answers": answers})
    return {"name": "equivalence", "checks": checks, "violations": violations}


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


def check_primes(name: str, primes: list[int]) -> None:
    """Refuse a prime that suite name does not sweep, before anything is swept.

    A suite whose SUITES row takes no primes refuses every prime.
    """
    takes = SUITES[name][1]
    if primes and takes is None:
        raise ValueError(f"suite {name!r} takes no primes; drop --p")
    for p in primes:
        if not takes(p):
            raise ValueError(f"suite {name!r} does not take p={p}")


def check_table_guard(name: str, max_n: int) -> None:
    """Refuse max_n past TABLE_GUARD for a suite that builds full character tables.

    The two table suites check their own bound before their first table,
    and the CLI checks every selected suite's bound before the first suite runs.
    """
    if name in ("orthogonality", "conjugation-twist") and max_n > TABLE_GUARD:
        raise ValueError(f"table for n={max_n} exceeds the guard ({TABLE_GUARD})")


@_timed
def orthogonality_suite(max_n: int) -> dict:
    """Row and column orthogonality of the full character table, exactly.

    Each Gram matrix is checked one packed row at a time (_gram_mismatches);
    every (i, j) entry still counts as one check.
    """
    check_table_guard("orthogonality", max_n)
    checks, violations = 0, []
    for n in range(max_n + 1):
        table = character_table(n)
        labels, rows = table.labels, table.values
        order = factorial(n)
        sizes = [order // centralizer_order(b) for b in labels]
        # class sizes folded into one side of each row sum
        weighted = [list(map(mul, sizes, row)) for row in rows]
        for i, j, got in _gram_mismatches(weighted, rows, [order] * len(labels)):
            violations.append(
                {"kind": "row", "n": n, "a1": list(labels[i]), "a2": list(labels[j]), "got": got}
            )
        columns = list(zip(*rows))
        for i, j, got in _gram_mismatches(columns, columns, list(map(centralizer_order, labels))):
            violations.append(
                {"kind": "column", "n": n, "b1": list(labels[i]), "b2": list(labels[j]), "got": got}
            )
        checks += 2 * len(labels) ** 2
    return {"name": "orthogonality", "checks": checks, "violations": violations}


@_timed
def degree_column_suite(max_n: int) -> dict:
    """Hook-length degree obeys the branching rule.

    deg(()) = 1 and deg(alpha) is the sum of deg(alpha minus one corner) over
    the removable corners.  The branching values are built up from n = 0 on
    beta-set masks, one 1-hook removal per corner, independently of the hook
    length formula, so a wrong degree is flagged at every label it affects.
    """
    checks, violations = 0, []
    below: dict[int, int] = {}
    for n in range(max_n + 1):
        level = {}
        for alpha in enumerate_partitions(n):
            mask = _beta_mask(alpha)
            branching = sum(below[new] for _, new in _rim_moves(mask, 1)) if n else 1
            level[mask] = branching
            hook = degree(alpha)
            checks += 1
            if hook != branching:
                violations.append(
                    {"n": n, "alpha": list(alpha), "degree": hook, "branching": branching}
                )
        below = level
    return {"name": "degree-column", "checks": checks, "violations": violations}


@_timed
def conjugation_twist_suite(max_n: int) -> dict:
    """Transposing the label multiplies values by the sign of the class.

    Builds the character table of each S_n once and compares the row of the
    conjugate label with the sign of each class times the row of the label,
    one check per (label, class) cell.
    """
    check_table_guard("conjugation-twist", max_n)
    checks, violations = 0, []
    for n in range(max_n + 1):
        table = character_table(n)
        labels, rows = table.labels, table.values
        row_of = dict(zip(labels, rows))
        signs = [(-1) ** (n - len(beta)) for beta in labels]
        for alpha, row in zip(labels, rows):
            twisted = row_of[conjugate(alpha)]
            for beta, sign, value, value_t in zip(labels, signs, row, twisted):
                checks += 1
                if value_t != sign * value:
                    violations.append({"n": n, "alpha": list(alpha), "beta": list(beta)})
    return {"name": "conjugation-twist", "checks": checks, "violations": violations}


@_timed
def split_classifier_suite(primes: list[int], max_n: int) -> dict:
    """Structural classifier agrees with brute force on every cycle type.

    Each n's report compares the two sets of classes; every class counts as
    one check, and each class in one set but not the other is a violation.
    """
    check_primes("split-classifier", primes)
    checks, violations = 0, []
    for p in primes:
        for report in sweep(p, range(max_n + 1)):
            checks += partition_count(report["n"])
            violations.extend(
                {"p": p, "n": report["n"], "beta": c["beta"], "bruteforce": c["bruteforce"]}
                for c in report["counterexamples"]
            )
    return {"name": "split-classifier", "checks": checks, "violations": violations}


@_timed
def structure_suite(primes: list[int], max_n: int) -> dict:
    """Necessary-condition audits over every vanishing cycle type."""
    checks, violations = 0, []
    for p in primes:
        for report in sweep(p, range(max_n + 1), audit=True):
            audit = report["audits"]["structure"]
            checks += sum(audit["checked"].values())
            violations.extend({**v, "p": p, "n": report["n"]} for v in audit["violations"])
    return {"name": "structure", "checks": checks, "violations": violations}


@_timed
def factorization_suite(max_n: int) -> dict:
    """Character on a class with cycles divisible by r factors through core and quotient.

    For every alpha, r in 2..5, gamma a partition of the r-weight and lam of
    what is left, the value of alpha on merged_cycle_type(r, gamma, lam) is
    compared with sign * (quotient tuple on gamma) * (core on lam), all read
    from the masks of partitions._mask_decompose, the decomposition behind
    r_decompose.  The direct side is read from the merged class's column
    (characters._column, hook addition); the core and quotient factors come
    from the removal recursions _char and _multi.  The partitions of each
    size are listed once, the alpha mask is built once per alpha, the core
    and quotient masks once per (alpha, r), and the quotient factor once per
    gamma.
    """
    checks, violations = 0, []
    partitions = [list(enumerate_partitions(m)) for m in range(max_n + 1)]
    for n in range(max_n + 1):
        for alpha in partitions[n]:
            alpha_mask = _beta_mask(alpha)
            for r in (2, 3, 4, 5):
                core_mask, quotient_masks, weight, sign = _mask_decompose(alpha_mask, r)
                quotient_masks = _multi_key(quotient_masks)
                lams = partitions[n - r * weight]
                for gamma in partitions[weight]:
                    q = sign * _multi(quotient_masks, gamma)
                    for lam in lams:
                        direct = _column(merged_cycle_type(r, gamma, lam)).get(alpha_mask, 0)
                        split = q * _char(core_mask, lam)
                        checks += 1
                        if direct != split:
                            violations.append(
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
    return {"name": "factorization", "checks": checks, "violations": violations}


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
def multichar_suite(max_total: int) -> dict:
    """Multi-label values: removal-order independence and the induction formula.

    Label tuples have one to three components.  Both peel orders (largest
    and smallest cycle first) run on the recursion directly, with the
    component masks built once per label tuple into _multi's sorted key, so
    tuples that differ only in order or in empty components share memo
    entries; the induced column of each label tuple is also built once and
    read class by class.
    """
    checks, violations = 0, []
    for total in range(max_total + 1):
        classes = list(enumerate_partitions(total))
        for s in (1, 2, 3):
            for labels in _label_tuples(total, s):
                masks = _multi_key(map(_beta_mask, labels))
                column = induced_character_values(labels)
                for lam in classes:
                    lead = _multi(masks, lam)
                    checks += 1
                    bad = {}
                    trail = _multi(masks, lam[::-1])
                    if trail != lead:
                        bad["smallest_first"] = trail
                    induced = column.get(lam, 0)
                    if induced != lead:
                        bad["induced"] = induced
                    if bad:
                        violations.append(
                            {
                                "labels": [list(l) for l in labels],
                                "lam": list(lam),
                                "value": lead,
                                **bad,
                            }
                        )
    return {"name": "multichar", "checks": checks, "violations": violations}


@_timed
def conjecture_suite(primes: list[int], max_n: int) -> dict:
    """Counterexample hunt for p >= 5; a found counterexample is a violation."""
    check_primes("conjectures", primes)
    checks, violations = 0, []
    for p in primes:
        reports = list(sweep(p, range(max_n + 1), conjecture=True))
        # every class of every S_n is classified, once
        checks += sum(partition_count(r["n"]) for r in reports)
        violations.extend({**c, "p": p} for r in reports for c in r["counterexamples"])
        if not equivalence_consistent(reports):
            violations.append({"kind": "conjecture_equivalence_broken", "p": p})
    return {"name": "conjectures", "checks": checks, "violations": violations}


# Every suite in run order: name -> (default primes, the primes it takes or
# None, default bound, runner).  A suite refuses any other prime
# (check_primes), and under `verify --suite all` the CLI gives each suite
# only the primes it takes.  A runner takes (primes, bound) and looks its
# suite up by module-global name when it runs, so a rebinding of that global
# (a tracing wrapper) is honoured.
# With the default bounds, `verify --suite all` takes 0.8-0.9 s in-process on
# one core of a 2-core Xeon VM under Python 3.11 (the VM drifts between speed
# states); equivalence, at 0.30-0.41 s, is the largest share.
Runner = Callable[[list[int], int], dict]
SUITES: dict[str, tuple[tuple[int, ...], Callable[[int], bool] | None, int, Runner]] = {
    "equivalence": ((2, 3, 5), lambda p: True, 22, lambda ps, n: equivalence_suite(ps, n)),
    "orthogonality": ((), None, 13, lambda ps, n: orthogonality_suite(n)),
    "degree-column": ((), None, 26, lambda ps, n: degree_column_suite(n)),
    "conjugation-twist": ((), None, 16, lambda ps, n: conjugation_twist_suite(n)),
    "split-classifier": (
        (2, 3), lambda p: p in STRUCTURAL_LEVEL, 24, lambda ps, n: split_classifier_suite(ps, n)
    ),
    "structure": ((2, 3), lambda p: True, 24, lambda ps, n: structure_suite(ps, n)),
    "factorization": ((), None, 14, lambda ps, n: factorization_suite(n)),
    "multichar": ((), None, 8, lambda ps, n: multichar_suite(n)),
    "conjectures": ((5,), lambda p: p >= 5, 26, lambda ps, n: conjecture_suite(ps, n)),
}
