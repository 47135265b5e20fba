"""Independent oracles for the test suite.

Everything here is deliberately naive and self-contained (no package
imports): hook lengths by direct cell counting, rim-hook removal by the
row-sliding rule on row lengths, character values by the plain
Murnaghan-Nakayama recursion over those removals, induced characters by
handing out each cycle to a component, the two-row and hook values from
two plain coefficient lists, partition counting by the pentagonal
recurrence, the r-sign by simulating bead moves one at a time,
the r-weight both from the abacus runners and by counting hook lengths, and
hardcoded small character tables from standard references.
A bug in the package cannot leak into these.
"""

from __future__ import annotations

from math import factorial


def naive_hook_lengths(alpha: tuple[int, ...]) -> list[list[int]]:
    """Hook length of each cell: arm + leg + 1, counted cell by cell."""
    rows = len(alpha)
    out = []
    for i in range(rows):
        row = []
        for j in range(alpha[i]):
            arm = alpha[i] - (j + 1)
            leg = sum(1 for r in range(i + 1, rows) if alpha[r] >= j + 1)
            row.append(arm + leg + 1)
        out.append(row)
    return out


def naive_rim_removals(alpha: tuple[int, ...], length: int):
    """All rim-hook removals of the given length by sliding rows up.

    Removing the rim hook anchored at cell (i, j) (0-indexed) replaces rows
    i..i+leg: each of the first leg rows becomes the next row shortened by
    one, and the last row keeps only the j cells left of the anchor column.
    Yields (row, col, leg, result) with row/col 1-indexed.
    """
    hooks = naive_hook_lengths(alpha)
    for i in range(len(alpha)):
        for j in range(alpha[i]):
            if hooks[i][j] != length:
                continue
            leg = sum(1 for r in range(i + 1, len(alpha)) if alpha[r] >= j + 1)
            f = i + leg
            new = list(alpha)
            for r in range(i, f):
                new[r] = alpha[r + 1] - 1
            new[f] = j
            result = tuple(c for c in new if c > 0)
            assert sum(alpha) - sum(result) == length
            assert all(result[x] >= result[x + 1] for x in range(len(result) - 1))
            yield (i + 1, j + 1, leg, result)


def naive_can_strip(alpha: tuple[int, ...], lengths: tuple[int, ...]) -> bool:
    """Plain depth-first search over rim-hook removals, no memo."""
    if not lengths:
        return True
    return any(
        naive_can_strip(res, lengths[1:])
        for _, _, _, res in naive_rim_removals(alpha, lengths[0])
    )


def naive_character_value(alpha: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    """Murnaghan-Nakayama on partition tuples, no memo: peel cycles in the given order.

    Each step sums (-1)^leg over naive_rim_removals of the first cycle length.
    Once only 1-cycles remain, the value is the number of standard tableaux of
    what is left, taken from the hook length formula over naive_hook_lengths;
    counting those tableaux one removal path at a time is exponential in n.
    """
    if not cycles:
        return 1
    if all(c == 1 for c in cycles):
        hooks = 1
        for row in naive_hook_lengths(alpha):
            for h in row:
                hooks *= h
        return factorial(len(cycles)) // hooks
    return sum(
        (-1) ** leg * naive_character_value(res, cycles[1:])
        for _, _, leg, res in naive_rim_removals(alpha, cycles[0])
    )


def naive_induced_value(labels: tuple[tuple[int, ...], ...], cycles: tuple[int, ...]) -> int:
    """Induced character of a label tuple, one labelled cycle at a time.

    Every cycle of the class is its own object: each assignment of the cycles
    to components whose sizes then match adds the product of
    naive_character_value over the components, each on the cycles it got.
    Equal cycle lengths are not merged, so no multinomial weight is needed.
    A cycle is never given to a component it would overfill, since no
    assignment that does so can match.
    """
    total = 0

    def assign(idx: int, left: list[int], groups: list[tuple[int, ...]]) -> None:
        nonlocal total
        if idx == len(cycles):
            if not any(left):
                value = 1
                for alpha, group in zip(labels, groups):
                    value *= naive_character_value(alpha, group)
                total += value
            return
        c = cycles[idx]
        for i in range(len(labels)):
            if left[i] >= c:
                assign(
                    idx + 1,
                    left[:i] + [left[i] - c] + left[i + 1 :],
                    groups[:i] + [groups[i] + (c,)] + groups[i + 1 :],
                )

    assign(0, [sum(alpha) for alpha in labels], [()] * len(labels))
    return total


def naive_removal_sign(beta: tuple[int, ...], r: int, *, lowest_first: bool = False) -> int:
    """(-1)^(total leg length) over a maximal sequence of single r-bead moves.

    Each step slides one bead from x down to the empty position x - r,
    the highest movable bead first (or the lowest, with lowest_first); the
    leg length of the step is the number of beads strictly between.
    """
    beads = sorted(beta, reverse=True)
    occupied = set(beads)
    legs = 0
    while True:
        movable = [x for x in beads if x >= r and (x - r) not in occupied]
        if not movable:
            return -1 if legs % 2 else 1
        x = min(movable) if lowest_first else max(movable)
        y = x - r
        legs += sum(1 for z in beads if y < z < x)
        occupied.remove(x)
        occupied.add(y)
        beads.remove(x)
        beads.append(y)
        beads.sort(reverse=True)


def naive_weight(alpha: tuple[int, ...], r: int) -> int:
    """The r-weight from the abacus: sum over the beads of level minus rank on its runner.

    The beta-set of display size len(alpha) puts a bead at alpha_i + m - 1 - i.
    The bead at x sits on runner x % r at level x // r; in the r-core the b
    beads of a runner fill its levels 0..b-1, so the weight is the sum of the
    levels minus b(b-1)/2 per runner.
    """
    m = len(alpha)
    beads = [0] * r
    levels = 0
    for i, c in enumerate(alpha):
        x = c + m - 1 - i
        levels += x // r
        beads[x % r] += 1
    return levels - sum(b * (b - 1) // 2 for b in beads)


def naive_hook_weight(alpha: tuple[int, ...], r: int) -> int:
    """The r-weight as the number of cells whose hook length r divides."""
    return sum(1 for row in naive_hook_lengths(alpha) for h in row if h % r == 0)


def naive_two_row_and_hook_values(beta: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """chi^(n-k,k) for k <= n/2 and chi^(n-k,1^k) for k < n on the class beta.

    c = prod (1 + x^a) over the cycles a counts the k-sets that an element
    of the class fixes, and chi^(n-k,k) = c_k - c_(k-1) (Young's rule);
    h = prod (1 - (-x)^a) is (1 + x) times sum_k chi^(n-k,1^k) x^k
    (Macdonald 1995, ch. I).  Both are full coefficient lists, one cycle at
    a time.
    """
    n = sum(beta)
    c = [1] + [0] * n
    h = [1] + [0] * n
    for a in beta:
        sign = 1 if a % 2 else -1
        for k in range(n, a - 1, -1):
            c[k] += c[k - a]
            h[k] += sign * h[k - a]
    two_row = [c[k] - (c[k - 1] if k else 0) for k in range(n // 2 + 1)]
    hook: list[int] = []
    for k in range(n):
        hook.append(h[k] - (hook[-1] if k else 0))
    return two_row, hook


def partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal-number recurrence."""
    counts = [1]
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                total += sign * counts[m - g1]
            if g2 <= m:
                total += sign * counts[m - g2]
            k += 1
        counts.append(total)
    return counts[n]


# Full character tables of S_4 and S_5 from standard references.
# Classes (columns) and labels (rows) in lexicographically decreasing order.

S4_CLASSES = [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
S4_TABLE = {
    (4,): {(4,): 1, (3, 1): 1, (2, 2): 1, (2, 1, 1): 1, (1, 1, 1, 1): 1},
    (3, 1): {(4,): -1, (3, 1): 0, (2, 2): -1, (2, 1, 1): 1, (1, 1, 1, 1): 3},
    (2, 2): {(4,): 0, (3, 1): -1, (2, 2): 2, (2, 1, 1): 0, (1, 1, 1, 1): 2},
    (2, 1, 1): {(4,): 1, (3, 1): 0, (2, 2): -1, (2, 1, 1): -1, (1, 1, 1, 1): 3},
    (1, 1, 1, 1): {(4,): -1, (3, 1): 1, (2, 2): 1, (2, 1, 1): -1, (1, 1, 1, 1): 1},
}

S5_CLASSES = [(5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)]
S5_TABLE = {
    (5,): {
        (5,): 1, (4, 1): 1, (3, 2): 1, (3, 1, 1): 1,
        (2, 2, 1): 1, (2, 1, 1, 1): 1, (1, 1, 1, 1, 1): 1,
    },
    (4, 1): {
        (5,): -1, (4, 1): 0, (3, 2): -1, (3, 1, 1): 1,
        (2, 2, 1): 0, (2, 1, 1, 1): 2, (1, 1, 1, 1, 1): 4,
    },
    (3, 2): {
        (5,): 0, (4, 1): -1, (3, 2): 1, (3, 1, 1): -1,
        (2, 2, 1): 1, (2, 1, 1, 1): 1, (1, 1, 1, 1, 1): 5,
    },
    (3, 1, 1): {
        (5,): 1, (4, 1): 0, (3, 2): 0, (3, 1, 1): 0,
        (2, 2, 1): -2, (2, 1, 1, 1): 0, (1, 1, 1, 1, 1): 6,
    },
    (2, 2, 1): {
        (5,): 0, (4, 1): 1, (3, 2): -1, (3, 1, 1): -1,
        (2, 2, 1): 1, (2, 1, 1, 1): -1, (1, 1, 1, 1, 1): 5,
    },
    (2, 1, 1, 1): {
        (5,): -1, (4, 1): 0, (3, 2): 1, (3, 1, 1): 1,
        (2, 2, 1): 0, (2, 1, 1, 1): -2, (1, 1, 1, 1, 1): 4,
    },
    (1, 1, 1, 1, 1): {
        (5,): 1, (4, 1): -1, (3, 2): -1, (3, 1, 1): 1,
        (2, 2, 1): 1, (2, 1, 1, 1): -1, (1, 1, 1, 1, 1): 1,
    },
}
