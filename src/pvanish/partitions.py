"""Integer partitions, Young-diagram hooks, and abacus (beta-set) combinatorics.

A partition is stored canonically as a tuple of weakly decreasing positive
integers; the empty tuple is the unique partition of 0 and displays as "(0)".
Everything here treats partitions as immutable values, so results can be
memoized and shared freely across the queries of one process.

Rim-hook removal is done on beta-sets stored as int bitmasks (Maya diagrams,
James & Kerber 1981, section 2.7): a partition with m parts has a bead at bit
alpha_i + m - 1 - i for each part.  Removing a hook of length L moves a bead
from x to an empty position x - L >= 0, which is two bit flips; the leg length
of the removed hook is the popcount of the bits strictly between x - L and x.
So the hooks of length L are the beads of mask & (~mask << L), and the
r-weight, the number of hooks whose length r divides (section 2.7 there), is
the sum of their popcounts over L = r, 2r, ...
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, Iterator, NamedTuple

Partition = tuple[int, ...]
BetaSet = tuple[int, ...]


def as_partition(parts: Iterable[int]) -> Partition:
    """Canonicalize an iterable of parts, rejecting anything non-positive.

    Parts may arrive in any order (cycle types are unordered); they are
    sorted into weakly decreasing form.
    """
    seq = tuple(sorted(parts, reverse=True))
    if seq and seq[-1] < 1:
        raise ValueError(f"partition parts must be positive, got {seq}")
    return seq


# Largest partition size parse_partition accepts.  Exact evaluation stops
# far below it, and a list of this many parts is cheap to build.
MAX_PARTITION_SIZE = 10_000


def parse_partition(text: str) -> Partition:
    """Parse "4,2,1", "(4,2,1)" or the compressed form "(4,2,1^3)".

    "0", "(0)" and the empty string all denote the empty partition.  A
    partition whose parts sum past MAX_PARTITION_SIZE is rejected before
    any "base^exp" token is expanded.
    """
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    body = body.strip()
    if body in ("", "0"):
        return ()
    parts: list[int] = []
    total = 0
    for token in body.split(","):
        token = token.strip()
        if not token:
            raise ValueError(f"empty component in partition {text!r}")
        base_s, caret, exp_s = token.partition("^")
        base = int(base_s)
        exp = int(exp_s) if caret else 1
        if exp < 0:
            raise ValueError(f"negative multiplicity in {text!r}")
        if exp and base < 1:
            raise ValueError(f"partition parts must be positive, got {base} in {text!r}")
        total += base * exp
        if total > MAX_PARTITION_SIZE:
            raise ValueError(
                f"partition {text!r} is larger than the cap of {MAX_PARTITION_SIZE}"
            )
        parts.extend([base] * exp)
    return as_partition(parts)


def format_partition(alpha: Partition) -> str:
    """Inverse of parse_partition; the empty partition prints as "(0)"."""
    if not alpha:
        return "(0)"
    return "(" + ",".join(str(c) for c in alpha) + ")"


def conjugate(alpha: Partition) -> Partition:
    """Transpose the Young diagram (columns become rows)."""
    if not alpha:
        return ()
    cols = []
    for j in range(1, alpha[0] + 1):
        cols.append(sum(1 for c in alpha if c >= j))
    return tuple(cols)


def hook_length(alpha: Partition, i: int, j: int) -> int:
    """Hook length at the 1-indexed node (i, j): arm + leg + 1.

    Raises ValueError when (i, j) lies outside the diagram.
    """
    if i < 1 or i > len(alpha) or j < 1 or j > alpha[i - 1]:
        raise ValueError(f"node ({i},{j}) outside diagram of {alpha}")
    col = sum(1 for c in alpha if c >= j)
    return (alpha[i - 1] - j) + (col - i) + 1


def hook_lengths(alpha: Partition) -> list[list[int]]:
    """All hook lengths, one list per row."""
    conj = conjugate(alpha)
    return [
        [(alpha[i] - j - 1) + (conj[j] - i - 1) + 1 for j in range(alpha[i])]
        for i in range(len(alpha))
    ]


def beta_set(alpha: Partition, size: int) -> BetaSet:
    """First-column hook lengths displayed at the given size.

    The beta-set of display size m is {alpha_i + m - i : 1 <= i <= m}
    with missing parts read as 0; it is strictly decreasing.
    """
    if size < len(alpha):
        raise ValueError(f"display size {size} below part count of {alpha}")
    padded = alpha + (0,) * (size - len(alpha))
    return tuple(padded[i] + size - 1 - i for i in range(size))


def from_beta_set(beta: Iterable[int]) -> Partition:
    """Recover the partition from a set of distinct non-negative integers."""
    elems = sorted(beta, reverse=True)
    if any(x < 0 for x in elems):
        raise ValueError(f"beta-set elements must be non-negative: {elems}")
    if len(set(elems)) != len(elems):
        raise ValueError(f"beta-set elements must be distinct: {elems}")
    m = len(elems)
    parts = tuple(x - (m - 1 - i) for i, x in enumerate(elems))
    return tuple(c for c in parts if c > 0)


class HookRemoval(NamedTuple):
    """One way of removing a rim hook of a given length.

    row/col locate the hook's corner node (1-indexed), leg is the leg
    length of the removed rim hook, result the remaining partition.
    """

    row: int
    col: int
    length: int
    leg: int
    result: Partition


@cache
def _beta_mask(alpha: Partition) -> int:
    """The beta-set of display size len(alpha) as a bitmask (Maya diagram).

    Bit alpha_i + m - 1 - i is set for each of the m parts.  Bit 0 is clear,
    so each partition has exactly one mask; the empty partition is 0.  A label
    that is not a partition raises ValueError: its mask would be another
    label's or carry a bead at bit 0, giving silently wrong values.
    """
    if alpha and (alpha[-1] < 1 or sorted(alpha, reverse=True) != list(alpha)):
        raise ValueError(f"label parts must be positive and weakly decreasing: {alpha}")
    mask = 0
    for j, c in enumerate(reversed(alpha)):  # j = m - 1 - i
        mask |= 1 << (c + j)
    return mask


def _mask_partition(mask: int) -> Partition:
    """Inverse of _beta_mask."""
    return from_beta_set(x for x in range(mask.bit_length()) if mask >> x & 1)


def _rim_moves(mask: int, k: int) -> Iterator[tuple[int, int]]:
    """(leg, new mask) for each removable k-hook, highest bead (top row) first.

    A bead at x + k over a gap at x is a removable k-hook; removing it flips
    both bits, and its leg is the number of beads strictly between them.  The
    new mask is shifted right past its trailing ones, which drops the beads of
    zero-length parts, so it stays the one mask of the remaining partition.
    """
    landings = (mask & ~(mask << k)) >> k
    between = (1 << (k - 1)) - 1
    ends = (1 << k) | 1
    while landings:
        y = landings.bit_length() - 1
        landings ^= 1 << y
        new = mask ^ (ends << y)
        leg = ((mask >> (y + 1)) & between).bit_count()
        # ~new & (new + 1) is the lowest clear bit; the ones below it go
        yield leg, new >> ((~new & (new + 1)).bit_length() - 1)


def removable_hooks(alpha: Partition, length: int) -> list[HookRemoval]:
    """All removals of a rim hook of the given length, by origin row ascending.

    A row holds at most one hook of each length, so the origin column is
    determined; row and column are read off the bead and the gap it drops to.
    """
    if length < 1:
        return []
    mask = _beta_mask(alpha)
    out = []
    for leg, new in _rim_moves(mask, length):
        # the gap y the bead drops to: only y = 0 shifts the mask, losing beads
        diff = mask ^ new
        y = (diff & -diff).bit_length() - 1 if new.bit_count() == mask.bit_count() else 0
        out.append(
            HookRemoval(
                row=1 + (mask >> (y + length + 1)).bit_count(),
                col=y + 1 - (mask & ((1 << y) - 1)).bit_count(),
                length=length,
                leg=leg,
                result=_mask_partition(new),
            )
        )
    return out


@cache
def _strippable(mask: int, lengths: tuple[int, ...]) -> bool:
    if not lengths:
        return True
    rest = lengths[1:]
    return any(_strippable(new, rest) for _, new in _rim_moves(mask, lengths[0]))


def can_remove_sequence(alpha: Partition, lengths: Iterable[int]) -> bool:
    """Whether hooks of the given lengths can be removed in the given order.

    The search memoizes on (partition, remaining suffix); suffixes recur
    across queries, so the cache is shared process-wide.
    """
    seq = tuple(lengths)
    if any(l < 1 for l in seq):
        raise ValueError(f"hook lengths must be positive: {seq}")
    if sum(seq) > sum(alpha):
        return False
    return _strippable(_beta_mask(alpha), seq)


class RDecomposition(NamedTuple):
    """r-core, r-quotient, r-weight and r-sign of a partition.

    quotient has exactly r components; component j is read off runner j of
    an abacus with a bead count divisible by r.  sign is (-1) raised to the
    total leg length of any maximal sequence of r-hook removals (the parity
    does not depend on the order).
    """

    r: int
    core: Partition
    quotient: tuple[Partition, ...]
    weight: int
    sign: int


def _runner_levels(beta: BetaSet, r: int) -> list[list[int]]:
    """Bead levels per runner: bead at position x sits on runner x % r, level x // r."""
    runners: list[list[int]] = [[] for _ in range(r)]
    for x in beta:
        runners[x % r].append(x // r)
    for lev in runners:
        lev.sort()
    return runners


def _mask_weight(mask: int, r: int) -> int:
    """The r-weight of the partition with this beta mask: its hooks of length r, 2r, ...

    A bead at x over a gap at x - L is a hook of length L, so the hooks of
    length L are the set bits of mask & (~mask << L).  No hook is longer than
    the top bead, so L stops below mask.bit_length().
    """
    gaps = ~mask
    weight = 0
    for length in range(r, mask.bit_length(), r):
        weight += (mask & (gaps << length)).bit_count()
    return weight


def r_weight(alpha: Partition, r: int) -> int:
    """The r-weight alone: how many r-hooks are removed on the way to the r-core.

    It equals the number of hooks of alpha whose length r divides (James &
    Kerber 1981, 2.7), counted by popcount on the beta mask.  It builds no
    core, quotient or sign and caches nothing, not even the mask.
    """
    if r < 1:
        raise ValueError(f"modulus must be >= 1, got {r}")
    n = sum(alpha)
    if r > n:
        return 0
    if r == 1:
        return n
    return _mask_weight(_beta_mask.__wrapped__(alpha), r)


@cache
def r_decompose(alpha: Partition, r: int) -> RDecomposition:
    """Decompose a partition into its r-core, r-quotient, r-weight and r-sign.

    The beta-set is displayed at the least size that is a multiple of r, and
    quotient component j is read off runner j (bead positions congruent to
    j mod r, with levels giving the component's beta-set).

    Removing the r-hooks slides each bead down its runner and never past
    another bead of the same runner, so the bead of rank v on runner j ends
    at j + r*v.  Each move's leg length counts the beads it jumps over, so
    the sign is the parity of the inversions of that map: the parity of the
    permutation that sorts the end positions back into decreasing order,
    which is m minus its number of cycles.
    """
    if r < 1:
        raise ValueError(f"modulus must be >= 1, got {r}")
    m = r * ((len(alpha) + r - 1) // r)
    beta = beta_set(alpha, m)
    runners = _runner_levels(beta, r)
    weight = sum(lev - v for levels in runners for v, lev in enumerate(levels))
    slot = {
        j + r * lev: j + r * v
        for j, levels in enumerate(runners)
        for v, lev in enumerate(levels)
    }
    ends = [slot[x] for x in beta]
    order = sorted(range(m), key=ends.__getitem__, reverse=True)
    seen = bytearray(m)
    cycles = 0
    for start in range(m):
        if not seen[start]:
            cycles += 1
            i = start
            while not seen[i]:
                seen[i] = 1
                i = order[i]
    return RDecomposition(
        r=r,
        core=from_beta_set(ends),
        quotient=tuple(from_beta_set(levels) for levels in runners),
        weight=weight,
        sign=-1 if (m - cycles) % 2 else 1,
    )


def from_core_and_quotient(core: Partition, quotient: Iterable[Partition], r: int) -> Partition:
    """Inverse of r_decompose: rebuild the partition from core and quotient.

    Raises ValueError when core is not actually an r-core or the quotient
    does not have exactly r components.
    """
    quot = tuple(tuple(q) for q in quotient)
    if r < 1:
        raise ValueError(f"modulus must be >= 1, got {r}")
    if len(quot) != r:
        raise ValueError(f"quotient needs exactly {r} components, got {len(quot)}")
    if r_weight(core, r) != 0:
        raise ValueError(f"{core} is not an {r}-core")
    s = (len(core) + r - 1) // r
    runners = _runner_levels(beta_set(core, r * s), r)
    # each +r to the display size adds one bead at the bottom of every runner
    grow = max((len(q) - len(runners[j]) for j, q in enumerate(quot)), default=0)
    if grow > 0:
        s += grow
        runners = _runner_levels(beta_set(core, r * s), r)
    beads = []
    for j, q in enumerate(quot):
        beads.extend(j + r * lev for lev in beta_set(q, len(runners[j])))
    return from_beta_set(beads)


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """Yield all partitions of n in lexicographically decreasing order."""
    if n < 0:
        raise ValueError(f"cannot partition {n}")
    if n == 0:
        yield ()
        return
    part = [n]
    while True:
        yield tuple(part)
        i = len(part) - 1
        while i >= 0 and part[i] == 1:
            i -= 1
        if i < 0:
            return
        part[i] -= 1
        rem = len(part) - i
        del part[i + 1 :]
        cap = part[i]
        while rem > 0:
            take = min(cap, rem)
            part.append(take)
            rem -= take


def clear_caches() -> None:
    """Drop the process-wide memo tables (beta masks, hook stripping, decompositions)."""
    _beta_mask.cache_clear()
    _strippable.cache_clear()
    r_decompose.cache_clear()
