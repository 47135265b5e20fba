"""Integer partitions, Young-diagram hooks, and abacus (beta-set) combinatorics.

A partition is stored canonically as a tuple of weakly decreasing positive
integers; the empty tuple is the unique partition of 0 and displays as "(0)".

All bead work runs on one representation, the beta mask, built on demand and
never memoized: an int bitmask (Maya diagram, James & Kerber 1981, section
2.7) with a bead at bit alpha_i + m - 1 - i for each of the m parts.  Removing
a hook of length L moves a bead from x to an empty position x - L >= 0, which
is two bit flips; its leg length is the popcount of the bits strictly between.
So the hooks of length L are the beads of mask & (~mask << L), and the
r-weight, the number of hooks whose length r divides, is the sum of their
popcounts over L = r, 2r, ...  The abacus with r runners is the mask read
modulo r, and the r-core comes from sliding each bead down its runner.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

Partition = tuple[int, ...]


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


def hook_lengths(alpha: Partition) -> list[list[int]]:
    """All hook lengths, one list per row."""
    conj = conjugate(alpha)
    return [
        [(alpha[i] - j - 1) + (conj[j] - i - 1) + 1 for j in range(alpha[i])]
        for i in range(len(alpha))
    ]


def _beta_mask(alpha: Partition) -> int:
    """The beta-set of display size len(alpha) as a bitmask (Maya diagram).

    Bit alpha_i + m - 1 - i is set for each of the m parts.  Bit 0 is clear,
    so each partition has exactly one mask; the empty partition is 0.  A label
    that is not a partition raises ValueError: its mask would be another
    label's or carry a bead at bit 0, giving silently wrong values.
    """
    mask = 0
    below = 1  # the part after this one, or 1 past the last part
    for j, c in enumerate(reversed(alpha)):  # j = m - 1 - i
        if c < below:
            raise ValueError(f"label parts must be positive and weakly decreasing: {alpha}")
        below = c
        mask |= 1 << (c + j)
    return mask


def _display(alpha: Partition, size: int) -> int:
    """The beta mask of alpha with size >= len(alpha) beads: each extra bead goes below."""
    pad = size - len(alpha)
    return _beta_mask(alpha) << pad | ((1 << pad) - 1)


def _beads(mask: int) -> Iterator[int]:
    """The set bits of mask, lowest first, in one pass over its binary digits."""
    return (x for x, digit in enumerate(reversed(bin(mask))) if digit == "1")


def _mask_partition(mask: int) -> Partition:
    """Inverse of _beta_mask, for a mask of any display size.

    The j-th bead from the bottom (0-indexed), at x, gives the part x - j;
    the beads below the lowest gap give the parts 0, which are dropped.
    """
    parts = [x - j for j, x in enumerate(_beads(mask)) if x > j]
    return tuple(parts[::-1])


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


def _rim_additions(mask: int, k: int) -> Iterator[tuple[int, int]]:
    """(leg, new mask) for each addable k-hook, highest bead first; inverse of _rim_moves.

    The mask is padded with k beads below, enough for a bead of a zero-length
    part to move up.  A bead at x under a gap at x + k is an addable k-hook;
    adding it flips both bits, its leg is the number of beads strictly
    between them, and the new mask is normalized as in _rim_moves.
    """
    padded = mask << k | ((1 << k) - 1)
    sources = padded & ~(padded >> k)
    between = (1 << (k - 1)) - 1
    ends = (1 << k) | 1
    while sources:
        x = sources.bit_length() - 1
        sources ^= 1 << x
        new = padded ^ (ends << x)
        leg = ((padded >> (x + 1)) & between).bit_count()
        yield leg, new >> ((~new & (new + 1)).bit_length() - 1)


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
    core, quotient or sign.
    """
    if r < 1:
        raise ValueError(f"modulus must be >= 1, got {r}")
    n = sum(alpha)
    if r > n:
        return 0
    if r == 1:
        return n
    return _mask_weight(_beta_mask(alpha), r)


def _mask_decompose(mask: int, r: int) -> tuple[int, tuple[int, ...], int, int]:
    """(core mask, quotient masks, weight, sign) of the partition with this beta mask.

    The mask is displayed at the least bead count that is a multiple of r.
    Bead x sits on runner x % r at level x // r, and quotient component j
    is the partition whose beta mask is runner j's levels.

    The beads are walked from the lowest up, and each slides down its runner
    to the lowest slot not yet taken: x to y is (x - y) / r removals of an
    r-hook, and their legs add up to the beads strictly between y and x,
    all of which have already slid.  The slid beads form the core.  Each
    mask returned is the one _beta_mask of its partition.
    """
    pad = -mask.bit_count() % r
    runners = [0] * r  # level mask of each runner
    slid = [0] * r  # beads of each runner already slid down
    core = weight = legs = 0
    for x in _beads(mask << pad | ((1 << pad) - 1)):
        level, j = divmod(x, r)
        runners[j] |= 1 << level
        y = j + r * slid[j]
        slid[j] += 1
        weight += (x - y) // r
        legs += (core >> (y + 1)).bit_count()
        core |= 1 << y
    # ~m & (m + 1) is the lowest clear bit; the ones below it are zero parts
    core, *quotient = [m >> ((~m & (m + 1)).bit_length() - 1) for m in (core, *runners)]
    return core, tuple(quotient), weight, -1 if legs & 1 else 1


def r_decompose(alpha: Partition, r: int) -> RDecomposition:
    """Decompose a partition into its r-core, r-quotient, r-weight and r-sign.

    The partitions are read off the masks of _mask_decompose, which callers
    that work on masks use directly.
    """
    if r < 1:
        raise ValueError(f"modulus must be >= 1, got {r}")
    core, quotient, weight, sign = _mask_decompose(_beta_mask(alpha), r)
    return RDecomposition(
        r=r,
        core=_mask_partition(core),
        quotient=tuple(map(_mask_partition, quotient)),
        weight=weight,
        sign=sign,
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
    counts = [0] * r
    for x in _beads(_display(core, len(core) + -len(core) % r)):
        counts[x % r] += 1
    # each +r to the display size adds one bead at the bottom of every runner
    grow = max(0, max(len(q) - k for q, k in zip(quot, counts)))
    mask = 0
    for j, (q, k) in enumerate(zip(quot, counts)):
        for level in _beads(_display(q, k + grow)):
            mask |= 1 << (j + r * level)
    return _mask_partition(mask)


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
        cap = part[i]
        full, rest = divmod(len(part) - i, cap)
        del part[i + 1 :]
        part += [cap] * full
        if rest:
            part.append(rest)


def partition_count(n: int) -> int:
    """p(n) without listing: after part size a, counts[m] is p(m) with parts <= a."""
    if n < 0:
        raise ValueError(f"cannot partition {n}")
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            counts[m] += counts[m - part]
    return counts[n]
