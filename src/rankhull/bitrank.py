"""Blocked occupancy bit table and the shuffles that compact it.

The table marks each occupied rank with one bit, stored as r = ceil(m/p)
words of p bits: m/8 bytes for a box of m cells, whatever n is. It is the
only per-box structure. Because rank is a bijection, the table needs no
record of which input point set a bit; a rank turns back into its point
with one divmod (:meth:`RankFunction.unrank_all`). Compacting the table
into ascending-rank order ("shuffling") can either scan all m ranks, or
walk the words: a zero word is skipped in a single compare and a nonzero
word yields its bit positions in popcount(word) steps via the
lowest-set-bit clearing trick.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from .errors import BoxTooLargeError, NonIntegerCoordinateError, OutOfGridError
from .geometry import Point
from .ranking import RankFunction, RankVariant

# Cap on the table's length in words: 128 MiB of 8-byte list slots at any p,
# and 2^30 cells at p = 64.
MAX_WORDS = 1 << 24

_transpose = itemgetter(1, 0)


@dataclass
class RankTable:
    """Occupancy bits of the distinct ranked points.

    `bloom[w]` holds bits for ranks w*p+1 .. (w+1)*p, lowest bit first;
    rank k occupies bit (k-1) % p of word (k-1) // p.
    """

    bloom: list[int]
    n: int
    m: int
    p: int
    r: int
    duplicates_skipped: int = 0


@dataclass
class ShuffleResult:
    """Occupied ranks in ascending order plus loop instrumentation."""

    order: list[int]
    iterations: int
    zero_buckets_skipped: int = 0


def extract_set_bits(word: int) -> list[int]:
    """Ascending positions of the set bits of a non-negative word.

    Repeatedly clears the lowest set bit with word & (word - 1); each pass
    records the cleared position, so the loop runs exactly popcount(word)
    times and the result length equals the iteration count.
    """
    if word < 0:
        raise ValueError("extract_set_bits requires a non-negative word")
    positions = []
    x = word
    while x:
        positions.append((x & -x).bit_length() - 1)
        x &= x - 1
    return positions


def build_rank_table(
    points: Sequence[Point],
    rf: RankFunction,
    p: int,
) -> RankTable:
    """Rank every point in the grid of `rf` and set its bit in a fresh table.

    Ranks come straight from the points' own coordinates, with the rank
    arithmetic of :meth:`RankFunction.rank` inlined. Duplicate points hit
    an already-set bit and are skipped and counted. A box of more than
    `MAX_WORDS` words raises :class:`BoxTooLargeError`.
    """
    if p < 1:
        raise ValueError("block width must be positive")
    m = rf.m
    if m > MAX_WORDS * p:
        raise BoxTooLargeError(f"{m} ranks need more than {MAX_WORDS} words of {p} bits")
    r = -(-m // p)
    bloom = [0] * r
    # Row-major ranks are the column-major ranks of the transposed points:
    # k = (a - a_min) * nb + (b - b_min) with (a, b) = (x, y) or (y, x).
    if rf.variant is RankVariant.COLUMN_MAJOR:
        pairs, a_min, b_min, nb = points, rf.x_min, rf.y_min, rf.m2
    else:
        pairs, a_min, b_min, nb = map(_transpose, points), rf.y_min, rf.x_min, rf.m1
    duplicates = 0
    try:
        for a, b in pairs:
            db = b - b_min
            k0 = (a - a_min) * nb + db
            # 0 <= db < nb and 0 <= k0 < m together put (a, b) inside the grid
            if not (0 <= db < nb and 0 <= k0 < m):
                v = (a, b) if rf.variant is RankVariant.COLUMN_MAJOR else (b, a)
                raise OutOfGridError(f"{v} outside the grid of {rf}")
            w, bit = divmod(k0, p)
            mask = 1 << bit
            word = bloom[w]
            if word & mask:
                duplicates += 1
            else:
                bloom[w] = word | mask
    except (TypeError, ValueError, IndexError) as exc:
        raise NonIntegerCoordinateError(f"a point is not an (x, y) pair: {exc}") from None
    return RankTable(bloom, len(points) - duplicates, m, p, r, duplicates)


def shuffle_naive(table: RankTable) -> ShuffleResult:
    """Scan ranks 1..m and collect occupied ones, stopping after n hits."""
    order: list[int] = []
    append = order.append
    bloom = table.bloom
    p = table.p
    n = table.n
    iterations = 0
    for k0 in range(table.m):
        iterations += 1
        if bloom[k0 // p] >> (k0 % p) & 1:
            append(k0 + 1)
            if len(order) == n:
                break
    return ShuffleResult(order, iterations)


def fast_shuffle(table: RankTable) -> ShuffleResult:
    """Walk the p-bit words instead of individual ranks.

    Each word costs one zero test; a nonzero word adds one step per set
    bit, so iterations always total r + n. Rank k lives at bit (k-1) % p
    of word (k-1) // p, hence word j, bit s holds rank j*p + s + 1.
    """
    order: list[int] = []
    append = order.append
    p = table.p
    iterations = 0
    zero_buckets = 0
    for j, num in enumerate(table.bloom):
        iterations += 1
        if num == 0:
            zero_buckets += 1
            continue
        base = j * p + 1
        for s in extract_set_bits(num):
            iterations += 1
            append(base + s)
    return ShuffleResult(order, iterations, zero_buckets)
