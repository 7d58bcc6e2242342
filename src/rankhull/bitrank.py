"""Blocked occupancy bit table and the shuffles that compact it.

The table marks each occupied rank with one bit, stored as r = ceil(m/p)
words of p bits: m/8 bytes for a box of m cells, whatever n is. The ranks
come in as the 0-based cells that :class:`RankFunction` makes of step 1's
coordinate lists, so this module neither reads the caller's points nor
knows the f1/f2 layout.
Rank is a bijection, so the table needs no record of which point set a
bit: :meth:`RankFunction.offsets` turns each rank back into its offset.
Compacting the table into ascending-rank order ("shuffling") can either
scan all m ranks, or walk the words: each word's zero test runs in C,
inside `itertools.compress`, so a zero word costs no Python loop pass, and
a nonzero word yields its bit positions in popcount(word) steps via the
lowest-set-bit clearing trick.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count, repeat
from typing import Iterable

from .errors import BoxTooLargeError

# Cap on the table's length in words: 128 MiB of 8-byte list slots at any p,
# and 2^30 cells at p = 64.
MAX_WORDS = 1 << 24


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


def check_block_width(p: int) -> None:
    """The one block-width rule: `p` must be a positive int, and not a bool."""
    if type(p) is not int or p < 1:
        raise ValueError(f"block width must be a positive int, not {p!r}")


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


def build_rank_table(cells: Iterable[int], count: int, m: int, p: int) -> RankTable:
    """Set the bit of each of `count` 0-based cells in a fresh table of `m` ranks.

    `cells` is read once and must yield `count` ints in [0, m), as
    :meth:`RankFunction.cells` does after checking the caller's lists:
    ``build_rank_table(rf.cells(xs, ys), len(xs), rf.m, p)``. The pipeline
    passes `RankFunction._cells`, the same chain without the checks, on
    lists that step 1 has checked. Duplicates hit a set bit and are
    counted. `m` and `count` must be ints of at least 0 (`ValueError`), and
    more than `MAX_WORDS` words raise :class:`BoxTooLargeError`.
    """
    check_block_width(p)
    if type(m) is not int or type(count) is not int or min(m, count) < 0:
        raise ValueError(f"m and count must be ints of at least 0, not {m!r} and {count!r}")
    if m > MAX_WORDS * p:
        raise BoxTooLargeError(f"{m} ranks need more than {MAX_WORDS} words of {p} bits")
    r = -(-m // p)
    bloom = [0] * r
    duplicates = 0
    for w, bit in map(divmod, cells, repeat(p)):
        mask = 1 << bit
        word = bloom[w]
        if word & mask:
            duplicates += 1
        else:
            bloom[w] = word | mask
    return RankTable(bloom, count - duplicates, m, p, r, duplicates)


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

    Each word costs one zero test, made in C by `compress`, which yields
    only the indices of nonzero words; a nonzero word adds one step per set
    bit, so iterations always total r + n. Rank k lives at bit (k-1) % p
    of word (k-1) // p, hence word j, bit s holds rank j*p + s + 1.
    """
    order: list[int] = []
    append = order.append
    bloom = table.bloom
    p = table.p
    nonzero = 0
    for j in compress(count(), bloom):
        nonzero += 1
        base = j * p + 1
        for s in extract_set_bits(bloom[j]):
            append(base + s)
    r = len(bloom)
    return ShuffleResult(order, r + len(order), r - nonzero)
