"""The paper's blocked bit table over the m ranks of a box, and the walks that read it.

The table marks each occupied rank with one bit, stored as r = ceil(m/p)
words of p bits (`RankTable.r`, the length of its word list): m/8 bytes
for a box of m cells, whatever n is. It and its walks are the paper's
p-bit steps 3–4, kept as the library's checked reproduction of them; the
pipeline does not run them, since they measured slower than sorting the
ranks in every cell of the route sweep (README's "Routes"). The
pipeline's dense route marks the paper's base table instead, one byte
per rank, in `pipeline`. The ranks come in as the 0-based cells that
:meth:`RankFunction.cells` makes of coordinate lists, so this module
neither reads the caller's points nor knows the f1/f2 layout. Rank is a
bijection, so the table needs no record of which point set a bit:
:meth:`RankFunction.offsets` turns each rank back into its offset.
Compacting the table into ascending-rank order ("shuffling") can either
scan all m ranks, or walk the words: `itertools.compress` skips the zero
words in C, and a table of each byte's set bits lists a nonzero word's,
in C too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, count
from operator import getitem
from typing import Iterable

from .errors import BoxTooLargeError, RankOutOfRangeError

# Cap on the bit table's length in words: 128 MiB of 8-byte list slots at
# any p, and 2^30 cells at p = 64.
MAX_WORDS = 1 << 24


def table_over_cap(m: int, p: int) -> str:
    """Why a bit table of `m` ranks would need more than `MAX_WORDS` words of `p` bits, or ""."""
    return f"{m} ranks need more than {MAX_WORDS} words of {p} bits" if m > MAX_WORDS * p else ""


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
    duplicates_skipped: int = 0

    @property
    def r(self) -> int:
        """The table's length in words, ceil(m/p)."""
        return len(self.bloom)


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


def density_threshold_simple(p: int) -> Fraction:
    """Density 1/p below which the word walk stops being linear in n."""
    check_block_width(p)
    return Fraction(1, p)


def density_threshold_refined(p: int) -> Fraction:
    """Refined lower density bound 1/(2p(2p^2 + 5p + 1) + 1).

    Charges each zero-word test its true cost relative to an orientation
    test on p-bit operands, which pushes the linear regime several orders
    of magnitude below 1/p.
    """
    check_block_width(p)
    return Fraction(1, 2 * p * (2 * p * p + 5 * p + 1) + 1)


def extract_set_bits(word: int) -> list[int]:
    """Ascending positions of the set bits of a non-negative word.

    Each pass records the lowest set bit and clears it with word & (word - 1),
    so the loop runs exactly popcount(word) times.
    """
    if word < 0:
        raise ValueError("extract_set_bits requires a non-negative word")
    positions = []
    while word:
        positions.append((word & -word).bit_length() - 1)
        word &= word - 1
    return positions


def build_rank_table(cells: Iterable[int], m: int, p: int) -> RankTable:
    """Set the bit of each 0-based cell in a fresh table of `m` ranks.

    `cells` is read once, as :meth:`RankFunction.cells` yields them:
    ``build_rank_table(rf.cells(xs, ys), rf.m, p)``. Duplicates hit a set
    bit and are counted, and `n` is the number of cells read less them.
    `m` must be an int of at least 0 (`ValueError`), more than `MAX_WORDS`
    words raise :class:`BoxTooLargeError`, and a cell that is not an int
    in [0, m) raises :class:`RankOutOfRangeError`.
    """
    check_block_width(p)
    if type(m) is not int or m < 0:
        raise ValueError(f"m must be an int of at least 0, not {m!r}")
    why = table_over_cap(m, p)
    if why:
        raise BoxTooLargeError(why)
    bloom = [0] * -(-m // p)
    seen = duplicates = 0
    # each cell is checked as it is marked, so no list of the cells is held
    for seen, c in enumerate(cells, 1):
        if type(c) is not int or not 0 <= c < m:
            raise RankOutOfRangeError(f"cell {c!r} is not an int in [0, {m})")
        w, bit = divmod(c, p)
        mask = 1 << bit
        word = bloom[w]
        if word & mask:
            duplicates += 1
        else:
            bloom[w] = word | mask
    return RankTable(bloom, seen - duplicates, m, p, duplicates)


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


# _CHUNK_BITS[k][b]: the chunk positions 8k + s of the set bits s of value b in byte k
_CHUNK_BITS = tuple(tuple(tuple(8 * k + s for s in extract_set_bits(b)) for b in range(256))
                    for k in range(8))


def fast_shuffle(table: RankTable) -> ShuffleResult:
    """Walk the p-bit words instead of individual ranks.

    `compress` skips the zero words in C, and each nonzero word's set bits
    come out of `_CHUNK_BITS` in C, a 64-bit chunk at a time. The counter
    is the paper's, a step per word and per set bit: r + n. Word j, bit s
    holds rank j*p + s + 1.
    """
    order: list[int] = []
    bloom, p = table.bloom, table.p
    for j in compress(count(), bloom):
        word, base = bloom[j], j * p + 1
        while word:
            chunk = (word & 0xFFFF_FFFF_FFFF_FFFF).to_bytes(8, "little")
            order.extend(map(base.__add__, chain.from_iterable(map(getitem, _CHUNK_BITS, chunk))))
            word, base = word >> 64, base + 64
    return ShuffleResult(order, len(bloom) + len(order), bloom.count(0))
