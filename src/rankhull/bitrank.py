"""Occupancy tables over the m ranks of a box, and the passes that read them.

The blocked bit table marks each occupied rank with one bit, stored as
r = ceil(m/p) words of p bits: m/8 bytes for a box of m cells, whatever n
is. It and its walk are the paper's p-bit steps 3–4, kept as the
library's checked reproduction of them; the pipeline does not run them,
since they measured slower than sorting the ranks in every cell of the
route sweep (README's "Routes"). The byte table is the paper's base
table, one byte per rank, and the pipeline's dense route. The ranks
come in as the 0-based cells that :class:`RankFunction` makes of step 1's
coordinate lists, or, for a table anchored at the origin, as (line,
along) index pairs that the pipeline zips from those lists, so this
module neither reads the caller's points nor knows the f1/f2 layout
beyond the length of a line.
Rank is a bijection, so neither table needs a record of which point set a
mark: :meth:`RankFunction.offsets` turns each rank back into its offset,
and the pipeline's scan reads each cell by one `divmod`.
Compacting the bit table into ascending-rank order ("shuffling") can either
scan all m ranks, or walk the words: `itertools.compress` skips the zero
words in C, and a table of each byte's set bits lists a nonzero word's, in
C too. The byte table is marked in C, one `operator.setitem` a cell or
a pair, and read one line at a time instead, for each occupied line's
lowest and highest rank only.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, count, repeat
from operator import getitem, setitem
from typing import Iterable

from .errors import BoxTooLargeError, RankOutOfRangeError

# Cap on the bit table's length in words: 128 MiB of 8-byte list slots at
# any p, and 2^30 cells at p = 64.
MAX_WORDS = 1 << 24
# Cap on the byte table's length: 128 MiB, 2^27 cells.
MAX_BYTES = 1 << 27


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


def build_rank_table(cells: Iterable[int], count: int, m: int, p: int) -> RankTable:
    """Set the bit of each of `count` 0-based cells in a fresh table of `m` ranks.

    `cells` is read once, as :meth:`RankFunction.cells` yields them:
    ``build_rank_table(rf.cells(xs, ys), len(xs), rf.m, p)``. Duplicates
    hit a set bit and are counted. `m` and `count` must be ints of at least
    0 (`ValueError`), more than `MAX_WORDS` words raise
    :class:`BoxTooLargeError`, and `cells` must yield exactly `count` ints
    in [0, m): a cell that is not raises :class:`RankOutOfRangeError`, and
    another number of cells `ValueError`.
    """
    check_block_width(p)
    if type(m) is not int or type(count) is not int or min(m, count) < 0:
        raise ValueError(f"m and count must be ints of at least 0, not {m!r} and {count!r}")
    why = table_over_cap(m, p)
    if why:
        raise BoxTooLargeError(why)
    r = -(-m // p)
    bloom = [0] * r
    seen = duplicates = 0
    # each cell is checked as it is marked, so no list of the cells is held
    for c in cells:
        if type(c) is not int or not 0 <= c < m:
            raise RankOutOfRangeError(f"cell {c!r} is not an int in [0, {m})")
        seen += 1
        w, bit = divmod(c, p)
        mask = 1 << bit
        word = bloom[w]
        if word & mask:
            duplicates += 1
        else:
            bloom[w] = word | mask
    if seen != count:
        raise ValueError(f"count is {count}, but cells yields {seen}")
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
    r = len(bloom)
    return ShuffleResult(order, r + len(order), bloom.count(0))


def _mark_bytes(cells: Iterable[int], m: int) -> bytearray:
    """The byte table of `m` ranks with a 1 at each 0-based cell, which must lie in [0, m).

    The marking runs in C, one `operator.setitem` per cell inside a `map`
    that a zero-length `deque` drains; a duplicate marks its byte again,
    and a cell of m or more raises `IndexError`. The table's count of ones
    is the number of distinct cells.
    """
    occ = bytearray(m)
    deque(map(setitem, repeat(occ), cells, repeat(1)), maxlen=0)
    return occ


def _mark_grid(pairs: Iterable[tuple[int, int]], lines: int, width: int) -> bytearray:
    """The byte table of `lines` lines of `width` cells with a 1 at each (line, along) pair.

    The pair marks cell line * width + along through a 2-D `memoryview` of
    the table, which takes the pair itself as its index, so the marking
    makes no cell int: one `operator.setitem` a pair in C, as in
    `_mark_bytes`. An index of a side or more raises `IndexError`, but a
    negative one counts back from the side's end and marks a wrong cell,
    so every pair must lie in [0, lines) × [0, width).
    """
    occ = bytearray(lines * width)
    with memoryview(occ) as flat, flat.cast("B", (lines, width)) as grid:
        deque(map(setitem, repeat(grid), pairs, repeat(1)), maxlen=0)
    return occ


def _line_extremes(occ: bytearray, width: int) -> tuple[list[int], int]:
    """The 0-based cells of each occupied line's lowest and highest mark, and the line count.

    The table's cells run line by line, `width` to a line (a column of m2
    cells under f1, a row of m1 under f2). Each occupied line gives its
    lowest cell and then, if it holds more than one mark, its highest, so
    the cells come out ascending, as step 5 reads them. `bytearray.find`
    skips the empty lines in C, so the Python loop runs once per occupied
    line, and that count is returned with the cells.
    """
    cells: list[int] = []
    append = cells.append
    find, rfind = occ.find, occ.rfind
    lines = 0
    first = find(1)
    while first >= 0:
        lines += 1
        end = first - first % width + width
        last = rfind(1, first, end)
        append(first)
        if last != first:
            append(last)
        first = find(1, end)
    return cells, lines
