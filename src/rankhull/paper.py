"""The paper's method as it is written: rank function, p-bit table and walk, Melkman's scan.

This module is the checked, timed reproduction of the paper's steps. The
library's `convex_hull_ranked` runs none of it: it ranks by inline
arithmetic and scans with `pipeline._scan`, and no core module imports
from here.

- `RankFunction` is the rank function, a bijection from an m1 x m2 grid
  of integer points onto [1..m], column by column (f1) or row by row
  (f2), at any corner: (1, 1) gives the paper's normalized grid, and a
  bounding box's corner ranks the caller's points in place. `cells` is
  its checked forward path and `offsets` its one inverse, each a chain of
  C-level maps that is read once. Visiting points by ascending rank traces
  a zig-zag over the grid's lines, a simple polygonal chain on any subset
  of grid points.
- The blocked bit table (`build_rank_table`) marks each occupied rank
  with one bit in r = ceil(m/p) words of p bits, m/8 bytes for m cells
  whatever n is. Rank is a bijection, so the table needs no record of
  which point set a bit. Compacting it into ascending-rank order
  ("shuffling") either scans all m ranks (`shuffle_naive`) or walks the
  words (`fast_shuffle`): `itertools.compress` skips the zero words in C,
  and a table of each byte's set bits lists a nonzero word's, in C too.
- `melkman` is the single-pass deque scan the paper names for step 5.
- `paper_steps` runs steps 1 and 3–5 end to end on a point set's box and
  times the word walk.

The p-bit steps measured slower than sorting the ranks in every cell of
the route sweep (README's "Routes"), so no route of the pipeline runs them.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, count, islice, repeat
from operator import add, floordiv, getitem, mod, mul, sub
from typing import NamedTuple

from .errors import (
    BoxTooLargeError, NonIntegerCoordinateError, OutOfGridError, RankHullError,
    RankOutOfRangeError,
)
from .geometry import (
    _INT_ONLY, Point, bounding_box, check_grid, coordinates, new_points, orientation,
)
from .hull import HullPolygon
from .pipeline import RankVariant

# Cap on the bit table's length in words: 128 MiB of 8-byte list slots at
# any p, and 2^30 cells at p = 64.
MAX_WORDS = 1 << 24


@dataclass(frozen=True)
class RankFunction:
    """A bijection between grid points and ranks 1..m.

    A point at offset (dx, dy) = (x - x_min, y - y_min) has rank
    dx * sx + dy * sy + 1. The line layout (sx, sy) is (m2, 1) for f1,
    column by column, and (1, m1) for f2, row by row; both invert with one
    divmod (`offsets`). The sides and the corner must pass `check_grid`.
    """

    variant: RankVariant
    m1: int
    m2: int
    x_min: int = 1
    y_min: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.variant, RankVariant):
            raise ValueError(f"rank variant must be a RankVariant, not {self.variant!r}")
        check_grid(self.m1, self.m2, self.x_min, self.y_min)

    @property
    def m(self) -> int:
        return self.m1 * self.m2

    def cells(self, xs: Sequence[int], ys: Sequence[int]) -> Iterator[int]:
        """The 0-based cell of each point (xs[i], ys[i]): the checked forward rank path.

        Checked first, at C speed: a coordinate that is not an int raises
        `NonIntegerCoordinateError`, and the first point off the grid `OutOfGridError`.
        """
        x0, y0, m1, m2 = self.x_min, self.y_min, self.m1, self.m2
        if len(xs) != len(ys) or not _INT_ONLY.issuperset(map(type, chain(xs, ys))):
            raise NonIntegerCoordinateError("xs and ys must be lists of ints of one length")
        x1, y1 = x0 + m1, y0 + m2
        if xs and not (x0 <= min(xs) and max(xs) < x1 and y0 <= min(ys) and max(ys) < y1):
            x, y = next(v for v in zip(xs, ys) if not (x0 <= v[0] < x1 and y0 <= v[1] < y1))
            raise OutOfGridError(f"{(x, y)} outside the {m1}x{m2} grid at ({x0}, {y0})")
        if self.variant is RankVariant.COLUMN_MAJOR:
            scaled, corner = map(add, map(mul, xs, repeat(m2)), ys), x0 * m2 + y0
        else:
            scaled, corner = map(add, xs, map(mul, ys, repeat(m1))), x0 + y0 * m1
        return map(sub, scaled, repeat(corner))

    def unrank_all(self, ranks: Sequence[int]) -> list[Point]:
        """The point of each rank, in order."""
        return self.to_points(self.offsets(ranks))

    def to_points(self, offsets: Iterable[tuple[int, int]]) -> list[Point]:
        """The caller's point at each box offset: the one translation back from offsets."""
        x0, y0 = self.x_min, self.y_min
        return list(new_points((x0 + dx, y0 + dy) for dx, dy in offsets))

    def offsets(self, ranks: Sequence[int]) -> Iterator[tuple[int, int]]:
        """The box-relative (x - x_min, y - y_min) of each rank: the one rank inverse.

        `ranks` must be a sequence, such as a list or range, and a rank that
        is not an int in [1, m] raises `RankOutOfRangeError`. The returned
        iterator makes f1's divmod of each rank, or f2's swapped, as it is read.
        """
        if not isinstance(ranks, Sequence):
            raise RankHullError(f"ranks must be a sequence, not {type(ranks).__name__}")
        m = self.m
        if ranks and not (
            _INT_ONLY.issuperset(map(type, ranks)) and 1 <= min(ranks) and max(ranks) <= m
        ):
            bad = next(r for r in ranks if type(r) is not int or not 1 <= r <= m)
            raise RankOutOfRangeError(f"rank {bad!r} is not an int in [1, {m}]")
        if self.variant is RankVariant.COLUMN_MAJOR:
            return map(divmod, map(sub, ranks, repeat(1)), repeat(self.m2))
        # zip reuses its pair when the reader lets it go; an endless repeat can be shared
        one, m1 = repeat(1), repeat(self.m1)
        return zip(map(mod, map(sub, ranks, one), m1), map(floordiv, map(sub, ranks, one), m1))


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


@dataclass
class MelkmanStats:
    """Operation counts from one hull scan.

    `isleft_evals` is the number of orientation tests actually evaluated.
    `deque_ops` counts point placements plus copy removals: a placement
    puts the point at both ends of the deque at once, and each of its two
    copies can later be removed at most once, so deque_ops <= 3n + seed.

    :func:`melkman` does not count them test by test. Its loop counts the
    points it places, the points it skips as interior, the points that
    pass the first support test and the pop loops that the size guard
    stops. The removals are then 4 + 2 * placed - len(deque), and the tests
    are one per point read, one more per point passing the first test, and
    per placed point one per removal plus one for each of its two pop loops
    that a test (not the guard) stopped, besides the collinear prefix's.
    """

    isleft_evals: int = 0
    deque_ops: int = 0


def melkman(chain: Iterable[Point], stats: MelkmanStats | None = None) -> HullPolygon:
    """Convex hull of a simple polygonal chain in one pass.

    The deque holds the hull of the points scanned so far as a cycle whose
    two ends are the most recently added vertex. Each new point is tested
    against the two support edges at the deque ends: left of both means it
    is interior and is dropped; otherwise vertices are popped from the top
    and/or deleted from the bottom until convexity is restored and the
    point becomes the new seam. Pops use non-strict tests so collinear
    vertices never survive.

    The chain may be any iterable of integer (x, y) pairs, such as a list
    of `Point`s or the box offsets `RankFunction.offsets` yields; it is read
    once, in order, and only the deque's points are kept. The hull holds
    the chain's own objects, in the canonical form of `HullPolygon.of_cycle`.
    The chain must be simple and its points distinct (ascending ranks
    guarantee both). Fully collinear chains and chains of fewer than three
    points produce degenerate polygons.
    """
    if stats is None:
        stats = MelkmanStats()
    it = iter(chain)
    head = list(islice(it, 2))
    if len(head) < 2:
        return HullPolygon.of_cycle(head)

    a, b = head
    evals = 0
    turn = 0
    for c in it:
        evals += 1
        turn = orientation(a, b, c)
        if turn != 0:
            break
        b = c  # collinear prefix is monotone on a simple chain; keep extremes
    if turn == 0:
        stats.isleft_evals += evals
        return HullPolygon.of_cycle([a, b])

    dq = deque((c, a, b, c)) if turn > 0 else deque((c, b, a, c))
    pop, push, popleft, pushleft = dq.pop, dq.append, dq.popleft, dq.appendleft
    size = 4  # len(dq), except between the two pop loops (see there)
    # no test or removal is counted in the loop: these four give the counters
    placed = passed = skipped = guarded = 0
    # The support edges are seam -> dq[1] and dq[-2] -> seam, where the
    # seam is dq[0] == dq[-1]. Their endpoints are kept as coordinate
    # locals, so no test indexes a tuple, and each pop loop leaves the
    # seam's new neighbour in its locals, so the deque is read only after
    # a removal.
    # "v strictly left of p -> q" is the cross product (q - p) x (v - p) > 0,
    # written as a comparison of its two products.
    sx, sy = c
    b1x, b1y = dq[1]
    t1x, t1y = dq[-2]
    for v in it:
        vx, vy = v
        if (b1x - sx) * (vy - sy) > (b1y - sy) * (vx - sx):
            passed += 1
            if (sx - t1x) * (vy - t1y) > (sy - t1y) * (vx - t1x):
                skipped += 1
                continue
        # top: pop q = dq[-1] while v is not strictly left of p = dq[-2] -> q.
        # Each loop starts with at least 3 entries, so the guard, which
        # keeps 2, is checked only after a removal.
        px, py = t1x, t1y
        qx, qy = sx, sy
        while (qx - px) * (vy - py) <= (qy - py) * (vx - px):
            pop()
            size -= 1
            qx, qy = px, py
            if size == 2:
                guarded += 1
                break
            px, py = dq[-2]
        push(v)
        t1x, t1y = qx, qy  # the kept top is v's neighbour there
        # bottom: pop p = dq[0] while v is not strictly left of p -> q = dq[1].
        # The top pops never reach dq[0] or dq[1], so they still hold the
        # seam and b1; `size` leaves out v's new top copy until the end.
        px, py = sx, sy
        qx, qy = b1x, b1y
        while (qx - px) * (vy - py) <= (qy - py) * (vx - px):
            popleft()
            size -= 1
            px, py = qx, qy
            if size == 1:
                guarded += 1
                break
            qx, qy = dq[1]
        pushleft(v)
        size += 2
        placed += 1
        sx, sy = vx, vy
        b1x, b1y = px, py  # the kept bottom is v's neighbour there

    # Each placement adds two entries to the first triangle's 4 and each
    # removal takes one away, so the final size gives the removals. Every
    # point read is tested against the first support edge, and the points
    # that pass it against the second; a placed point's two pop loops test
    # once per removal, plus once each unless the size guard stopped it.
    removed = 4 + 2 * placed - size
    read = placed + skipped
    stats.isleft_evals += evals + read + passed + removed + 2 * placed - guarded
    stats.deque_ops += 3 + placed + removed
    cycle = list(dq)
    cycle.pop()  # both ends hold the seam vertex
    return HullPolygon.of_cycle(cycle)


class PaperSteps(NamedTuple):
    """One run of the paper's p-bit steps: hull, bit table, walk, scan counters, walk time."""

    hull: HullPolygon
    table: RankTable
    shuffled: ShuffleResult
    stats: MelkmanStats
    walk_ns: int


def paper_steps(
    points: Sequence[Point], p: int, variant: RankVariant = RankVariant.COLUMN_MAJOR
) -> PaperSteps:
    """The paper's steps 1 and 3–5 on the points' tight box, at block width `p`.

    Each step runs through its checked entry point: `coordinates` and the
    box, `RankFunction.cells` into `build_rank_table`, `fast_shuffle`, and
    `melkman` on the box offsets of the walked ranks. Step 1's coordinate
    lists are dropped once the bit table is built, and the word walk is
    timed alone, amid the allocations of a whole run. The hull is
    translated back to the caller's points.
    """
    box = bounding_box(points)
    rf = RankFunction(variant, box.m1, box.m2, box.x_min, box.y_min)
    xs, ys = coordinates(points)
    table = build_rank_table(rf.cells(xs, ys), rf.m, p)
    del xs, ys
    t0 = time.perf_counter_ns()
    shuffled = fast_shuffle(table)
    walk_ns = time.perf_counter_ns() - t0
    stats = MelkmanStats()
    scanned = melkman(rf.offsets(shuffled.order), stats)
    # translation keeps the lexicographic order, so the cycle stays canonical
    hull = HullPolygon(tuple(rf.to_points(scanned.vertices)))
    return PaperSteps(hull, table, shuffled, stats, walk_ns)
