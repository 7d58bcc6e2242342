"""End-to-end rank-ordered hull: box, then one of two routes.

Step 1 alone reads the caller's points, into lists of xs and ys, and
takes their box, four ints. It is also the pipeline's only input check:
the grid is the box of those same lists, so the later steps rank them,
or index a byte table by them, unchecked. A small cost model then picks
the route that finishes the hull (`Route`), and the route and the box
pick the rank layout: byte extremes on a box wider than tall rank row by
row (f2), every other call column by column (f1). f2 is f1 on the
transposed points, so under f2 the two columns swap once, and steps 3–5
see one column-major grid of plain ints: a line per value of the first
column, `width` cells a line. Every route hands step 5 0-based cells in
ascending rank order, and step 5 (`_scan`) is the same for both:

- byte extremes: step 3 marks each point's rank in a table of one byte
  per rank (the paper's base O(n + m) table), through a 2-D view of it
  that takes a point's (line, along) pair as its index: one C call a
  point, and no cell int made (`_mark_grid`). When the box's corner is at
  least 0 and the table anchored at the origin, (x_max + 1)·(y_max + 1)
  bytes, is at most 2·m and within `MAX_BYTES`, the pairs are the
  points' own two columns. Any other box, with a negative corner that
  would index back from a side's end or far from the origin, has the box
  itself as its grid, and the pairs are the points' offsets from its
  corner, subtracted in C as they are marked. Step 4 reads each occupied
  line's lowest and highest cell from the table, skipping the empty lines
  in C (`_line_extremes`), and step 5 scans those, at most two per line.
  Only a line's two extremes can be hull vertices. Each occupied line
  costs a Python loop pass, so the lines run along the longer side.
- sorted ranks, for boxes too sparse for the table: step 3 ranks the
  points by arithmetic, x·width + y less the corner's, which needs no
  table that grows with the box, and drops duplicates with a `set`, step
  4 sorts the n distinct cells (ints, in C) and step 5 scans them. That
  is the chain the paper's p-bit steps 3–4 (`paper.build_rank_table`
  and `fast_shuffle`) yield, got by a comparison sort of ints rather than
  by a table; those steps measured slower than the sort in every cell of
  the route sweep, so no route runs them. The sort keeps f1.

Step 5 (`_scan`) reads each cell as (line, along) = divmod(cell, width),
the inverse of step 3's rank, so ascending cells are sorted pairs: a
chord split and Andrew's monotone chain scan them with fewer tests a
point than the paper's Melkman deque scan, which `paper.melkman` keeps as
its step-5 reproduction. Step 2's translation is folded into step 3's
rank arithmetic; orientation tests are translation-invariant, so the
scan decides on offsets from the grid's corner (the box's, or the origin
for a table indexed in place) as it would on the caller's points. Only
the hull's vertices are turned back into the caller's points, once:
under f2 each pair swaps back and the cycle, which the swap turned
clockwise, is reversed; then the corner is added and
`HullPolygon.of_cycle` gives the canonical cycle.

The model (`route_estimates`) prices each route's work past step 1
(`route_terms`) with nanoseconds fitted to the sweep in
`docs/route_sweep.csv` (README's "Routes"). The byte table is never built
over its cap of `MAX_BYTES` bytes; sorted ranks have no cap.
"""

from __future__ import annotations

import logging
import math
import time
from collections import deque
from collections.abc import Collection, Iterable, Iterator
from dataclasses import dataclass
from enum import Enum
from itertools import chain, compress, repeat
from operator import add, floordiv, gt, mul, setitem, sub

from .errors import BoxTooLargeError, NonIntegerCoordinateError
from .geometry import Point, coordinates, new_points
from .hull import HullPolygon

_log = logging.getLogger(__name__)

# Cap on the byte table's length: 128 MiB, 2^27 cells.
MAX_BYTES = 1 << 27


class RankVariant(Enum):
    """Grid traversal order. Values double as the CLI spelling."""

    COLUMN_MAJOR = "f1"
    ROW_MAJOR = "f2"


class Route(Enum):
    """The code that computed a hull, as a report names it."""

    EXTREMES = "extremes"
    SORT = "sort"


@dataclass(frozen=True)
class RouteCosts:
    """Nanoseconds per unit of `route_terms`' work, one tuple per route."""

    extremes: tuple[float, float, float]  # per point, per cell, per occupied line
    sort: tuple[float, float]  # per point, per n·log2 n


# Fitted to docs/route_sweep.csv; tests/test_analysis.py refits and pins them.
ROUTE_COSTS = RouteCosts(extremes=(244.8, 0.5294, 2142.0), sort=(1190.0, 6.978))


@dataclass(frozen=True)
class OperationCounters:
    isleft_evals: int
    shuffle_iterations: int
    deque_ops: int


@dataclass(frozen=True)
class PipelineReport:
    """Hull in the caller's coordinates plus instrumentation.

    `n` counts distinct points; exact duplicates are absorbed in step 3, by
    the table or the `set` of ranks, so `duplicates_skipped` is
    len(points) - n. `m` is the box area m1 * m2 and `density` is n / m,
    with m = 0 and density 0.0 for empty input. `route` is the route that
    ran; empty input runs none and reports the route chosen for it.
    `rank_variant` is the layout that ranked the box: `ROW_MAJOR` for
    byte extremes when m1 > m2, which swap the box's two columns so that
    the grid's lines are its rows, else `COLUMN_MAJOR`.
    `step_ns` holds the elapsed monotonic nanoseconds of the paper's five
    steps (box, translate, rank, shuffle, scan). The translation happens
    inside the rank arithmetic, so its slot is always 0; the scan's slot
    includes turning the hull's vertices back into the caller's points.
    On the byte-extremes route step 3 is the marking, indexed by the
    points' own coordinates or by their offsets from the box's corner
    (both give every field but `step_ns` alike), step 4 the pass over the
    lines, and `shuffle_iterations` counts the occupied lines that pass
    read. On the sorted-ranks route step 3 is the ranking and the `set`
    that drops duplicates, step 4 the sort, and `shuffle_iterations` is n,
    the ranks sorted.

    The scan's counters are exact functions of its k cells (n on sorted
    ranks, at most two an occupied line on byte extremes), the h hull
    vertices (2 for a collinear chain) and the g pop loops that a pass's
    guard stopped. `isleft_evals` counts the orientation tests: k against
    the chord, and per pass one for each point past its first two and one
    for each removal, less its guarded loops. That is 3k - 2 - h - g, at
    most 3k - 4. `deque_ops` counts the passes' pushes and pops: every
    cell is pushed once and the two ends once more, k + 2 pushes, and
    each pop undoes one of them, 2k + 2 - h in all, at most 2k. One cell
    takes neither test nor operation.
    """

    hull: HullPolygon
    n: int
    m: int
    m1: int
    m2: int
    density: float
    duplicates_skipped: int
    counters: OperationCounters
    step_ns: tuple[int, int, int, int, int]
    rank_variant: RankVariant
    route: Route

    @property
    def used_fallback(self) -> bool:
        """True when no table was built: the hull came from sorted ranks."""
        return self.route is Route.SORT


# The routes that `route_terms` and `route_estimates` price, in the order that breaks a tie.
ROUTES = (Route.EXTREMES, Route.SORT)


def route_terms(count: int, m: int, lines: int) -> tuple[tuple[float, ...], ...]:
    """The units of work of each of `ROUTES`, past step 1.

    For `count` points in a box of `m` cells made of `lines` lines of
    consecutive ranks: byte extremes pay per point, per cell and per
    occupied line, and sorted ranks per point and per n·log2 n. The
    occupied lines are their expected count for `count` points uniform on
    `lines` lines, lines·(1 − (1 − 1/lines)^count), taken through `expm1`
    and `log1p` to keep its precision where 1/lines is tiny.
    """
    occupied = (
        -lines * math.expm1(count * math.log1p(-1 / lines)) if lines > 1 else min(lines, count)
    )
    return (count, m, occupied), (count, count * math.log2(count) if count else 0.0)


def route_estimates(count: int, m: int, lines: int) -> tuple[float, ...]:
    """Estimated nanoseconds of each of `ROUTES` past step 1, by `ROUTE_COSTS`.

    The arguments are `route_terms`'. Byte extremes read `math.inf` when
    their table would be over its cap of `MAX_BYTES`; sorted ranks have no cap.
    """
    extremes, sort = route_terms(count, m, lines)
    return (
        math.inf if m > MAX_BYTES else sum(map(mul, ROUTE_COSTS.extremes, extremes)),
        sum(map(mul, ROUTE_COSTS.sort, sort)),
    )


def choose_route(count: int, m: int, lines: int) -> Route:
    """The cheaper of `route_estimates` for `count` points in a box of `m` cells over `lines` lines.

    A tie goes to the first of `ROUTES`. The choice and the two estimates
    are logged at DEBUG level.
    """
    estimates = route_estimates(count, m, lines)
    route = ROUTES[estimates.index(min(estimates))]
    _log.debug(
        "route %s for %d points, %d cells, %d lines: estimates extremes %.0f, sort %.0f ns",
        route, count, m, lines, *estimates,
    )
    return route


def convex_hull_ranked(points: Collection[Point]) -> PipelineReport:
    """Convex hull via rank ordering instead of a comparison sort.

    Step 1 reads the points into coordinate lists and their box;
    `choose_route` picks the route for its min(m1, m2) lines, and the route
    and the box pick the layout. Step 3 ranks the points (step 2's
    translation included): byte extremes mark each rank in a table, and
    sorted ranks gather the distinct ranks in a `set`. Step 4 puts the
    cells to scan in ascending order: read from the table, or sorted. Step
    5 splits them at the chord between the first and the last and scans
    each side once (`_scan`).
    `points` must be a sized collection, such as a list, tuple or set: step
    1 iterates over it three times, for each point's len(), x and y, and no
    other step reads it.
    """
    return _hull(points, None)


def _hull(points: Collection[Point], route: Route | None) -> PipelineReport:
    """`convex_hull_ranked` on `route`, or on `choose_route`'s route for None.

    A named route is taken as is, so that each route can be timed and
    checked on its own, unless its table would be over its cap:
    :class:`BoxTooLargeError`; sorted ranks have no cap. Any other value
    raises `ValueError`.
    """
    if route is not None and not isinstance(route, Route):
        raise ValueError(f"route must be a Route or None, not {route!r}")
    if not isinstance(points, Collection):
        raise NonIntegerCoordinateError(
            f"points must be a sized collection, not {type(points).__name__}"
        )
    if not points:
        return PipelineReport(
            hull=HullPolygon(()), n=0, m=0, m1=0, m2=0, density=0.0, duplicates_skipped=0,
            counters=OperationCounters(0, 0, 0), step_ns=(0, 0, 0, 0, 0),
            rank_variant=RankVariant.COLUMN_MAJOR, route=route or choose_route(0, 0, 0),
        )
    clock = time.perf_counter_ns
    t0 = clock()
    xs, ys = coordinates(points)
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    t1 = clock()
    m1, m2 = x1 - x0 + 1, y1 - y0 + 1
    m = m1 * m2
    if route is None:
        route = choose_route(len(xs), m, min(m1, m2))
    elif route is Route.EXTREMES and m > MAX_BYTES:
        raise BoxTooLargeError(f"{m} ranks need more than {MAX_BYTES} bytes")
    variant = RankVariant.COLUMN_MAJOR
    # step 1 checked the lists and the grid holds their box: use them unchecked
    if route is Route.EXTREMES:
        if m1 > m2:  # f2: the first column is y, so the lines are the rows
            variant = RankVariant.ROW_MAJOR
            xs, ys, x0, x1, y0, y1 = ys, xs, y0, y1, x0, x1
        # a negative coordinate would index back from a side's end, so
        # only a corner >= 0 may index the table anchored at the origin
        if min(x0, y0) >= 0 and (x1 + 1) * (y1 + 1) <= min(2 * m, MAX_BYTES):
            x0 = y0 = 0
        else:
            xs, ys = map(sub, xs, repeat(x0)), map(sub, ys, repeat(y0))
        width = y1 + 1 - y0
        occ = _mark_grid(zip(xs, ys), x1 + 1 - x0, width)
        del xs, ys  # 16 bytes a point that steps 4 and 5 do not need
        t3 = clock()
        n = occ.count(1)
        cells, iterations = _line_extremes(occ, width)
        del occ
    else:
        width = m2
        distinct = set(map(sub, map(add, map(mul, xs, repeat(width)), ys),
                           repeat(x0 * width + y0)))
        del xs, ys
        t3 = clock()
        cells = sorted(distinct)
        del distinct
        n = iterations = len(cells)
    t4 = clock()
    cycle, evals, ops = _scan(cells, width)
    if variant is RankVariant.ROW_MAJOR:  # swap back, which turns the cycle clockwise
        pairs = ((y0 + a, x0 + line) for line, a in reversed(cycle))
    else:
        pairs = ((x0 + line, y0 + a) for line, a in cycle)
    hull = HullPolygon.of_cycle(list(new_points(pairs)))
    t5 = clock()
    return PipelineReport(
        hull=hull, n=n, m=m, m1=m1, m2=m2, density=n / m, duplicates_skipped=len(points) - n,
        counters=OperationCounters(evals, iterations, ops),
        step_ns=(t1 - t0, 0, t3 - t1, t4 - t3, t5 - t4),
        rank_variant=variant, route=route,
    )


def _mark_grid(pairs: Iterable[tuple[int, int]], lines: int, width: int) -> bytearray:
    """Step 3's byte table of `lines` lines of `width` cells, with a 1 at each (line, along) pair.

    The pair marks cell line * width + along through a 2-D `memoryview` of
    the table, which takes the pair itself as its index, so the marking
    makes no cell int: one `operator.setitem` a pair inside a `map` that
    a zero-length `deque` drains, all in C. A duplicate marks its byte
    again, so the table's count of ones is the number of distinct pairs.
    An index of a side or more raises `IndexError`, but a negative one
    counts back from the side's end and marks a wrong cell, so every pair
    must lie in [0, lines) × [0, width).
    """
    occ = bytearray(lines * width)
    with memoryview(occ) as flat, flat.cast("B", (lines, width)) as grid:
        deque(map(setitem, repeat(grid), pairs, repeat(1)), maxlen=0)
    return occ


def _line_extremes(occ: bytearray, width: int) -> tuple[list[int], int]:
    """Step 4: the 0-based cells of each occupied line's two extreme marks, and the line count.

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


# a `bytes.translate` table that swaps 0 and 1: the cells not strictly left of the chord
_NOT = bytes.maketrans(b"\0\1", b"\1\0")


def _scan(cells: list[int], width: int) -> tuple[list[tuple[int, int]], int, int]:
    """Step 5: the hull of ascending distinct 0-based `cells`, `width` to a line, and its two counts.

    Each cell is a point (line, along) = divmod(cell, width), so ascending
    cells are the points in lexicographic order, and the first and last
    cells are the hull's two extremes in it. One orientation test a cell
    against that chord, in C, splits the cells: those strictly left of it
    go to the upper side, the rest, both ends included, to the lower. One
    monotone pass a side (`_convex_chain`) then keeps its hull chain, the
    lower from the first cell to the last and the upper back. Returns the
    hull's counter-clockwise cycle of (line, along) pairs from its
    lexicographic minimum (one pair for one cell, the two extremes for
    collinear cells), the orientation tests and the stack operations.
    """
    first, last = cells[0], cells[-1]
    if first == last:
        return [divmod(first, width)], 0, 0
    per = repeat(width)
    (l0, a0), (l1, a1) = divmod(first, width), divmod(last, width)
    dl, da = l1 - l0, a1 - a0
    # (l, a) strictly left of the chord: dl*(a - a0) > da*(l - l0). With
    # a = c - l*width that is dl*c - (dl*width + da)*l > dl*a0 - da*l0.
    left = bytes(map(gt, map(sub, map(mul, cells, repeat(dl)),
                              map(mul, map(floordiv, cells, per), repeat(dl * width + da))),
                     repeat(dl * a0 - da * l0)))
    lower = list(compress(cells, left.translate(_NOT)))
    upper = list(compress(cells, left))
    del left  # a byte a cell, freed before the passes
    lo, lo_guarded = _convex_chain(map(divmod, lower, per))
    del lower
    up, up_guarded = _convex_chain(map(divmod, chain((last,), reversed(upper), (first,)), per))
    del upper
    # Each pass places its every point, k + 2 in all with both ends twice,
    # and keeps len(lo) + len(up); its tests are one per point past its
    # first two and one per removal, less the pop loops the guard stopped.
    k = len(cells)
    removed = k + 2 - len(lo) - len(up)
    evals = k + (k - 2) + removed - lo_guarded - up_guarded
    ops = k + 2 + removed
    return lo[:-1] + up[:-1], evals, ops


def _convex_chain(points: Iterator[tuple[int, int]]) -> tuple[list[tuple[int, int]], int]:
    """Andrew's monotone pass over two or more points: their convex chain, turning left.

    Each point pops the stack's top while it is not strictly left of the
    top two, and is then pushed, so collinear points never stay. A pop
    loop is stopped by the guard when one point is left. Returns the
    chain and the number of pop loops the guard stopped.
    """
    stack = [next(points), next(points)]
    pop, push = stack.pop, stack.append
    (px, py), (qx, qy) = stack  # the top two, as coordinate locals
    guarded = 0
    for v in points:
        vx, vy = v
        # "v strictly left of p -> q" is (q - p) x (v - p) > 0, as a comparison of its two products
        while (qx - px) * (vy - py) <= (qy - py) * (vx - px):
            pop()
            qx, qy = px, py
            if len(stack) == 1:
                guarded += 1
                break
            px, py = stack[-2]
        push(v)
        px, py = qx, qy
        qx, qy = vx, vy
    return stack, guarded
