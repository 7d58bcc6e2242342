"""End-to-end rank-ordered hull: box, then one of two routes.

Step 1 alone reads the caller's points, into lists of xs and ys, and
takes their box. It is also the pipeline's only input check: the grid is
the box of those same lists, so the later steps rank them with an
unchecked body of `RankFunction.cells` and turn ranks back into offsets
with the unchecked `offsets`. A small cost model then picks the route
that finishes the hull (`Route`), and the route and the box pick the
rank layout: byte extremes on a box wider than tall rank row by row
(f2), every other call column by column (f1). Every route scans a chain
of box offsets in ascending rank order with the same deque scan (step 5):

- byte extremes: step 3 marks each point's rank in a table of one byte
  per rank (the paper's base O(n + m) table), with two C calls a point:
  a lookup in a table of each line's base cell plus an add gives the
  cell (`RankFunction._line_cells`), and `operator.setitem` marks it.
  Step 4 reads each occupied line's lowest and highest rank from the
  table, and step 5 scans those, at most two per line. Only a line's two
  extremes can be hull vertices, and the ranked chain cut down to them is
  still simple. Each occupied line costs a Python loop pass, so the lines
  run along the longer side.
- sorted ranks, for boxes too sparse for the table: step 3 ranks the
  points by `_cells`' arithmetic, which needs no table that grows with the
  box, and drops duplicates with a `set`, step 4 sorts the n distinct
  ranks (ints, in C) and step 5 scans them. That is the chain the paper's
  p-bit steps 3–4 (`bitrank.build_rank_table` and `fast_shuffle`) yield,
  got by a comparison sort of ints rather than by a table; those steps
  measured slower than the sort in every cell of the route sweep, so no
  route runs them. The sort keeps f1, whose inverse is one `divmod`.

The paper's translation onto the normalized grid (step 2) is folded into
step 3's rank arithmetic, and step 5 streams each rank back as an offset
pair from the box corner as the scan reads it; orientation tests are
translation-invariant, so the scan decides as it would on the caller's
points. Only the hull's vertices are translated back, by
`RankFunction.to_points`.

The model (`route_estimates`) prices each route's work past step 1
(`route_terms`) with nanoseconds fitted to the sweep in
`docs/route_sweep.csv` (README's "Routes"). The byte table is never built
over its cap of `bitrank.MAX_BYTES` bytes; sorted ranks have no cap.
"""

from __future__ import annotations

import logging
import math
import time
from collections.abc import Collection, Iterator
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from operator import add, mul

from .bitrank import MAX_BYTES, _line_extremes, _mark_bytes
from .errors import BoxTooLargeError, NonIntegerCoordinateError
from .geometry import BoundingBox, Point, coordinates
from .hull import HullPolygon, MelkmanStats, melkman
from .ranking import RankFunction, RankVariant

_log = logging.getLogger(__name__)


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
    byte extremes when m1 > m2, else `COLUMN_MAJOR`.
    `step_ns` holds the elapsed monotonic nanoseconds of the paper's five
    steps (box, translate, rank, shuffle, scan). The translation happens
    inside the rank arithmetic, so its slot is always 0; the scan's slot includes
    turning ranks into box offsets and the hull's vertices back into the
    caller's points. On the byte-extremes route step 3 is the marking,
    step 4 the pass over the lines, and `shuffle_iterations` counts the
    occupied lines that pass read. On the sorted-ranks route step 3 is
    the ranking and the `set` that drops duplicates, step 4 the sort, and
    `shuffle_iterations` is n, the ranks sorted.
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


@dataclass
class _Chain:
    """Step 5's one-pass offsets, sized for tracers of `melkman` such as `hull.chain_len`."""

    offsets: Iterator[tuple[int, int]]
    n: int

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return self.offsets

    def __len__(self) -> int:
        return self.n


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


def _over_cap(route: Route, m: int) -> bool:
    """Whether `route` needs a table of `m` ranks over its cap: only byte extremes have one."""
    return route is Route.EXTREMES and m > MAX_BYTES


def route_estimates(count: int, m: int, lines: int) -> tuple[float, ...]:
    """Estimated nanoseconds of each of `ROUTES` past step 1, by `ROUTE_COSTS`.

    The arguments are `route_terms`'. A route whose table would be over
    its cap reads `math.inf`.
    """
    c = ROUTE_COSTS
    return tuple(
        math.inf if _over_cap(route, m) else sum(map(mul, costs, terms))
        for route, costs, terms in zip(ROUTES, (c.extremes, c.sort), route_terms(count, m, lines))
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
    ranks to scan in ascending order: read from the table, or sorted. Step
    5 streams them, a simple chain of box offsets, into the deque scan.
    `points` must be a sized collection, such as a list, tuple or set: step
    1 iterates over it twice, and no other step reads it.
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
    hull = HullPolygon((), degenerate=True)
    n = m1 = m2 = 0
    variant = RankVariant.COLUMN_MAJOR
    counters = OperationCounters(0, 0, 0)
    step_ns = (0, 0, 0, 0, 0)
    if not points:
        if route is None:
            route = choose_route(0, 0, 0)
    else:
        clock = time.perf_counter_ns
        t0 = clock()
        xs, ys = coordinates(points)
        box = BoundingBox.of(xs, ys)
        t1 = clock()
        m1, m2 = box.m1, box.m2
        if route is None:
            route = choose_route(len(xs), box.m, min(m1, m2))
        elif _over_cap(route, box.m):
            raise BoxTooLargeError(f"{box.m} ranks need more than {MAX_BYTES} bytes")
        if route is Route.EXTREMES and m1 > m2:
            variant = RankVariant.ROW_MAJOR
        rf = RankFunction(variant, m1, m2, box.x_min, box.y_min)
        # step 1 checked the lists and this grid is their box: rank them unchecked
        if route is Route.EXTREMES:
            occ = _mark_bytes(rf._line_cells(xs, ys), box.m)
            del xs, ys  # 16 bytes a point that steps 4 and 5 do not need
            t3 = clock()
            n = occ.count(1)
            ranks, iterations = _line_extremes(occ, rf.line_length)
            del occ
        else:
            distinct = set(map(add, rf._cells(xs, ys), repeat(1)))
            del xs, ys
            t3 = clock()
            ranks = sorted(distinct)
            del distinct
            n = iterations = len(ranks)
        t4 = clock()
        stats = MelkmanStats()
        # step 4's ranks are ints in [1, m] by construction
        scanned = melkman(_Chain(rf._offsets(ranks), len(ranks)), stats)
        # translation keeps the lexicographic order, so the cycle stays canonical
        hull = HullPolygon(tuple(rf.to_points(scanned.vertices)), scanned.degenerate)
        t5 = clock()
        counters = OperationCounters(stats.isleft_evals, iterations, stats.deque_ops)
        step_ns = (t1 - t0, 0, t3 - t1, t4 - t3, t5 - t4)

    m = m1 * m2
    return PipelineReport(
        hull=hull, n=n, m=m, m1=m1, m2=m2,
        density=n / m if m else 0.0,
        duplicates_skipped=len(points) - n,
        counters=counters, step_ns=step_ns,
        rank_variant=variant, route=route,
    )
