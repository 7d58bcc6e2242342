"""Single-pass deque hull over a simple chain, plus an independent oracle.

`melkman` is the scan the paper names for step 5, kept as the library's
reproduction of it; the tests feed it the chain of `bitrank`'s p-bit
steps. The pipeline's own step 5 (`pipeline._scan`) reads a chain that is
also sorted along its lines, and scans it by a chord split and one
monotone pass a side instead, with fewer tests a point.

The hull is strict: no collinear vertices are retained, so every point
set has exactly one canonical hull cycle (counter-clockwise, starting at
the lexicographically smallest vertex), which `HullPolygon.of_cycle` makes
for `melkman` and the pipeline alike. Inputs with fewer than three
distinct non-collinear points yield degenerate polygons, those of fewer
than three vertices, rather than errors.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice, repeat
from operator import itemgetter, mul, sub
from typing import Iterable

from .geometry import Point, orientation


@dataclass(frozen=True)
class HullPolygon:
    """Hull vertex cycle in CCW order from the lexicographic minimum."""

    vertices: tuple[Point, ...]

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def degenerate(self) -> bool:
        """True for fewer than three vertices: none, one, or a collinear set's two extremes."""
        return len(self.vertices) < 3

    @classmethod
    def of_cycle(cls, cycle: list[Point]) -> HullPolygon:
        """The canonical hull of a counter-clockwise cycle of distinct vertices.

        Fewer than three vertices give the degenerate hull of the distinct
        ones, sorted; any other cycle is rotated to its lexicographic minimum.
        """
        if len(cycle) < 3:
            return cls(tuple(sorted(set(cycle))))
        k = cycle.index(min(cycle))
        return cls(tuple(cycle[k:] + cycle[:k]))


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
    the chain's own objects. The chain must be simple and its points
    distinct (the rank pipeline guarantees both). Fully collinear chains
    and chains of fewer than three points produce degenerate polygons.
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


def hull_oracle(points: Iterable[Point]) -> HullPolygon:
    """Reference hull by sort and monotone chain.

    Deliberately shares no code with the rank path: it sorts with the
    builtin comparison sort and uses its own inline cross products. Output
    follows the same canonical form as :func:`melkman`.
    """
    pts = sorted(set(points))
    if len(pts) < 3:
        return HullPolygon(tuple(pts))
    lower: list[Point] = []
    for px, py in pts:
        while len(lower) >= 2:
            ax, ay = lower[-2]
            bx, by = lower[-1]
            if (bx - ax) * (py - ay) - (by - ay) * (px - ax) > 0:
                break
            lower.pop()
        lower.append(Point(px, py))
    upper: list[Point] = []
    for px, py in reversed(pts):
        while len(upper) >= 2:
            ax, ay = upper[-2]
            bx, by = upper[-1]
            if (bx - ax) * (py - ay) - (by - ay) * (px - ax) > 0:
                break
            upper.pop()
        upper.append(Point(px, py))
    cycle = lower[:-1] + upper[:-1]
    # the cycle starts at lower[0] = pts[0], the lexicographic minimum
    return HullPolygon(tuple(cycle))


def _half_turn(v: tuple[int, int]) -> int:
    # 0 for direction angles in [0, pi), 1 for [pi, 2*pi)
    return 0 if v[1] > 0 or (v[1] == 0 and v[0] > 0) else 1


def is_convex(poly: HullPolygon) -> bool:
    """True iff the cycle is a strictly convex simple polygon.

    Requires every consecutive triple to turn strictly left and the edge
    directions to complete exactly one full revolution, which rules out
    self-winding star polygons that turn left at every vertex. Exact
    integer test throughout. Polygons with fewer than three vertices are
    not convex polygons and return False.
    """
    vs = poly.vertices
    h = len(vs)
    if h < 3:
        return False
    edges = []
    for i in range(h):
        ax, ay = vs[i]
        bx, by = vs[(i + 1) % h]
        if (ax, ay) == (bx, by):
            return False
        edges.append((bx - ax, by - ay))
    for i in range(h):
        (ex, ey), (fx, fy) = edges[i - 1], edges[i]
        if ex * fy - ey * fx <= 0:
            return False
    # Every turn is strictly left, so less than a half turn: the directions
    # pass angle 0 exactly where an edge of half-plane 1 is followed by one
    # of half-plane 0.
    halves = [_half_turn(e) for e in edges]
    return sum(halves[i - 1] > halves[i] for i in range(h)) == 1


def _on_segment(a: Point, b: Point, p: Point) -> bool:
    if (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0]) != 0:
        return False
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def contains_all(poly: HullPolygon, points: Iterable[Point]) -> bool:
    """True iff every point lies inside the polygon or on its boundary.

    For three or more vertices a point passes when it is on or left of
    every directed edge a -> b, that is when ex*py - ey*px >= ex*ay - ey*ax
    with (ex, ey) = b - a. Each edge tests all points at once with C-level
    maps, in exact integers.
    """
    vs = poly.vertices
    h = len(vs)
    pts = list(points)
    if h == 0:
        return not pts
    if h == 1:
        return all(tuple(p) == tuple(vs[0]) for p in pts)
    if h == 2:
        return all(_on_segment(vs[0], vs[1], p) for p in pts)
    if not pts:
        return True
    xs = list(map(itemgetter(0), pts))
    ys = list(map(itemgetter(1), pts))
    for (ax, ay), (bx, by) in zip(vs, vs[1:] + vs[:1]):
        ex, ey = bx - ax, by - ay
        if min(map(sub, map(mul, repeat(ex), ys), map(mul, repeat(ey), xs))) < ex * ay - ey * ax:
            return False
    return True
