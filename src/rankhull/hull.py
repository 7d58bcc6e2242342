"""The hull polygon, an independent sort-based oracle, and checks of a polygon.

The hull is strict: no collinear vertices are retained, so every point
set has exactly one canonical hull cycle (counter-clockwise, starting at
the lexicographically smallest vertex), which `HullPolygon.of_cycle` makes
for the pipeline and for `paper.melkman` alike. Inputs with fewer than
three distinct non-collinear points yield degenerate polygons, those of
fewer than three vertices, rather than errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter, mul, sub
from typing import Iterable

from .geometry import Point


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


def hull_oracle(points: Iterable[Point]) -> HullPolygon:
    """Reference hull by sort and monotone chain.

    Deliberately shares no code with the rank path: it sorts with the
    builtin comparison sort and uses its own inline cross products. Output
    follows the same canonical form as `HullPolygon.of_cycle` gives the
    pipeline's hulls, without calling it.
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
