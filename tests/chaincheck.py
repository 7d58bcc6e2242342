"""Reference checks shared by test modules.

`chain_is_simple` is a brute-force chain-simplicity oracle. Exact integer
tests throughout: a chain is simple iff no two non-adjacent segments share
any point (endpoints included) and adjacent segments meet only at their
common endpoint.

`melkman_reference` is the plain deque scan that `rankhull.paper.melkman`
must match test for test: same hull, same counters. `sides_reference` is
the plain chord split and two monotone passes that the pipeline's step 5
(`rankhull.pipeline._scan`) must match the same way.

`is_convex_reference` is the convexity test that `rankhull.hull.is_convex`
must agree with on every polygon.

`contains_all_reference` is the point-in-polygon test, one orientation
call per point and edge, that `rankhull.hull.contains_all` must agree
with on every polygon and point list.

`sorted_ranks_hull` runs the sorted-ranks route through the checked
entry points of `rankhull.paper` (`RankFunction.cells`, `melkman`), under
either rank layout.
"""

from collections import Counter, deque

from rankhull.geometry import Point, bounding_box, coordinates, orientation
from rankhull.hull import HullPolygon, _on_segment
from rankhull.paper import MelkmanStats, RankFunction, melkman


def _orient(ax, ay, bx, by, px, py):
    cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    return (cross > 0) - (cross < 0)


def segments_intersect(a, b, c, d) -> bool:
    """True if the closed segments a-b and c-d share at least one point."""
    d1 = _orient(c[0], c[1], d[0], d[1], a[0], a[1])
    d2 = _orient(c[0], c[1], d[0], d[1], b[0], b[1])
    d3 = _orient(a[0], a[1], b[0], b[1], c[0], c[1])
    d4 = _orient(a[0], a[1], b[0], b[1], d[0], d[1])
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True

    def between(p, q, r):
        return (min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
                and min(p[1], q[1]) <= r[1] <= max(p[1], q[1]))

    if d1 == 0 and between(c, d, a):
        return True
    if d2 == 0 and between(c, d, b):
        return True
    if d3 == 0 and between(a, b, c):
        return True
    if d4 == 0 and between(a, b, d):
        return True
    return False


def chain_is_simple(points) -> bool:
    """O(k^2) pairwise check over the polyline's segments."""
    k = len(points) - 1
    if k < 1:
        return True
    segs = []
    for i in range(k):
        ax, ay = points[i]
        bx, by = points[i + 1]
        segs.append((
            min(ax, bx), max(ax, bx), min(ay, by), max(ay, by), ax, ay, bx, by,
        ))
    # adjacent segments: reject collinear backtracking past the shared point
    for i in range(k - 1):
        ax, ay = points[i]
        bx, by = points[i + 1]
        cx, cy = points[i + 2]
        if ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax) == 0
                and (ax - bx) * (cx - bx) + (ay - by) * (cy - by) > 0):
            return False
    for i in range(k):
        iminx, imaxx, iminy, imaxy, ax, ay, bx, by = segs[i]
        for j in range(i + 2, k):
            s = segs[j]
            if s[0] > imaxx or s[1] < iminx or s[2] > imaxy or s[3] < iminy:
                continue
            if segments_intersect((ax, ay), (bx, by), (s[4], s[5]), (s[6], s[7])):
                return False
    return True


def melkman_reference(chain, stats=None, events=None) -> HullPolygon:
    """Melkman's scan with every support edge read back from the deque.

    Runs the same orientation tests in the same order as
    `rankhull.paper.melkman` and counts them one by one. `events`, a
    `Counter` if given, counts the rare branches the scan took:
    "collinear" prefix points, "skip" of an interior point, "second_fails"
    (a point left of the first support edge but not the second), and
    "guard_top" / "guard_bottom" for a pop loop stopped by the size guard.
    """
    pts = list(chain)
    if stats is None:
        stats = MelkmanStats()
    if events is None:
        events = Counter()
    if len(pts) < 3:
        return HullPolygon.of_cycle(pts)

    it = iter(pts)
    a = next(it)
    b = next(it)
    evals = 0
    turn = 0
    for c in it:
        evals += 1
        turn = orientation(a, b, c)
        if turn != 0:
            break
        events["collinear"] += 1
        b = c
    if turn == 0:
        stats.isleft_evals += evals
        return HullPolygon.of_cycle([a, b])

    dq = deque((c, a, b, c)) if turn > 0 else deque((c, b, a, c))
    placed = 3
    removed = 0
    b0, b1, t1, t0 = dq[0], dq[1], dq[-2], dq[-1]
    for v in it:
        vx, vy = v
        evals += 1
        if (b1[0] - b0[0]) * (vy - b0[1]) - (b1[1] - b0[1]) * (vx - b0[0]) > 0:
            evals += 1
            if (t0[0] - t1[0]) * (vy - t1[1]) - (t0[1] - t1[1]) * (vx - t1[0]) > 0:
                events["skip"] += 1
                continue
            events["second_fails"] += 1
        while len(dq) > 2:
            evals += 1
            p, q = dq[-2], dq[-1]
            if (q[0] - p[0]) * (vy - p[1]) - (q[1] - p[1]) * (vx - p[0]) > 0:
                break
            dq.pop()
            removed += 1
        else:
            events["guard_top"] += 1
        dq.append(v)
        while len(dq) > 2:
            evals += 1
            p, q = dq[0], dq[1]
            if (q[0] - p[0]) * (vy - p[1]) - (q[1] - p[1]) * (vx - p[0]) > 0:
                break
            dq.popleft()
            removed += 1
        else:
            events["guard_bottom"] += 1
        dq.appendleft(v)
        placed += 1
        b0, b1, t1, t0 = dq[0], dq[1], dq[-2], dq[-1]

    stats.isleft_evals += evals
    stats.deque_ops += placed + removed
    cycle = list(dq)
    cycle.pop()
    return HullPolygon.of_cycle(cycle)


def sides_reference(chain, transposed=False, stats=None) -> HullPolygon:
    """The hull of a chain sorted along its lines: a chord split, then a monotone pass a side.

    `chain` holds distinct points in ascending order of (x, y), or of
    (y, x) if `transposed`, as ascending ranks under f1 and f2 give them.
    The scan reads each point as (line, along), tests every point against
    the chord from the first to the last, and keeps the points strictly
    left of it for the upper pass and the rest for the lower. Each test
    and each push or pop is counted in `stats` as it runs.
    """
    pts = [(v[1], v[0]) if transposed else (v[0], v[1]) for v in chain]
    if stats is None:
        stats = MelkmanStats()
    if len(pts) < 2:
        return HullPolygon.of_cycle(list(map(Point._make, chain)))
    first, last = pts[0], pts[-1]
    lower, upper = [], []
    for v in pts:
        stats.isleft_evals += 1
        (upper if _orient(*first, *last, *v) > 0 else lower).append(v)
    cycle = (
        _monotone_reference(lower, stats)[:-1]
        + _monotone_reference([last, *reversed(upper), first], stats)[:-1]
    )
    if transposed:
        cycle = [(a, line) for line, a in reversed(cycle)]
    return HullPolygon.of_cycle(list(map(Point._make, cycle)))


def _monotone_reference(points, stats):
    """Pop the top while the next point is not strictly left of the top two, then push it."""
    stack = []
    for v in points:
        while len(stack) >= 2:
            stats.isleft_evals += 1
            if _orient(*stack[-2], *stack[-1], *v) > 0:
                break
            stack.pop()
            stats.deque_ops += 1
        stack.append(v)
        stats.deque_ops += 1
    return stack


def _half_turn_reference(v) -> int:
    return 0 if v[1] > 0 or (v[1] == 0 and v[0] > 0) else 1


def _angle_precedes_reference(u, w) -> bool:
    hu, hw = _half_turn_reference(u), _half_turn_reference(w)
    if hu != hw:
        return hu < hw
    return u[0] * w[1] - u[1] * w[0] > 0


def is_convex_reference(poly) -> bool:
    """Strict convexity with the winding counted by a full angle comparison.

    Every consecutive triple must turn strictly left, and the edge
    directions must wrap past angle 0 exactly once.
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
    wraps = 0
    for i in range(h):
        e = edges[i]
        f = edges[(i + 1) % h]
        if e[0] * f[1] - e[1] * f[0] <= 0:
            return False
        if _angle_precedes_reference(f, e):
            wraps += 1
    return wraps == 1


def contains_all_reference(poly, points) -> bool:
    """True iff no point is strictly right of any edge of the cycle."""
    vs = poly.vertices
    h = len(vs)
    pts = list(points)
    if h == 0:
        return not pts
    if h == 1:
        return all(tuple(p) == tuple(vs[0]) for p in pts)
    if h == 2:
        return all(_on_segment(vs[0], vs[1], p) for p in pts)
    for p in pts:
        for i in range(h):
            if orientation(vs[i], vs[(i + 1) % h], p) < 0:
                return False
    return True


def sorted_ranks_hull(points, variant) -> HullPolygon:
    """The hull of the points' distinct ranks under `variant`, sorted and scanned."""
    box = bounding_box(points)
    rf = RankFunction(variant, box.m1, box.m2, box.x_min, box.y_min)
    ranks = sorted({cell + 1 for cell in rf.cells(*coordinates(points))})
    return melkman(rf.unrank_all(ranks))
