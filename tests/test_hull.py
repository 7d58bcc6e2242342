import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from chaincheck import (
    chain_is_simple, contains_all_reference, is_convex_reference, melkman_reference,
)
from rankhull.geometry import Point, bounding_box, coordinates
from rankhull.hull import HullPolygon, contains_all, hull_oracle, is_convex
from rankhull.paper import MelkmanStats, RankFunction, melkman
from rankhull.pipeline import RankVariant

coords = st.integers(min_value=0, max_value=40)
point_lists = st.lists(st.builds(Point, coords, coords), max_size=60)


def _chained(points):
    """Distinct points in column-major chain order."""
    if not points:
        return []
    box = bounding_box(points)
    rf = RankFunction(RankVariant.COLUMN_MAJOR, box.m1, box.m2, box.x_min, box.y_min)
    return rf.unrank_all(sorted({cell + 1 for cell in rf.cells(*coordinates(points))}))


def test_melkman_drops_interior_point():
    chain = [Point(1, 1), Point(1, 3), Point(2, 2), Point(3, 1), Point(3, 3)]
    hull = melkman(chain)
    assert hull.vertices == (Point(1, 1), Point(3, 1), Point(3, 3), Point(1, 3))
    assert not hull.degenerate


def test_melkman_triangle_is_its_own_hull():
    hull = melkman([Point(0, 0), Point(2, 0), Point(1, 2)])
    assert hull.vertices == (Point(0, 0), Point(2, 0), Point(1, 2))
    # clockwise chain comes back in the same canonical CCW cycle
    assert melkman([Point(0, 0), Point(1, 2), Point(2, 0)]).vertices == hull.vertices


def test_melkman_degenerate_inputs():
    assert melkman([]) == HullPolygon(())
    assert melkman([Point(4, 4)]) == HullPolygon((Point(4, 4),))
    assert melkman([Point(4, 4), Point(4, 4)]) == HullPolygon((Point(4, 4),))
    assert melkman([Point(2, 2), Point(0, 0)]) == HullPolygon((Point(0, 0), Point(2, 2)))


def test_melkman_collinear_chain_keeps_extremes():
    chain = [Point(0, 0), Point(1, 1), Point(2, 2), Point(3, 3)]
    hull = melkman(chain)
    assert hull == HullPolygon((Point(0, 0), Point(3, 3)))


def test_melkman_matches_oracle_on_random_grids():
    rng = random.Random(314)
    rf = RankFunction(RankVariant.COLUMN_MAJOR, 64, 64)
    for _ in range(25):
        ranks = rng.sample(range(1, 64 * 64 + 1), 300)
        pts = rf.unrank_all(ranks)
        chain = rf.unrank_all(sorted(ranks))
        assert melkman(chain) == hull_oracle(pts)


def test_melkman_is_idempotent_on_hull_cycles():
    rng = random.Random(42)
    for _ in range(50):
        pts = [Point(rng.randint(0, 60), rng.randint(0, 60)) for _ in range(40)]
        hull = hull_oracle(pts)
        if hull.degenerate:
            continue
        assert melkman(list(hull.vertices)) == hull


def test_melkman_reads_each_point_once_and_bounds_deque_work():
    rng = random.Random(8)
    for _ in range(100):
        n = rng.randint(1, 120)
        chain = _chained(
            [Point(rng.randint(0, 31), rng.randint(0, 31)) for _ in range(n)]
        )
        assert len(chain) >= 1
        stats = MelkmanStats()
        melkman(chain, stats)
        assert stats.deque_ops <= 3 * len(chain) + 4


@given(point_lists)
def test_melkman_agrees_with_oracle(points):
    chain = _chained(points)
    assert melkman(chain) == hull_oracle(points)


@given(point_lists)
def test_melkman_output_is_valid(points):
    chain = _chained(points)
    hull = melkman(chain)
    if len(hull) >= 3:
        assert not hull.degenerate
        assert is_convex(hull)
    assert contains_all(hull, points)
    assert set(hull.vertices) <= set(points)


@st.composite
def rank_chains(draw):
    """f1 or f2 rank chains of up to about 100 points, at boxes within 10^6.

    Some hold a whole first grid line, so they open with a run of collinear
    points.
    """
    variant = draw(st.sampled_from(tuple(RankVariant)))
    m1 = draw(st.integers(1, 24))
    m2 = draw(st.integers(1, 24))
    x0 = draw(st.integers(-10**6, 10**6))
    y0 = draw(st.integers(-10**6, 10**6))
    rf = RankFunction(variant, m1, m2, x0, y0)
    ranks = set(draw(st.lists(st.integers(1, rf.m), max_size=80)))
    if draw(st.booleans()):
        line = m2 if variant is RankVariant.COLUMN_MAJOR else m1
        ranks.update(range(1, line + 1))
    return rf.unrank_all(sorted(ranks))


@st.composite
def hull_cycles(draw):
    """A hull's vertex cycle from any start, in either direction."""
    cycle = list(hull_oracle(draw(point_lists)).vertices)
    k = draw(st.integers(0, max(0, len(cycle) - 1)))
    cycle = cycle[k:] + cycle[:k]
    return cycle[::-1] if draw(st.booleans()) else cycle


@given(st.one_of(rank_chains(), hull_cycles()))
def test_melkman_runs_the_reference_scan(chain):
    got, want = MelkmanStats(), MelkmanStats()
    hull = melkman(chain, got)
    assert hull == melkman_reference(chain, want)
    assert (got.isleft_evals, got.deque_ops) == (want.isleft_evals, want.deque_ops)
    assert all(type(v) is Point for v in hull.vertices)


# Simple chains, each taking one of the scan's rare branches at least once.
# Only the top pop loop's size guard is listed: the bottom loop's can stop
# a scan only after the top loop's did and the point failed the first
# support test, which puts it on or right of every edge of the deque's
# convex polygon, and no point is.
_RARE_BRANCH_CHAINS = {
    # (1, 1) is left of both support edges of the triangle before it
    "skip": [(0, 0), (4, 0), (0, 4), (1, 1)],
    # (4, 4) is left of (0, 4) -> (0, 0) but right of (4, 0) -> (0, 4)
    "second_fails": [(0, 0), (4, 0), (0, 4), (4, 4)],
    # (2, 0) and (3, 0) extend the line through the first two points
    "collinear": [(0, 0), (1, 0), (2, 0), (3, 0), (1, 3)],
    # (4, -1) is right of (2, 0) -> (0, 2) and of (0, 0) -> (2, 0): the top
    # loop pops both, and the deque is down to its two bottom entries
    "guard_top": [(0, 0), (2, 0), (0, 2), (4, -1)],
}


def test_melkman_rare_branches_match_the_reference_scan():
    for branch, pts in _RARE_BRANCH_CHAINS.items():
        chain = [Point(x, y) for x, y in pts]
        assert chain_is_simple(chain), branch
        got, want, events = MelkmanStats(), MelkmanStats(), Counter()
        hull = melkman(chain, got)
        assert hull == melkman_reference(chain, want, events) == hull_oracle(chain), branch
        assert events[branch] >= 1, branch
        assert (got.isleft_evals, got.deque_ops) == (want.isleft_evals, want.deque_ops), branch


def test_melkman_reads_any_iterable_once():
    rng = random.Random(10)
    chains = [
        [], [Point(4, 4)], [Point(2, 2), Point(0, 0)], [Point(k, 2 * k) for k in range(6)],
    ]
    for _ in range(200):
        rf = RankFunction(
            rng.choice(tuple(RankVariant)), rng.randint(1, 24), rng.randint(1, 24),
            rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6),
        )
        ranks = sorted(rng.sample(range(1, rf.m + 1), rng.randint(0, min(rf.m, 80))))
        chains += [rf.unrank_all(ranks), list(rf.offsets(ranks))]
    for chain in chains:
        runs = []
        for feed in (list, iter, lambda c: (v for v in c)):
            stats = MelkmanStats()
            runs.append((melkman(feed(chain), stats), stats))
        assert runs[1] == runs[0] and runs[2] == runs[0]


def test_oracle_square_with_center():
    pts = [Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2), Point(1, 1)]
    hull = hull_oracle(pts)
    assert hull.vertices == (Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2))


def test_oracle_collinear_set():
    hull = hull_oracle([Point(0, 0), Point(2, 2), Point(5, 5), Point(1, 1)])
    assert hull == HullPolygon((Point(0, 0), Point(5, 5)))


def test_oracle_shares_no_helper_with_melkman(monkeypatch):
    def boom(*args):
        raise AssertionError("hull_oracle called a melkman helper")

    monkeypatch.setattr(HullPolygon, "of_cycle", boom)
    cases = [
        ([], ()),
        ([Point(2, 2), Point(2, 2)], (Point(2, 2),)),
        ([Point(3, 1), Point(0, 4)], (Point(0, 4), Point(3, 1))),
        ([Point(2, 2), Point(0, 0), Point(3, 3), Point(1, 1)], (Point(0, 0), Point(3, 3))),
    ]
    for points, vertices in cases:
        assert hull_oracle(points) == HullPolygon(vertices)
    triangle = [Point(4, 4), Point(0, 4), Point(2, 0)]
    assert hull_oracle(triangle) == HullPolygon((Point(0, 4), Point(2, 0), Point(4, 4)))


def test_oracle_output_is_self_consistent():
    rng = random.Random(77)
    for _ in range(50):
        pts = [Point(rng.randint(0, 99), rng.randint(0, 99)) for _ in range(60)]
        hull = hull_oracle(pts)
        assert is_convex(hull)
        assert contains_all(hull, pts)


def test_is_convex_accepts_square():
    square = HullPolygon((Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)))
    assert is_convex(square)


def test_is_convex_rejects_collinear_vertex():
    withmid = HullPolygon(
        (Point(0, 0), Point(1, 0), Point(2, 0), Point(2, 2), Point(0, 2))
    )
    assert not is_convex(withmid)


def test_is_convex_rejects_bowtie():
    bowtie = HullPolygon((Point(0, 0), Point(1, 1), Point(1, 0), Point(0, 1)))
    assert not is_convex(bowtie)


def test_is_convex_rejects_double_winding():
    # pentagram: every turn is left but the directions wind twice
    star = HullPolygon((
        Point(0, 100), Point(-59, -81), Point(95, 31),
        Point(-95, 31), Point(59, -81),
    ))
    assert not is_convex(star)


def test_is_convex_rejects_degenerate():
    assert not is_convex(HullPolygon(()))
    assert not is_convex(HullPolygon((Point(1, 1), Point(2, 2))))


def test_contains_all_boundary_counts():
    square = HullPolygon((Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2)))
    assert contains_all(square, square.vertices)
    assert contains_all(square, [Point(1, 0), Point(1, 1)])
    assert not contains_all(square, [Point(10, 10)])
    assert not contains_all(square, [Point(1, 1), Point(3, 1)])
    assert contains_all(square, [])
    for outside in (Point(1, -1), Point(3, 1), Point(1, 3), Point(-1, 1)):
        assert not contains_all(square, [outside])
        assert not contains_all(square, [Point(1, 1), outside, Point(2, 2)])


def test_contains_all_degenerate_polygons():
    segment = HullPolygon((Point(0, 0), Point(4, 4)))
    assert contains_all(segment, [Point(2, 2), Point(0, 0)])
    assert not contains_all(segment, [Point(2, 3)])
    single = HullPolygon((Point(1, 1),))
    assert contains_all(single, [Point(1, 1)])
    assert not contains_all(single, [Point(1, 2)])
    assert contains_all(HullPolygon(()), [])


@st.composite
def small_polygons(draw):
    # spans this small make repeated and collinear vertices common
    span = draw(st.integers(0, 4))
    c = st.integers(-span, span)
    return HullPolygon(tuple(draw(st.lists(st.builds(Point, c, c), max_size=8))))


@settings(max_examples=500)
@given(small_polygons())
def test_is_convex_matches_the_reference_on_small_polygons(poly):
    assert is_convex(poly) == is_convex_reference(poly)


@settings(max_examples=500)
@given(small_polygons(), st.lists(st.builds(Point, st.integers(-5, 5), st.integers(-5, 5))))
def test_contains_all_matches_the_reference_on_small_polygons(poly, points):
    # any polygon, convex or not, and any points, none included
    assert contains_all(poly, points) == contains_all_reference(poly, points)


@settings(max_examples=200)
@given(point_lists, st.integers(0, 59), st.booleans(), st.booleans())
def test_is_convex_matches_the_reference_on_oracle_hulls(points, start, backward, twice):
    vs = list(hull_oracle(points).vertices)
    k = start % len(vs) if vs else 0
    vs = vs[k:] + vs[:k]
    if backward:
        vs.reverse()
    if twice:
        vs *= 2
    poly = HullPolygon(tuple(vs))
    convex = len(vs) >= 3 and not backward and not twice
    assert is_convex_reference(poly) == convex
    assert is_convex(poly) == convex
