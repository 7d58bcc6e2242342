import ast
import gc
import importlib
import inspect
import logging
import math
import random
import re
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankhull import pipeline as pipeline_module
from chaincheck import chain_is_simple, sides_reference, sorted_ranks_hull
from rankhull.errors import BoxTooLargeError, NonIntegerCoordinateError
from rankhull.geometry import Point, bounding_box, coordinates
from rankhull.hull import HullPolygon, contains_all, hull_oracle, is_convex
from rankhull.paper import (
    MelkmanStats, RankFunction, build_rank_table, density_threshold_refined,
    density_threshold_simple, fast_shuffle, melkman, paper_steps, shuffle_naive, table_over_cap,
)
from rankhull.pipeline import (
    MAX_BYTES,
    OperationCounters,
    RankVariant,
    Route,
    _hull,
    _line_extremes,
    _mark_grid,
    choose_route,
    convex_hull_ranked,
    route_estimates,
    route_terms,
)
from rankhull.pointio import generate_dense_set

BLOCK_WIDTHS = (8, 16, 32, 64)
F1, F2 = RankVariant.COLUMN_MAJOR, RankVariant.ROW_MAJOR

coords = st.integers(min_value=-50, max_value=50)
point_lists = st.lists(st.builds(Point, coords, coords), max_size=50)


def test_triangle_report():
    report = convex_hull_ranked([Point(5, 7), Point(9, 7), Point(7, 9)])
    assert set(report.hull.vertices) == {Point(5, 7), Point(9, 7), Point(7, 9)}
    assert (report.n, report.m, report.m1, report.m2) == (3, 15, 5, 3)
    assert report.density == 0.2
    # three points: sorting their ranks is the cheapest route
    assert report.route is Route.SORT


def test_generated_low_density_set_matches_oracle():
    pts = generate_dense_set(640, 480, density=0.03, seed=1)
    report = convex_hull_ranked(pts)
    assert report.hull == hull_oracle(pts)
    assert report.n == 9216


def test_repeated_point_collapses_to_degenerate_hull():
    report = convex_hull_ranked([Point(3, 4)] * 10)
    assert report.hull.vertices == (Point(3, 4),)
    assert report.hull.degenerate
    assert report.duplicates_skipped == 9
    assert report.n == 1
    assert report.density == 1.0


def test_empty_input_yields_empty_degenerate_report():
    report = convex_hull_ranked([])
    assert report.hull.vertices == ()
    assert report.hull.degenerate
    assert report.n == 0
    # no route runs: the report names the router's, or the one asked for
    assert report.route is choose_route(0, 0, 0)
    assert _hull([], Route.SORT).route is Route.SORT


def test_box_past_the_bit_table_cap_takes_sorted_ranks():
    # 40001^2 cells is over 2^30: more than 2^24 words even at p = 64
    pts = [Point(0, 0), Point(40000, 1), Point(20000, 40000), Point(17, 33)] * 2
    report = convex_hull_ranked(pts)
    assert report.used_fallback and report.route is Route.SORT
    assert report.hull == hull_oracle(pts)
    assert report.counters.shuffle_iterations == report.n
    assert (report.n, report.duplicates_skipped, report.m) == (4, 4, 40001 * 40001)


_CAP_BOX = [
    Point(0, 0), Point(11586, 0), Point(11586, 11586), Point(0, 11586), Point(5, 9)
]


def test_cap_counts_words_not_cells():
    # 11587^2 cells need 2^24 + 5,106 words at p = 8: over the cap, refused
    # before a table is made; the pipeline sorts the ranks, in under 1 MiB
    with pytest.raises(BoxTooLargeError, match="words"):
        paper_steps(_CAP_BOX, 8)
    tracemalloc.start()
    try:
        report = convex_hull_ranked(_CAP_BOX)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.used_fallback
    assert report.hull == hull_oracle(_CAP_BOX)
    assert peak < 2**20


def test_cap_box_fits_the_bit_table_at_p64():
    hull, table, shuffled, _, _ = paper_steps(_CAP_BOX, 64)
    assert hull == hull_oracle(_CAP_BOX)
    assert shuffled.iterations == -(-11587**2 // 64) + 5 == table.r + table.n


def test_only_the_private_entry_takes_a_route():
    # the cost model picks the route and the route and the box the rank
    # layout, so the library's entry takes the points alone; only the
    # private entry, for the tests and the sweep, takes a route
    assert list(inspect.signature(convex_hull_ranked).parameters) == ["points"]
    for route in ("auto", "extremes", "rank", 1, RankVariant.COLUMN_MAJOR):
        with pytest.raises(ValueError, match="route"):
            _hull([(0, 0), (3, 0), (0, 3)], route)


def test_fast_shuffle_counter_is_buckets_plus_points():
    rng = random.Random(21)
    for p in BLOCK_WIDTHS:
        pts = [Point(rng.randint(0, 199), rng.randint(0, 149)) for _ in range(500)]
        hull, table, shuffled, _, _ = paper_steps(pts, p)
        buckets = -(-table.m // p)
        assert shuffled.iterations == buckets + table.n
        assert hull == convex_hull_ranked(pts).hull


def test_naive_and_fast_variants_agree():
    # the pipeline's hull is also the scan of the naive shuffle's chain
    rng = random.Random(3)
    pts = [Point(rng.randint(0, 99), rng.randint(0, 99)) for _ in range(400)]
    box = bounding_box(pts)
    rf = RankFunction(RankVariant.COLUMN_MAJOR, box.m1, box.m2, box.x_min, box.y_min)
    xs, ys = coordinates(pts)
    naive = shuffle_naive(build_rank_table(rf.cells(xs, ys), rf.m, 64))
    assert melkman(rf.unrank_all(naive.order)) == convex_hull_ranked(pts).hull
    assert naive.iterations <= box.m


def test_row_major_variant_matches_oracle():
    # a box wider than tall: byte extremes rank it row by row
    rng = random.Random(13)
    pts = [Point(rng.randint(-40, 160), rng.randint(-10, 90)) for _ in range(300)]
    report = convex_hull_ranked(pts)
    assert (report.route, report.rank_variant) == (Route.EXTREMES, F2)
    assert report.hull == hull_oracle(pts)


def test_hull_vertices_come_from_the_input():
    rng = random.Random(5)
    pts = [Point(rng.randint(-500, 500), rng.randint(-500, 500)) for _ in range(200)]
    report = convex_hull_ranked(pts)
    assert set(report.hull.vertices) <= set(pts)
    assert is_convex(report.hull)
    assert contains_all(report.hull, pts)


def test_counters_scale_linearly_at_fixed_density():
    # doubling n at constant density doubles the box and every counter of
    # the paper's steps at p = 32: the scan's, and the word walk's r + n
    small = paper_steps(generate_dense_set(320, 240, count=3840, seed=2), 32)
    big = paper_steps(generate_dense_set(320, 480, count=7680, seed=3), 32)
    for name, count in (
        ("isleft_evals", lambda steps: steps.stats.isleft_evals),
        ("shuffle_iterations", lambda steps: steps.shuffled.iterations),
        ("deque_ops", lambda steps: steps.stats.deque_ops),
    ):
        assert 1.9 <= count(big) / count(small) <= 2.1, name


@pytest.mark.parametrize("variant, expected", [
    (RankVariant.COLUMN_MAJOR, (86729, 19980, 51731, 10)),
    (RankVariant.ROW_MAJOR, (86558, 19980, 51692, 10)),
])
def test_dense_counters_are_pinned(variant, expected):
    # exact counts, so a rewrite of any step must keep its every decision:
    # the scan's on sorted ranks, and the word walk's at p = 64
    pts = generate_dense_set(480, 360, count=17280, seed=7)
    _check_pinned_counters(pts, variant, expected)


def _check_pinned_counters(pts, variant, expected):
    hull, _, shuffled, stats, _ = paper_steps(pts, 64, variant)
    assert (stats.isleft_evals, shuffled.iterations, stats.deque_ops, len(hull)) == expected
    # the pipeline scans the same ranks, sorted: it makes the reference
    # scan's every decision on them
    report = _hull(pts, Route.SORT)
    assert report.hull == hull
    box = bounding_box(pts)
    rf = RankFunction(report.rank_variant, box.m1, box.m2, box.x_min, box.y_min)
    ranks = sorted({cell + 1 for cell in rf.cells(*coordinates(pts))})
    ref = MelkmanStats()
    assert report.hull == sides_reference(rf.unrank_all(ranks), rf.variant is F2, ref)
    c = report.counters
    assert (c.isleft_evals, c.deque_ops) == (ref.isleft_evals, ref.deque_ops)


@pytest.mark.parametrize("variant, expected", [
    (RankVariant.COLUMN_MAJOR, (5449, 66081, 3053, 16)),
    (RankVariant.ROW_MAJOR, (5507, 66081, 3053, 16)),
])
def test_sparse_counters_are_pinned(variant, expected):
    # m/p is about 64n, so almost every word the walk tests is zero
    pts = generate_dense_set(2048, 2048, count=1024, seed=7)
    _check_pinned_counters(pts, variant, expected)


def _corners(side):
    """A corner coordinate within 10^6, at ±2^70, or in [0, 2·side].

    Near the origin the byte route can index a table anchored there by the
    points' own coordinates; elsewhere it indexes the box's own grid by
    the points' offsets from its corner.
    """
    return st.one_of(
        st.integers(-10**6, 10**6), st.sampled_from((2**70, -(2**70))), st.integers(0, 2 * side)
    )


@st.composite
def offset_point_lists(draw):
    """1 to 60 points in a box of sides up to 40, with repeats, at one of `_corners`."""
    w, h = draw(st.integers(0, 40)), draw(st.integers(0, 40))
    x0, y0 = draw(_corners(w)), draw(_corners(h))
    pts = draw(st.lists(st.builds(Point, st.integers(0, w), st.integers(0, h)),
                        min_size=1, max_size=50))
    pts += draw(st.lists(st.sampled_from(pts), max_size=10))
    return [Point(x + x0, y + y0) for x, y in draw(st.permutations(pts))]


@settings(max_examples=150)
@given(offset_point_lists(), st.sampled_from(BLOCK_WIDTHS))
def test_the_pipeline_matches_its_steps_through_the_checked_entry_points(pts, p):
    # the pipeline skips the checks of cells and offsets; its sorted ranks
    # rebuilt here as the paper's steps under the layout it reports, with
    # every check on and the plain reference scan, nothing may change but
    # step 4's count
    report = _hull(pts, Route.SORT)
    box = bounding_box(pts)
    rf = RankFunction(report.rank_variant, box.m1, box.m2, box.x_min, box.y_min)
    xs, ys = coordinates(pts)
    table = build_rank_table(rf.cells(xs, ys), rf.m, p)
    shuffled = fast_shuffle(table)
    stats = MelkmanStats()
    hull = sides_reference(rf.unrank_all(shuffled.order), rf.variant is F2, stats)
    assert report.hull == hull
    assert (report.n, report.duplicates_skipped) == (table.n, table.duplicates_skipped)
    assert report.counters == OperationCounters(stats.isleft_evals, table.n, stats.deque_ops)


@settings(max_examples=60)
@given(point_lists)
def test_pipeline_equals_oracle(points):
    assert convex_hull_ranked(points).hull == hull_oracle(points)


@settings(max_examples=60)
@given(
    point_lists,
    st.integers(-10**12, 10**12),
    st.integers(-10**12, 10**12),
)
def test_offset_coordinates_match_oracle(points, dx, dy):
    shifted = [Point(x + dx, y + dy) for x, y in points]
    report = convex_hull_ranked(shifted)
    assert report.hull == hull_oracle(shifted)


def test_sparse_box_memory_is_bit_table_sized():
    # 4001 x 4001 cells: the bit table is 2 MB; one slot per cell would be 128 MB
    pts = [Point(0, 0), Point(4000, 0), Point(4000, 4000), Point(0, 4000), Point(7, 9)]
    tracemalloc.start()
    try:
        hull, table, _, _, _ = paper_steps(pts, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.m == 4001 * 4001
    assert hull == hull_oracle(pts)
    assert peak < 4 * 2**20


@pytest.mark.parametrize("variant", tuple(RankVariant))
@pytest.mark.parametrize("p", [8, 64])
def test_dense_memory_holds_no_per_point_temporaries(p, variant):
    # 17,280 points: a list of one tuple per point, or one iterator per
    # point, costs over 1 MiB. The whole pipeline call stays under it, on
    # the 480x360 box (byte extremes by rows, f2) and its transpose (by
    # columns, f1), and so do the paper's steps in that layout from step 1
    # on at block width p, which hold the rank order and the bit table but
    # no list of the checked cells
    pts = generate_dense_set(480, 360, count=17280, seed=7)
    if variant is F1:
        pts = _transposed(pts)
    report, peak = _peak(lambda: convex_hull_ranked(pts))
    assert not report.used_fallback and report.n == 17280
    assert report.rank_variant is variant
    assert peak < 2**20
    steps, steps_peak = _peak(lambda: paper_steps(pts, p, variant))
    assert steps.hull == report.hull and steps.table.n == 17280
    assert steps_peak < 2**20


def _transposed(pts):
    return [Point(y, x) for x, y in pts]


def _peak(call):
    """The call's result and its tracemalloc peak in bytes, collector off."""
    gc.disable()
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()


def test_step_1_holds_only_its_two_coordinate_lists():
    # two lists of n pointers, with their growth slack: about 18 bytes a
    # point; a flat list of all 2n coordinates beside them would be 32
    pts = generate_dense_set(480, 360, count=17280, seed=7)
    (xs, ys), peak = _peak(lambda: coordinates(pts))
    assert (xs, ys) == ([x for x, _ in pts], [y for _, y in pts])
    assert peak < 20 * len(pts)


def test_over_cap_memory_is_the_oracles_on_the_distinct_points():
    # sorted ranks hold step 1's coordinate lists (16 bytes a point, about
    # 0.26 MiB here) until the ranks' set is built, then the set and its
    # sorted list: one int a distinct point, where the oracle holds a Point
    rng = random.Random(5)
    pts = [Point(rng.randrange(60000), rng.randrange(60000)) for _ in range(17280)]
    report, peak = _peak(lambda: convex_hull_ranked(pts))
    hull, oracle_peak = _peak(lambda: hull_oracle(set(map(Point._make, pts))))
    assert report.used_fallback and report.hull == hull
    assert peak < oracle_peak + 2**20 // 10


def test_non_integer_coordinates_raise_a_library_error():
    for bad in (Point(0.5, 0), Point(0, 2.0), Point(True, 0), Point(1, False)):
        with pytest.raises(NonIntegerCoordinateError):
            convex_hull_ranked([Point(0, 0), bad, Point(3, 3)])
        with pytest.raises(NonIntegerCoordinateError, match=re.escape(f"point {tuple(bad)!r}")):
            bounding_box([Point(0, 0), bad, Point(3, 3)])
    # step 1 reads each pair by its [0] and [1]: a set has neither, and a
    # dict without the keys 0 and 1 raises KeyError, both refused as pairs
    for bad in ({1, 2.5}, {1: 2, 3.5: 4}):
        with pytest.raises(NonIntegerCoordinateError):
            convex_hull_ranked([Point(0, 0), bad, Point(3, 3)])


@pytest.mark.parametrize("variant", tuple(RankVariant))
@pytest.mark.parametrize("points", [[(1, 2, 3)], [(1,)], [None], [(1, 2), (3, 4, 5)]])
def test_points_that_are_not_pairs_raise_a_library_error(points, variant):
    with pytest.raises(NonIntegerCoordinateError):
        convex_hull_ranked(points)
    # step 1's rule holds before any layout: each one's checked rank path refuses the point
    with pytest.raises(NonIntegerCoordinateError):
        RankFunction(variant, 8, 8).cells(*coordinates(points[-1:]))
    with pytest.raises(NonIntegerCoordinateError, match="pair"):
        bounding_box(points)


class _CountingList(list):
    """A list that counts the times it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


@pytest.mark.parametrize("pts", [
    [(0, 0), (4, 4), (0, 4), (0, 4), (2, 1)],              # every route
    [(0, 0), (40000, 40000), (0, 40000), (0, 40000)],      # over the byte cap
])
def test_only_step_1_reads_the_points(pts):
    for route in (None, *Route):
        boxed, hulled = _CountingList(pts), _CountingList(pts)
        bounding_box(boxed)
        try:
            report = _hull(hulled, route)
        except BoxTooLargeError:  # the table route named past the router, over its cap
            assert route is Route.EXTREMES and hulled.iterations == 3
            continue
        assert report.hull == hull_oracle(pts)
        assert hulled.iterations == boxed.iterations == 3


def test_the_scanned_chain_has_the_length_of_its_distinct_points(monkeypatch):
    # step 5 reads each distinct point once, on one side of the chord from
    # the first to the last, and both sides' passes read those two ends
    sides = []
    real = pipeline_module._convex_chain

    def counted(points):
        sides.append(list(points))
        return real(iter(sides[-1]))

    monkeypatch.setattr(pipeline_module, "_convex_chain", counted)
    pts = [(0, 0), (4, 4), (0, 4), (0, 4), (2, 1), (3, 1)]
    report = _hull(pts, Route.SORT)
    assert report.hull == hull_oracle(pts)
    # the lower side from (0, 0) to (4, 4), then the upper side back
    assert sides == [[(0, 0), (2, 1), (3, 1), (4, 4)], [(4, 4), (0, 4), (0, 0)]]
    assert sum(map(len, sides)) == report.n + 2 == 7


_PTS = [Point(0, 0), Point(3, 0), Point(0, 3)]


# each iterator is used by one run only: a spent one would fail differently
@pytest.mark.parametrize("points", [iter(_PTS), (v for v in _PTS), None])
def test_points_that_are_not_a_collection_raise_a_library_error(points):
    with pytest.raises(NonIntegerCoordinateError, match="collection"):
        convex_hull_ranked(points)


def test_lists_tuples_and_sets_are_collections():
    expected = hull_oracle(_PTS)
    for points in (list(_PTS), tuple(_PTS), set(_PTS)):
        assert convex_hull_ranked(points).hull == expected


@pytest.mark.parametrize("pts", [
    [(0, 0), (4, 4), (0, 4), (0, 4)],                       # every route
    [(0, 0), (40000, 40000), (0, 40000), (0, 40000)],       # over the byte cap
    [(0, 0), (40000, 40000), (40000, 40000)],               # degenerate, over the byte cap
])
def test_list_and_tuple_points_give_the_same_report_on_both_routes(pts):
    over_caps = max(map(max, pts)) >= 40000
    for route in (None, Route.SORT) if over_caps else (None, *Route):
        as_tuples = _hull(pts, route)
        as_lists = _hull([list(v) for v in pts], route)
        # four points, or a box over the byte cap: the cost model picks sorted ranks
        assert as_tuples.route is (route or Route.SORT)
        # everything but the wall-clock step times
        assert replace(as_lists, step_ns=()) == replace(as_tuples, step_ns=())
        assert all(type(v) is Point for v in as_lists.hull.vertices)


_REPORT_FIELDS = [
    "hull", "n", "m", "m1", "m2", "density", "duplicates_skipped", "counters",
    "step_ns", "rank_variant", "route",
]


@pytest.mark.parametrize("pts, n", [
    ([], 0),
    ([(0, 0), (4, 4), (0, 4), (0, 4), (2, 1), (4, 4)], 4),    # a small box
    ([(0, 0), (40000, 40000), (0, 40000), (0, 40000)], 3),    # over the cap
    ([[0, 0], [40000, 40000], [0, 40000], [0, 40000]], 3),    # over the cap, lists
])
def test_report_derives_m_density_and_duplicates_from_n_and_the_box(pts, n):
    report = convex_hull_ranked(pts)
    assert [f.name for f in fields(report)] == _REPORT_FIELDS
    assert report.n == n
    # the route the cost model picks for the input's count and box
    lines = min(report.m1, report.m2)
    assert report.route is choose_route(len(pts), report.m, lines)
    assert report.used_fallback == (report.route is Route.SORT)
    assert report.m == report.m1 * report.m2
    assert report.density == (n / report.m if report.m else 0.0)
    assert report.duplicates_skipped == len(pts) - n


def test_simple_threshold_is_reciprocal_block_width():
    assert density_threshold_simple(32) == Fraction(1, 32)
    assert density_threshold_simple(64) == Fraction(1, 64)
    assert density_threshold_simple(1) == 1


def test_refined_threshold_formula():
    assert density_threshold_refined(32) == Fraction(1, 141377)
    assert density_threshold_refined(1) == Fraction(1, 17)
    assert abs(float(density_threshold_refined(64)) - 9.18e-7) < 1e-9


def test_refined_threshold_is_below_simple():
    for p in range(2, 129):
        assert density_threshold_refined(p) < density_threshold_simple(p)


def test_thresholds_reject_nonpositive_width():
    with pytest.raises(ValueError):
        density_threshold_simple(0)
    with pytest.raises(ValueError):
        density_threshold_refined(-1)
    # the block-width rule of build_rank_table: a positive int, not a bool
    for threshold in (density_threshold_simple, density_threshold_refined):
        for p in (2.5, "8", True):
            with pytest.raises(ValueError, match="block width"):
                threshold(p)


# --- the byte-extremes route and the router --------------------------------

@st.composite
def one_point_lines(draw):
    """1 to 30 points at one of `_corners`, no two on one column (or, swapped, one row).

    Most lines then hold a single point, the case where going up one side
    of the box and back down the other would not be a simple chain.
    """
    side = draw(st.integers(0, 40))
    x0, y0 = draw(_corners(side)), draw(_corners(side))
    xs = draw(st.lists(st.integers(0, side), min_size=1, max_size=30, unique=True))
    pts = [(x, draw(st.integers(0, side))) for x in xs]
    if draw(st.booleans()):
        pts = [(y, x) for x, y in pts]
    pts += draw(st.lists(st.sampled_from(pts), max_size=5))
    return [Point(x + x0, y + y0) for x, y in pts]


def _scan_of(pts, route):
    """One call's report on `route` (None: the router's) and the chain of box offsets its scan read.

    The scan reads (line, along) = divmod(cell, width) on its grid, which
    is (dy, dx) under f2, from the grid's corner: the box's, or the origin.
    The chain holds the points of the box's lowest x and lowest y, so
    taking its least coordinates off gives the offsets from the box's
    corner. The scan must be `sides_reference`'s on that chain, test for
    test: the same hull and the same counters.
    """
    scans = []
    real = pipeline_module._scan

    def recording(cells, width):
        scans.append([divmod(cell, width) for cell in cells])
        return real(cells, width)

    with patch.object(pipeline_module, "_scan", recording):
        report = _hull(pts, route)
    (pairs,) = scans
    flip = report.rank_variant is F2
    if flip:
        pairs = [(a, line) for line, a in pairs]
    dx0, dy0 = min(v[0] for v in pairs), min(v[1] for v in pairs)
    chain = [(dx - dx0, dy - dy0) for dx, dy in pairs]
    box = bounding_box(pts)
    stats = MelkmanStats()
    points = [Point(box.x_min + dx, box.y_min + dy) for dx, dy in chain]
    assert report.hull == sides_reference(points, flip, stats)
    c = report.counters
    assert (c.isleft_evals, c.deque_ops) == (stats.isleft_evals, stats.deque_ops)
    return report, chain


_STRIP = generate_dense_set(4000, 40, count=16000, seed=5)


@settings(max_examples=300)
@given(st.one_of(offset_point_lists(), one_point_lines()))
@example([Point(x - 7, y + 2**70) for x, y in _STRIP[:4000] * 2])  # a 4000x40 strip, twice
@example([Point(y - 2**70, -x) for x, y in _STRIP[:4000] + _STRIP[:99]])  # 40x4000
@example([Point(x, -3) for x in range(-60, 60, 7)] * 2)  # one line
@example([Point(5, y) for y in range(-60, 60, 7)] * 2)  # one cell wide
def test_the_byte_route_scans_a_simple_chain_of_line_extremes(pts):
    report, chain = _scan_of(pts, Route.EXTREMES)
    assert report.route is Route.EXTREMES
    assert report.hull == hull_oracle(pts)
    # a copy moved to a far x and a negative y corner marks the box's own
    # grid by offsets, not a table anchored at the origin: every field but
    # the moved hull and the step times is the same
    moved = _hull([Point(x + 2**40, y - 2**40) for x, y in pts], Route.EXTREMES)
    back = tuple(Point(x - 2**40, y + 2**40) for x, y in moved.hull.vertices)
    assert replace(moved.hull, vertices=back) == report.hull
    assert replace(report, step_ns=()) == replace(moved, hull=report.hull, step_ns=())
    distinct = set(map(tuple, pts))
    assert (report.n, report.duplicates_skipped) == (len(distinct), len(pts) - len(distinct))
    # shuffle_iterations counts the occupied lines, which run along the
    # longer side: rows (f2) of a box wider than tall, columns (f1) otherwise
    wide = report.m1 > report.m2
    assert report.rank_variant is (F2 if wide else F1)
    lines = {v[1] if wide else v[0] for v in distinct}
    assert report.counters.shuffle_iterations == len(lines) <= min(report.m1, report.m2)
    assert chain_is_simple(chain)
    assert len(chain) <= 2 * len(lines)
    assert report.counters.deque_ops <= 2 * len(chain)
    assert report.counters.isleft_evals <= 3 * len(chain)


def test_the_byte_route_scans_each_lines_two_extremes():
    # columns 0 and 4 hold three points each, column 2 one and column 3 two
    pts = [(0, 0), (0, 2), (0, 4), (2, 1), (3, 1), (3, 3), (4, 0), (4, 4), (4, 2), (4, 2)]
    report, chain = _scan_of(pts, Route.EXTREMES)
    assert chain == [(0, 0), (0, 4), (2, 1), (3, 1), (3, 3), (4, 0), (4, 4)]
    assert report.hull == hull_oracle(pts)
    assert (report.n, report.duplicates_skipped, report.counters.shuffle_iterations) == (9, 1, 4)


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("corner, width, cap, anchored", [
    ((0, 0), 3, MAX_BYTES, True),      # the anchored table is the box's own
    ((3, 0), 3, MAX_BYTES, True),      # 6x5 anchored bytes for 3x5 cells: 2·m
    ((4, 0), 3, MAX_BYTES, False),     # 7x5 for 3x5: over 2·m
    ((0, -1), 3, MAX_BYTES, False),    # a negative index would count back from a line's end
    ((2**40, 0), 3, MAX_BYTES, False),  # far from the origin
    ((1, 0), 4, 25, True),             # 5x5 for 4x5 cells, within the cap
    ((1, 0), 4, 24, False),            # the same, over a cap of 24 bytes
])
def test_the_byte_route_indexes_in_place_only_at_a_corner_near_the_origin(
    corner, width, cap, anchored, transpose
):
    # a width x 5 box (5 x width transposed, read by rows) at `corner`
    x0, y0 = corner
    offsets = [(0, 0), (width - 1, 4), (1, 2), (0, 4), (width - 1, 1), (1, 2)]
    pts = [Point(x0 + dx, y0 + dy) for dx, dy in offsets]
    if transpose:
        pts = [Point(y, x) for x, y in pts]
    grid = patch.object(pipeline_module, "_mark_grid", wraps=pipeline_module._mark_grid)
    scan = patch.object(pipeline_module, "_scan", wraps=pipeline_module._scan)
    with patch.object(pipeline_module, "MAX_BYTES", cap), grid as marked, scan as scanned:
        report = _hull(pts, Route.EXTREMES)
    # one grid of (lines, width): the origin's up to (x_max, y_max), or the
    # box's own; the transpose swaps its columns and reads the same grid by
    # rows, and the scan reads that grid's lines
    marked.assert_called_once()
    assert marked.call_args.args[1:] == ((x0 + width, y0 + 5) if anchored else (width, 5))
    assert scanned.call_args.args[1] == marked.call_args.args[2]
    assert report.rank_variant is (F2 if transpose else F1)
    assert (report.m, report.n, report.duplicates_skipped) == (5 * width, 5, 1)
    assert report.hull == hull_oracle(pts)


def test_byte_table_marks_each_cell_once_and_reads_line_extremes_in_rank_order():
    # 3 lines of 4 cells: line 0 holds cells 1 and 3, line 1 none, line 2 cell 8 twice
    occ = _mark_grid(iter([(0, 3), (0, 1), (2, 0), (2, 0)]), 3, 4)
    assert occ == bytearray([0, 1, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0])
    assert occ.count(1) == 3
    assert _line_extremes(occ, 4) == ([1, 3, 8], 2)
    for past in ((3, 0), (0, 4)):
        with pytest.raises(IndexError):
            _mark_grid(iter([(0, 1), past]), 3, 4)
    # a full line gives its two ends; an empty table nothing
    assert _line_extremes(bytearray([1, 1, 1, 1, 0, 0]), 2) == ([0, 1, 2, 3], 2)
    assert _line_extremes(bytearray(6), 3) == ([], 0)


# The library's core: every module but `paper`, the reproduction, and `cli`,
# which prints the reproduction's thresholds.
_CORE_MODULES = ("geometry", "hull", "pipeline", "pnm", "pointio", "analysis")


def test_the_pipeline_imports_nothing_from_the_bit_table():
    # rankhull.paper is the paper's reproduction, its p-bit table included;
    # the core uses none of it, neither its functions nor its constants: no
    # import, absolute or relative, names it, and no global comes from it
    for name in _CORE_MODULES:
        module = importlib.import_module(f"rankhull.{name}")
        tree = ast.parse(inspect.getsource(module))
        # each dotted name an import reads from or binds, split at its dots
        named = [
            part
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            for dotted in (getattr(node, "module", None) or "", *(a.name for a in node.names))
            for part in dotted.split(".")
        ]
        assert "paper" not in named, name
        assert not [key for key, value in vars(module).items()
                    if "rankhull.paper" in (getattr(value, "__module__", None),
                                            getattr(value, "__name__", None))], name
    # steps 3-5 run on plain ints: no rank function or box object, and no
    # other module's private helper
    assert not {"paper", "RankFunction", "BoundingBox"} & set(vars(pipeline_module))
    tree = ast.parse(inspect.getsource(pipeline_module))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    ours = [node for node in imports if node.level or (node.module or "").startswith("rankhull")]
    assert not [alias.name for node in ours for alias in node.names if alias.name.startswith("_")]


def test_a_strip_and_its_transpose_read_their_lines_along_the_longer_side():
    # 16,000 points on a 4000x40 strip: byte extremes read its 40 rows, not
    # its 4,000 columns, and the transpose's 40 columns
    strip = _STRIP
    wide, chain = _scan_of(strip, None)
    tall = convex_hull_ranked(_transposed(strip))
    assert (wide.route, wide.rank_variant) == (Route.EXTREMES, F2)
    assert (tall.route, tall.rank_variant) == (Route.EXTREMES, F1)
    assert wide.counters.shuffle_iterations <= 40 and len(chain) <= 80
    assert wide.hull == hull_oracle(strip)
    assert tall.hull == hull_oracle(_transposed(strip))
    assert set(tall.hull.vertices) == set(_transposed(wide.hull.vertices))


def test_the_default_route_peaks_under_the_rank_route_on_the_dense_set():
    # against the paper's p-bit steps at p = 64, step 1 included
    pts = generate_dense_set(480, 360, count=17280, seed=7)
    auto, auto_peak = _peak(lambda: convex_hull_ranked(pts))
    rank, rank_peak = _peak(lambda: paper_steps(pts, 64))
    assert auto.route is Route.EXTREMES and auto.hull == rank.hull
    assert auto_peak < rank_peak


@pytest.mark.parametrize("m1, m2, n, route", [
    (480, 360, 17280, Route.EXTREMES),  # m/n = 10, the dense_uniform bench box
    (640, 480, 9216, Route.EXTREMES),   # m/n = 33, the image_mask bench box
    (1024, 1024, 10486, Route.EXTREMES),  # m/n = 100
    (2048, 2048, 4096, Route.SORT),     # m/n = 1024, two points a column
    (4096, 4096, 5033, Route.SORT),     # m/n = 3333, about one point a column
    (2048, 2048, 1024, Route.SORT),     # m/n = 4096, the sparse_box bench box
    (64, 48, 8, Route.SORT),            # too few points for a table to pay
    (4096, 512, 1024, Route.SORT),      # m/n = 2048 in a box eight times wider than tall
])
def test_the_router_takes_the_route_of_the_crossover_map(m1, m2, n, route):
    pts = generate_dense_set(m1, m2, count=n, seed=3)
    report = convex_hull_ranked(pts)
    assert report.route is route
    # rows only for byte extremes on a wide box: sorted ranks keep f1 on any box
    assert report.rank_variant is (F2 if route is Route.EXTREMES and m1 > m2 else F1)
    assert report.hull == hull_oracle(pts)


def test_the_byte_table_cap_is_max_bytes():
    # the byte route's own cost, not a cap, decides below MAX_BYTES: a dense million points
    assert choose_route(10**6, MAX_BYTES, 8192) is Route.EXTREMES
    assert route_estimates(10**6, MAX_BYTES + 1, 8192)[0] == math.inf
    assert route_estimates(2, MAX_BYTES, 1)[0] < math.inf
    # one row of MAX_BYTES + 1 cells: refused before any table is built
    far = [(0, 0), (MAX_BYTES, 0)]
    with pytest.raises(BoxTooLargeError, match="bytes"):
        _hull(far, Route.EXTREMES)
    assert convex_hull_ranked(far).route is Route.SORT


def test_byte_extremes_are_priced_per_expected_occupied_line():
    # lines·(1 − (1 − 1/lines)^n): two points on two lines share one half the time
    assert route_terms(2, 8, 2)[0][2] == pytest.approx(1.5)
    # the sparse_box box: 1,024 points occupy about 806 of its 2,048 columns, not 1,024
    assert route_terms(1024, 2048**2, 2048)[0][2] == pytest.approx(
        2048 * (1 - (1 - 1 / 2048) ** 1024), rel=1e-12
    )
    # one line or none, and no points
    assert [route_terms(n, 3 * k, k)[0][2] for n, k in ((5, 1), (0, 0), (0, 3))] == [1, 0, 0]


def test_a_few_points_go_to_sorted_ranks_and_more_in_a_dense_box_to_byte_extremes():
    # m = 4n in a square box: the byte route's per-line cost against the sort's per point
    assert choose_route(12, 48, 7) is Route.SORT
    assert choose_route(32, 128, 11) is Route.EXTREMES


def test_byte_extremes_give_way_to_sorted_ranks_between_m_n_100_and_1000():
    # the smallest square box, in 64-cell steps, for which 1,024 points go to sorted ranks
    n = 1024
    lo, hi = n, 64 * 10**5 * n
    while hi - lo > 64:
        mid = (lo + hi) // 2
        if choose_route(n, mid, math.isqrt(mid)) is Route.SORT:
            hi = mid
        else:
            lo = mid
    assert 100 * n <= hi <= 1000 * n
    assert choose_route(n, lo, math.isqrt(lo)) is Route.EXTREMES
    assert choose_route(n, hi + 64, math.isqrt(hi + 64)) is Route.SORT


def test_the_routing_decision_is_logged_with_its_two_estimates(caplog):
    pts = generate_dense_set(480, 360, count=17280, seed=7)
    with caplog.at_level(logging.DEBUG, logger="rankhull.pipeline"):
        report = convex_hull_ranked(pts)
    (record,) = caplog.records
    message = record.getMessage()
    assert "route Route.EXTREMES for 17280 points" in message
    extremes, sort = route_estimates(17280, report.m, min(report.m1, report.m2))
    assert f"estimates extremes {extremes:.0f}, sort {sort:.0f} ns" in message


# --- step 5 on its own --------------------------------------------------------

@st.composite
def grid_cells(draw):
    """A grid's line width and ascending distinct cells of it.

    The grid has up to 30 lines of up to 30 cells. The cells are any one,
    two or up to 60, or lie on one line, in a grid one cell wide (one
    line, or lines of one cell), or on one straight line across the grid.
    """
    shape = draw(st.sampled_from(("any", "one line", "one cell wide", "collinear")))
    lines, width = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    if shape == "one cell wide":
        lines, width = draw(st.sampled_from(((1, width), (lines, 1))))
    m = lines * width
    if shape == "one line":
        base = draw(st.integers(0, lines - 1)) * width
        cells = {base + a for a in draw(st.sets(st.integers(0, width - 1), min_size=1, max_size=30))}
    elif shape == "collinear":
        line, a = draw(st.integers(0, lines - 1)), draw(st.integers(0, width - 1))
        ul, ua = draw(st.sampled_from([(u, v) for u in range(-3, 4) for v in range(-3, 4) if u or v]))
        on_it = []
        while 0 <= line < lines and 0 <= a < width:
            on_it.append(line * width + a)
            line, a = line + ul, a + ua
        cells = set(draw(st.lists(st.sampled_from(on_it), min_size=1, unique=True)))
    else:
        size = draw(st.sampled_from((1, 2, 60)))
        cells = draw(st.sets(st.integers(0, m - 1), min_size=1, max_size=size))
    return width, sorted(cells)


@settings(max_examples=400)
@given(grid_cells())
def test_the_scan_alone_gives_the_oracles_hull_in_linear_work(case):
    width, cells = case
    points = [Point(*divmod(cell, width)) for cell in cells]
    cycle, evals, ops = pipeline_module._scan(cells, width)
    # the (line, along) cycle is already canonical: counter-clockwise from its minimum
    hull = HullPolygon.of_cycle(cycle)
    assert tuple(cycle) == hull.vertices
    assert hull == hull_oracle(points)
    stats = MelkmanStats()
    assert sides_reference(points, False, stats) == hull
    assert (evals, ops) == (stats.isleft_evals, stats.deque_ops)
    # k cells: k + 2 placements and 2k + 2 - h operations in all for h
    # vertices (2 for a collinear chain), and k chord tests besides the passes'
    k, h = len(cells), len(hull)
    assert ops == (2 * k + 2 - h if k > 1 else 0) <= 2 * k
    assert evals <= (3 * k - 2 - h if k > 1 else 0) <= 3 * k


# --- the sorted-ranks route --------------------------------------------------

def _check_sorted_ranks_scan_the_rank_routes_chain(pts, variant):
    # the paper's p-bit steps 3–4 yield the chain that sorted ranks scan.
    # Sorted ranks keep f1, and f1 ranks the transposed set as f2 ranks the
    # set: there the pipeline scans f2's chain, transposed
    flip = variant is F2
    scanned = _transposed(pts) if flip else pts
    sort, sort_chain = _scan_of(scanned, Route.SORT)
    hull, table, shuffled, _, _ = paper_steps(pts, 64, variant)
    box = bounding_box(pts)
    rf = RankFunction(variant, box.m1, box.m2, box.x_min, box.y_min)
    chain = list(rf.offsets(shuffled.order))
    assert sort_chain == (_transposed(chain) if flip else chain)
    assert sort.route is Route.SORT and sort.rank_variant is F1
    assert sort.counters.shuffle_iterations == sort.n
    # the same chain, so the same scan; only step 4's count differs (n
    # sorted ranks, against r words + n). The scan reads each point as
    # (line, along), which a transposed chain under the other layout keeps,
    # so it makes the same decisions there too
    assert (sort.n, sort.duplicates_skipped) == (table.n, table.duplicates_skipped)
    stats = MelkmanStats()
    assert sides_reference(rf.to_points(chain), flip, stats) == hull
    c = sort.counters
    assert (c.isleft_evals, c.deque_ops) == (stats.isleft_evals, stats.deque_ops)
    assert hull == hull_oracle(pts)
    assert sort.hull == hull_oracle(scanned)


@pytest.mark.parametrize("variant", tuple(RankVariant))
@pytest.mark.parametrize("pts", [
    [(0, 0), (4, 4), (0, 4), (0, 4), (2, 1), (4, 4)],                     # duplicates
    [(-7, 3), (-2, -9), (5, -1), (-7, 3), (0, 0), (3, 8), (-5, -5)],     # negative coordinates
    [(-1, -1), (2, 2), (5, 5), (2, 2)],                                  # collinear
    [(3, -4)] * 3,                                                       # one distinct point
    generate_dense_set(200, 150, count=3000, seed=4),
])
def test_sorted_ranks_give_the_rank_routes_report(pts, variant):
    _check_sorted_ranks_scan_the_rank_routes_chain(pts, variant)


@settings(max_examples=150)
@given(st.one_of(offset_point_lists(), one_point_lines()), st.sampled_from(tuple(RankVariant)))
def test_sorted_ranks_give_the_rank_routes_report_on_any_set(pts, variant):
    _check_sorted_ranks_scan_the_rank_routes_chain(pts, variant)


_LO, _HI = -(2**63), 2**63 - 1  # the 64-bit corners


def _spread_over_64_bits(count, seed):
    rng = random.Random(seed)
    return [(rng.randint(_LO, _HI), rng.randint(_LO, _HI)) for _ in range(count)]


@pytest.mark.parametrize("variant", tuple(RankVariant))
@pytest.mark.parametrize("pts", [
    # uniform over the 64-bit square, every point twice, then its corners
    _spread_over_64_bits(400, 17) * 2 + [(_LO, _LO), (_HI, _HI), (_LO, _HI), (_HI, _LO)],
    _spread_over_64_bits(60, 18),
    # two clusters at opposite corners: many points share a line
    [(_LO + i % 7, _LO + i // 7) for i in range(60)] + [(_HI - i // 5, _HI - i % 5) for i in range(40)],
    [(_LO + i * 2**58, _HI - i * 2**58) for i in range(50)] * 2,          # collinear
    [(0, 0), (40000, 1), (20000, 40000), (17, 33)],                      # just over both caps
])
def test_sorted_ranks_match_the_oracle_on_boxes_over_both_caps(pts, variant):
    report = convex_hull_ranked(pts)
    assert report.m > MAX_BYTES and table_over_cap(report.m, 64)
    assert report.route is Route.SORT and report.used_fallback
    assert report.rank_variant is F1
    assert report.hull == hull_oracle(pts)
    assert report.n == len(set(pts)) == report.counters.shuffle_iterations
    # sorted ranks in either layout, through the checked entry points
    assert sorted_ranks_hull(pts, variant) == report.hull
