import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankhull.bitrank import build_rank_table, shuffle_naive
from rankhull.errors import NonIntegerCoordinateError
from rankhull.geometry import Point, bounding_box
from rankhull.hull import contains_all, hull_oracle, is_convex, melkman
from rankhull.pipeline import (
    PipelineConfig,
    convex_hull_ranked,
    density_threshold_refined,
    density_threshold_simple,
)
from rankhull.pointio import generate_dense_set
from rankhull.ranking import RankFunction, RankVariant

coords = st.integers(min_value=-50, max_value=50)
point_lists = st.lists(st.builds(Point, coords, coords), max_size=50)


def test_triangle_report():
    report = convex_hull_ranked([Point(5, 7), Point(9, 7), Point(7, 9)])
    assert set(report.hull.vertices) == {Point(5, 7), Point(9, 7), Point(7, 9)}
    assert (report.n, report.m, report.m1, report.m2) == (3, 15, 5, 3)
    assert report.density == 0.2
    assert not report.used_fallback


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


def test_fallback_routes_to_oracle_when_box_exceeds_cap():
    # 40001^2 cells is over 2^30: more than 2^24 words even at p = 64
    pts = [Point(0, 0), Point(40000, 1), Point(20000, 40000), Point(17, 33)] * 2
    report = convex_hull_ranked(pts)
    assert report.used_fallback
    assert report.hull == hull_oracle(pts)
    assert report.counters.shuffle_iterations == 0
    assert (report.n, report.duplicates_skipped, report.m) == (4, 4, 40001 * 40001)


_CAP_BOX = [
    Point(0, 0), Point(11586, 0), Point(11586, 11586), Point(0, 11586), Point(5, 9)
]


def test_cap_counts_words_not_cells():
    # 11587^2 cells need 2^24 + 5,106 words at p = 8: over the cap
    tracemalloc.start()
    try:
        report = convex_hull_ranked(_CAP_BOX, PipelineConfig(p=8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.used_fallback
    assert report.hull == hull_oracle(_CAP_BOX)
    assert peak < 2**20


def test_cap_box_stays_on_the_rank_path_at_p64():
    report = convex_hull_ranked(_CAP_BOX, PipelineConfig(p=64))
    assert not report.used_fallback
    assert report.hull == hull_oracle(_CAP_BOX)
    assert report.counters.shuffle_iterations == -(-report.m // 64) + 5


def test_config_validation():
    for p in (0, 12, 128):
        with pytest.raises(ValueError):
            PipelineConfig(p=p)


def test_fast_shuffle_counter_is_buckets_plus_points():
    rng = random.Random(21)
    for p in (8, 16, 32, 64):
        pts = [Point(rng.randint(0, 199), rng.randint(0, 149)) for _ in range(500)]
        report = convex_hull_ranked(pts, PipelineConfig(p=p))
        buckets = -(-report.m // p)
        assert report.counters.shuffle_iterations == buckets + report.n


def test_naive_and_fast_variants_agree():
    # the pipeline's hull is also the scan of the naive shuffle's chain
    rng = random.Random(3)
    pts = [Point(rng.randint(0, 99), rng.randint(0, 99)) for _ in range(400)]
    box = bounding_box(pts)
    rf = RankFunction(RankVariant.COLUMN_MAJOR, box.m1, box.m2, box.x_min, box.y_min)
    naive = shuffle_naive(build_rank_table(pts, rf, 64))
    assert melkman(rf.unrank_all(naive.order)) == convex_hull_ranked(pts).hull
    assert naive.iterations <= box.m


def test_row_major_variant_matches_oracle():
    rng = random.Random(13)
    pts = [Point(rng.randint(-40, 60), rng.randint(-10, 90)) for _ in range(300)]
    cfg = PipelineConfig(rank_variant=RankVariant.ROW_MAJOR)
    assert convex_hull_ranked(pts, cfg).hull == hull_oracle(pts)


def test_hull_vertices_come_from_the_input():
    rng = random.Random(5)
    pts = [Point(rng.randint(-500, 500), rng.randint(-500, 500)) for _ in range(200)]
    report = convex_hull_ranked(pts)
    assert set(report.hull.vertices) <= set(pts)
    assert is_convex(report.hull)
    assert contains_all(report.hull, pts)


def test_counters_scale_linearly_at_fixed_density():
    # doubling n at constant density doubles the box and every counter
    cfg = PipelineConfig(p=32)
    small = convex_hull_ranked(generate_dense_set(320, 240, count=3840, seed=2), cfg)
    big = convex_hull_ranked(generate_dense_set(320, 480, count=7680, seed=3), cfg)
    for name in ("isleft_evals", "shuffle_iterations", "deque_ops"):
        a = getattr(small.counters, name)
        b = getattr(big.counters, name)
        assert 1.9 <= b / a <= 2.1, name


@settings(max_examples=60)
@given(point_lists)
def test_pipeline_equals_oracle(points):
    assert convex_hull_ranked(points).hull == hull_oracle(points)


@settings(max_examples=60)
@given(
    point_lists,
    st.integers(-10**12, 10**12),
    st.integers(-10**12, 10**12),
    st.sampled_from(tuple(RankVariant)),
)
def test_offset_coordinates_match_oracle(points, dx, dy, variant):
    shifted = [Point(x + dx, y + dy) for x, y in points]
    report = convex_hull_ranked(shifted, PipelineConfig(rank_variant=variant))
    assert report.hull == hull_oracle(shifted)


def test_sparse_box_memory_is_bit_table_sized():
    # 4001 x 4001 cells: the bit table is 2 MB; one slot per cell would be 128 MB
    pts = [Point(0, 0), Point(4000, 0), Point(4000, 4000), Point(0, 4000), Point(7, 9)]
    tracemalloc.start()
    try:
        report = convex_hull_ranked(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.m == 4001 * 4001 and not report.used_fallback
    assert report.hull == hull_oracle(pts)
    assert peak < 4 * 2**20


def test_non_integer_coordinates_raise_a_library_error():
    for bad in (Point(0.5, 0), Point(0, 2.0), Point(True, 0), Point(1, False)):
        with pytest.raises(NonIntegerCoordinateError):
            convex_hull_ranked([Point(0, 0), bad, Point(3, 3)])


@pytest.mark.parametrize("variant", tuple(RankVariant))
@pytest.mark.parametrize("points", [[(1, 2, 3)], [(1,)], [None], [(1, 2), (3, 4, 5)]])
def test_points_that_are_not_pairs_raise_a_library_error(points, variant):
    with pytest.raises(NonIntegerCoordinateError):
        convex_hull_ranked(points, PipelineConfig(rank_variant=variant))


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
