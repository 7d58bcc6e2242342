import random
from unittest.mock import patch

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chaincheck import chain_is_simple
from rankhull.errors import (
    NonIntegerCoordinateError,
    OutOfGridError,
    RankHullError,
    RankOutOfRangeError,
)
from rankhull import pipeline
from rankhull.geometry import Point, coordinates
from rankhull.paper import RankFunction
from rankhull.pipeline import RankVariant

F1 = RankVariant.COLUMN_MAJOR
F2 = RankVariant.ROW_MAJOR


def _ranks(rf, *points):
    """The rank of each point, read through the checked path `cells` from `coordinates`."""
    return [cell + 1 for cell in rf.cells(*coordinates(points))]


def test_column_major_rank_values():
    rf = RankFunction(F1, 5, 3)
    assert _ranks(rf, Point(1, 1), Point(3, 3), Point(5, 1)) == [1, 9, 13]


def test_column_major_rank_on_four_row_grid():
    rf = RankFunction(F1, 4, 4)
    assert _ranks(rf, Point(2, 1)) == [5]
    assert rf.unrank_all([5]) == [Point(2, 1)]


def test_row_major_rank_values():
    rf = RankFunction(F2, 3, 4)
    assert _ranks(rf, Point(1, 1), Point(1, 2)) == [1, 4]


def test_unrank_values():
    rf = RankFunction(F1, 5, 3)
    assert rf.unrank_all([13, 1]) == [Point(5, 1), Point(1, 1)]


def test_rank_rejects_out_of_grid():
    for variant in (F1, F2):
        for rf in (RankFunction(variant, 4, 4), RankFunction(variant, 4, 3, -2, 5)):
            x0, y0 = rf.x_min, rf.y_min
            x1, y1 = x0 + rf.m1, y0 + rf.m2
            for bad in (Point(x0 - 1, y0), Point(x0, y0 - 1), Point(x1, y0), Point(x0, y1)):
                with pytest.raises(OutOfGridError):
                    _ranks(rf, bad)


def test_rank_rejects_points_that_are_not_pairs_of_ints():
    for variant in (F1, F2):
        rf = RankFunction(variant, 4, 5)
        for bad in ((1.5, 1), (1, 2, 3), None, (1,), (True, 1), (1, False)):
            with pytest.raises(NonIntegerCoordinateError):
                _ranks(rf, bad)


def test_cells_rejects_lists_that_are_not_ints_of_one_length():
    # the one check of a caller's coordinate lists on the way into step 3
    for variant in (F1, F2):
        rf = RankFunction(variant, 4, 3, x_min=-2, y_min=5)
        for xs, ys in (
            ([-2, -1.5], [5, 6]), ([-2, -1], [5.0, 6]), ([-2, 0.0], [5, 5]),
            ([-2, True], [5, 6]), ([-2, -1], [5, False]), ([-2, -1], [5]),
        ):
            with pytest.raises(NonIntegerCoordinateError, match="lists of ints"):
                rf.cells(xs, ys)


def test_variant_must_be_a_rank_variant():
    # a CLI spelling such as "f1" is a str, not a variant
    for bad in ("f1", "zz"):
        with pytest.raises(ValueError, match="RankVariant"):
            RankFunction(bad, 4, 5)


def test_unrank_rejects_out_of_range():
    rf = RankFunction(F1, 4, 4)
    for bad in (0, -1, 17):
        with pytest.raises(RankOutOfRangeError):
            rf.unrank_all([bad])
        with pytest.raises(RankOutOfRangeError):
            rf.unrank_all([1, bad, 16])


def test_offsets_are_the_points_less_the_box_corner():
    rng = random.Random(17)
    for variant in (F1, F2):
        rf = RankFunction(variant, 9, 7, x_min=-4, y_min=10**9)
        ranks = rng.sample(range(1, rf.m + 1), 30)
        offsets = list(rf.offsets(ranks))
        assert offsets == [(x + 4, y - 10**9) for x, y in rf.unrank_all(ranks)]
        assert rf.to_points(offsets) == rf.unrank_all(ranks)
        # checked against the forward path, not only against the inverse built on offsets
        assert _ranks(rf, *(Point(dx - 4, dy + 10**9) for dx, dy in offsets)) == ranks
        assert list(rf.offsets([])) == []
        for bad in (0, rf.m + 1, 1.5, "a", True):
            with pytest.raises(RankOutOfRangeError):
                rf.offsets([1, bad])
            with pytest.raises(RankOutOfRangeError):
                rf.offsets([bad, 2])


# a fresh iterator for each call, so neither call is handed a spent one
@pytest.mark.parametrize("make", [
    lambda: iter([5]), lambda: (r for r in (5, 6)), lambda: {5, 6},
])
def test_ranks_that_are_not_a_sequence_raise_a_library_error(make):
    rf = RankFunction(F1, 4, 4)
    with pytest.raises(RankHullError, match="sequence"):
        rf.offsets(make())
    with pytest.raises(RankHullError, match="sequence"):
        rf.unrank_all(make())


def test_grid_origin_moves_the_ranked_cells():
    for variant in (F1, F2):
        rf = RankFunction(variant, 5, 3, x_min=-2, y_min=10**12)
        base = RankFunction(variant, 5, 3)
        ranks = range(1, 16)
        for r, v, w in zip(ranks, base.unrank_all(ranks), rf.unrank_all(ranks)):
            assert w == Point(v.x - 3, v.y + 10**12 - 1)
            assert _ranks(rf, w) == [r]
        with pytest.raises(OutOfGridError):
            _ranks(rf, Point(-3, 10**12))


def test_grid_sides_must_be_positive():
    with pytest.raises(ValueError):
        RankFunction(F1, 0, 3)
    # sides and corner are plain ints, so every rank and cell is one
    for bad in (
        (4.0, 4, 1, 1), (4, 4.0, 1, 1), (True, 4, 1, 1), (4, True, 1, 1),
        (4, 4, 0.5, 0), (4, 4, 0, 0.5), (4, 4, 1.0, 1), (4, 4, False, 1), (4, 4, 1, True),
    ):
        for variant in (F1, F2):
            with pytest.raises(ValueError, match="ints"):
                RankFunction(variant, *bad)


def test_roundtrip_is_a_bijection_on_a_7x5_grid():
    # exhaustive enumeration over all 35 cells, both directions
    for variant in (F1, F2):
        rf = RankFunction(variant, 7, 5)
        seen = set()
        for x in range(1, 8):
            for y in range(1, 6):
                (r,) = _ranks(rf, Point(x, y))
                assert 1 <= r <= 35
                assert rf.unrank_all([r]) == [Point(x, y)]
                seen.add(r)
        assert seen == set(range(1, 36))


def test_roundtrip_on_every_grid_up_to_64x64():
    # one batch pass per grid through cells, the checked forward path; at
    # corner (0, 0) a cell's offsets are its coordinates
    for variant in (F1, F2):
        for m1 in range(1, 65):
            for m2 in range(1, 65):
                rf = RankFunction(variant, m1, m2, 0, 0)
                m = m1 * m2
                cells = list(rf.offsets(range(1, m + 1)))
                assert len(set(cells)) == m
                assert list(rf.cells(*zip(*cells))) == list(range(m))


@pytest.mark.parametrize("variant", (F1, F2))
@pytest.mark.parametrize("m1, m2, x0, y0", [
    (9, 7, -4, -11),                        # a negative corner
    (9, 7, 2**70, -2**70),                  # a corner beyond 64 bits
    (1, 30, -3, 5), (30, 1, 5, -3),         # one cell wide, and one line
    (4000, 40, -17, 2**63), (40, 4000, 2**63, -17),  # the strips
])
def test_the_unchecked_body_gives_the_cells_of_the_checked_path(variant, m1, m2, x0, y0):
    # sorted ranks rank by the pipeline's own arithmetic, unchecked, under
    # f1: on the points, or on their transpose for f2, the cells it scans
    # must be the distinct cells that the checked path gives, sorted
    rng = random.Random(m1 * m2)
    offsets = [(rng.randrange(m1), rng.randrange(m2)) for _ in range(300)]
    offsets += [(0, 0), (m1 - 1, m2 - 1), (0, m2 - 1), (m1 - 1, 0)] + offsets[:40]
    xs, ys = [x0 + dx for dx, _ in offsets], [y0 + dy for _, dy in offsets]
    rf = RankFunction(variant, m1, m2, x0, y0)
    scanned = []
    real = pipeline._scan

    def recording(cells, width):
        scanned.append(cells)
        return real(cells, width)

    pts = list(zip(xs, ys) if variant is F1 else zip(ys, xs))
    with patch.object(pipeline, "_scan", recording):
        pipeline._hull(pts, pipeline.Route.SORT)
    assert scanned == [sorted(set(rf.cells(xs, ys)))]


@given(st.data())
def test_chain_order_matches_lexicographic_sort(data):
    m1 = data.draw(st.integers(1, 12))
    m2 = data.draw(st.integers(1, 12))
    cells = [Point(x, y) for x in range(1, m1 + 1) for y in range(1, m2 + 1)]
    pts = data.draw(st.lists(st.sampled_from(cells), unique=True, max_size=40))
    f1, f2 = RankFunction(F1, m1, m2), RankFunction(F2, m1, m2)
    f1_order = sorted(pts, key=lambda v: _ranks(f1, v))
    assert f1_order == sorted(pts, key=lambda v: (v.x, v.y))
    f2_order = sorted(pts, key=lambda v: _ranks(f2, v))
    assert f2_order == sorted(pts, key=lambda v: (v.y, v.x))


def test_chain_of_50_random_points_is_simple():
    rng = random.Random(99)
    rf = RankFunction(F1, 16, 16)
    ranks = rng.sample(range(1, 257), 50)
    chain = rf.unrank_all(sorted(ranks))
    assert chain_is_simple(chain)


@given(st.data())
def test_chains_are_simple_polylines(data):
    m1 = data.draw(st.integers(1, 16))
    m2 = data.draw(st.integers(1, 16))
    variant = data.draw(st.sampled_from((F1, F2)))
    rf = RankFunction(variant, m1, m2)
    m = m1 * m2
    ranks = data.draw(st.lists(st.integers(1, m), unique=True, max_size=60))
    chain = rf.unrank_all(sorted(ranks))
    assert chain_is_simple(chain)
