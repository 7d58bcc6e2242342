import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rankhull.bitrank import (
    MAX_WORDS,
    RankTable,
    build_rank_table,
    extract_set_bits,
    fast_shuffle,
    shuffle_naive,
)
from rankhull.errors import BoxTooLargeError, NonIntegerCoordinateError, OutOfGridError
from rankhull.geometry import Point
from rankhull.ranking import RankFunction, RankVariant

F1 = RankVariant.COLUMN_MAJOR
F2 = RankVariant.ROW_MAJOR


def _table_from_ranks(ranks, m, p):
    """Build a table with exactly the given distinct ranks set."""
    r = -(-m // p)
    bloom = [0] * r
    for k in ranks:
        bloom[(k - 1) // p] |= 1 << ((k - 1) % p)
    return RankTable(bloom, len(ranks), m, p, r)


def test_extract_set_bits_worked_word():
    assert extract_set_bits(16692) == [2, 4, 5, 8, 14]


def test_extract_set_bits_edge_words():
    assert extract_set_bits(0) == []
    for k in range(64):
        assert extract_set_bits(1 << k) == [k]


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_extract_set_bits_matches_popcount_and_order(word):
    positions = extract_set_bits(word)
    assert len(positions) == bin(word).count("1")
    assert positions == sorted(positions)
    assert sum(1 << s for s in positions) == word


def test_build_packs_ranks_into_blocked_words():
    rf = RankFunction(F1, 4, 4)
    table = build_rank_table([rf.unrank(5), rf.unrank(8)], rf, 4)
    assert table.bloom[1] == 0b1001
    table = build_rank_table([rf.unrank(2)], rf, 4)
    assert table.bloom[0] == 0b0010
    assert table.r == 4


def test_build_empty_set():
    table = build_rank_table([], RankFunction(F1, 4, 4), 4)
    assert table.bloom == [0, 0, 0, 0]
    assert table.n == 0


def test_build_skips_and_counts_duplicates():
    rf = RankFunction(F1, 4, 4)
    pts = [Point(2, 2), Point(2, 2), Point(2, 2), Point(3, 1)]
    table = build_rank_table(pts, rf, 8)
    assert table.n == 2
    assert table.duplicates_skipped == 2
    # the repeated point's rank is recorded once
    assert fast_shuffle(table).order == [rf.rank(Point(2, 2)), rf.rank(Point(3, 1))]


def test_build_honors_rank_range_cap():
    # the cap counts words: a box of MAX_WORDS * p cells is the largest at width p
    for p in (8, 64):
        rf = RankFunction(F1, MAX_WORDS * p + 1, 1)
        with pytest.raises(BoxTooLargeError):
            build_rank_table([Point(1, 1)], rf, p)


def test_build_rejects_points_that_are_not_pairs():
    for variant, bads in ((F1, [(2, 2, 2), (2,), None]), (F2, [(2,), None])):
        rf = RankFunction(variant, 4, 4)
        for bad in bads:
            with pytest.raises(NonIntegerCoordinateError):
                build_rank_table([Point(1, 1), bad], rf, 8)


def test_build_rejects_points_outside_the_grid():
    for variant in (F1, F2):
        rf = RankFunction(variant, 4, 3, x_min=-2, y_min=5)
        for bad in (Point(-3, 5), Point(2, 5), Point(-2, 4), Point(-2, 8)):
            with pytest.raises(OutOfGridError):
                build_rank_table([Point(-2, 5), bad], rf, 8)


def test_build_population_count_equals_n():
    rng = random.Random(4)
    rf = RankFunction(F1, 20, 20)
    pts = [rf.unrank(r) for r in rng.sample(range(1, 401), 77)]
    table = build_rank_table(pts, rf, 16)
    assert sum(bin(w).count("1") for w in table.bloom) == table.n == 77


def test_naive_shuffle_walks_ranks_in_order():
    table = _table_from_ranks([8, 14, 4, 5, 2], 16, 16)
    result = shuffle_naive(table)
    assert result.order == [2, 4, 5, 8, 14]
    assert result.iterations == 14  # early exit at the highest rank


def test_naive_shuffle_empty_table_scans_everything():
    result = shuffle_naive(_table_from_ranks([], 16, 4))
    assert result.order == []
    assert result.iterations == 16


def test_naive_shuffle_full_table():
    result = shuffle_naive(_table_from_ranks(list(range(1, 17)), 16, 4))
    assert result.order == list(range(1, 17))
    assert result.iterations == 16


def test_fast_shuffle_matches_naive_on_bucket_walkthrough():
    rf = RankFunction(F1, 4, 4)
    pts = [rf.unrank(5), rf.unrank(8), rf.unrank(2)]
    table = build_rank_table(pts, rf, 4)
    assert table.bloom == [0b0010, 0b1001, 0, 0]
    fast = fast_shuffle(table)
    assert fast.order == shuffle_naive(table).order == [2, 5, 8]
    assert [rf.unrank(k) for k in fast.order] == [pts[2], pts[0], pts[1]]


def test_fast_shuffle_skips_zero_buckets_in_one_test():
    table = _table_from_ranks([5, 21, 33, 35], 64, 16)
    assert table.bloom == [16, 16, 5, 0]
    result = fast_shuffle(table)
    assert result.order == [5, 21, 33, 35]
    assert result.zero_buckets_skipped == 1
    assert result.iterations == table.r + table.n == 8


def test_fast_shuffle_iteration_count_is_buckets_plus_bits():
    rng = random.Random(11)
    for _ in range(50):
        m = rng.randint(1, 512)
        p = rng.choice((8, 16, 32, 64))
        n = rng.randint(0, m)
        table = _table_from_ranks(rng.sample(range(1, m + 1), n), m, p)
        result = fast_shuffle(table)
        assert result.iterations == table.r + n


def test_shuffles_leave_the_table_intact():
    table = _table_from_ranks([3, 9, 10], 12, 4)
    bloom = list(table.bloom)
    fast_shuffle(table)
    shuffle_naive(table)
    assert table.bloom == bloom


@given(st.data())
def test_shuffles_agree_with_sorted_rank_oracle(data):
    m1 = data.draw(st.integers(1, 16))
    m2 = data.draw(st.integers(1, 16))
    m = m1 * m2
    n = data.draw(st.integers(0, m))
    ranks = data.draw(st.permutations(range(1, m + 1)))[:n]
    p = data.draw(st.sampled_from((8, 16, 32, 64)))
    variant = data.draw(st.sampled_from((F1, F2)))
    x_min = data.draw(st.integers(-10**12, 10**12))
    y_min = data.draw(st.integers(-10**12, 10**12))
    rf = RankFunction(variant, m1, m2, x_min, y_min)
    pts = [rf.unrank(r) for r in ranks]
    table = build_rank_table(pts, rf, p)
    expected = sorted(ranks)
    assert fast_shuffle(table).order == expected
    assert shuffle_naive(table).order == expected
    assert rf.unrank_all(expected) == [rf.unrank(k) for k in expected]
