import gc
import random
import re
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rankhull.paper import (
    MAX_WORDS,
    RankFunction,
    RankTable,
    build_rank_table,
    check_block_width,
    extract_set_bits,
    fast_shuffle,
    shuffle_naive,
    table_over_cap,
)
from rankhull.errors import BoxTooLargeError, OutOfGridError, RankOutOfRangeError
from rankhull.geometry import Point, coordinates
from rankhull.pipeline import RankVariant

F1 = RankVariant.COLUMN_MAJOR
F2 = RankVariant.ROW_MAJOR


def _ranked(pts, rf, p):
    """The table of `pts`, ranked by the checked entry point `rf.cells`."""
    xs, ys = coordinates(pts)
    return build_rank_table(rf.cells(xs, ys), rf.m, p)


def _table_from_ranks(ranks, m, p):
    """Build a table with exactly the given distinct ranks set."""
    bloom = [0] * -(-m // p)
    for k in ranks:
        bloom[(k - 1) // p] |= 1 << ((k - 1) % p)
    return RankTable(bloom, len(ranks), m, p)


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
    table = _ranked(rf.unrank_all([5, 8]), rf, 4)
    assert table.bloom[1] == 0b1001
    table = _ranked(rf.unrank_all([2]), rf, 4)
    assert table.bloom[0] == 0b0010
    assert table.r == 4


def test_build_empty_set():
    table = _ranked([], RankFunction(F1, 4, 4), 4)
    assert table.bloom == [0, 0, 0, 0]
    assert table.n == 0


def test_build_skips_and_counts_duplicates():
    rf = RankFunction(F1, 4, 4)
    pts = [Point(2, 2), Point(2, 2), Point(2, 2), Point(3, 1)]
    table = _ranked(pts, rf, 8)
    assert table.n == 2
    assert table.duplicates_skipped == 2
    # the repeated point's rank is recorded once
    assert fast_shuffle(table).order == [cell + 1 for cell in rf.cells([2, 3], [2, 1])]


def test_build_rejects_a_block_width_that_is_not_a_positive_int():
    rf = RankFunction(F1, 4, 4)
    for p in (0, 64.0, 8.5, True):
        with pytest.raises(ValueError, match="block width"):
            check_block_width(p)
        with pytest.raises(ValueError, match="block width"):
            _ranked([Point(1, 1)], rf, p)
    for p in (1, 12, 64, 128):
        check_block_width(p)


def test_build_honors_rank_range_cap():
    # the cap counts words: a box of MAX_WORDS * p cells is the largest at width p
    for p in (8, 64):
        assert not table_over_cap(MAX_WORDS * p, p)
        assert table_over_cap(MAX_WORDS * p + 1, p) == (
            f"{MAX_WORDS * p + 1} ranks need more than {MAX_WORDS} words of {p} bits"
        )
        rf = RankFunction(F1, MAX_WORDS * p + 1, 1)
        with pytest.raises(BoxTooLargeError):
            _ranked([Point(1, 1)], rf, p)


def test_build_rejects_points_outside_the_grid():
    # rf.cells checks the lists before a table is made; the bad-list cases
    # of a direct call are test_ranking's, since cells owns that check
    for variant in (F1, F2):
        rf = RankFunction(variant, 4, 3, x_min=-2, y_min=5)
        for bad in (Point(-3, 5), Point(2, 5), Point(-2, 4), Point(-2, 8)):
            with pytest.raises(OutOfGridError, match=re.escape(str(tuple(bad)))):
                _ranked([Point(-2, 5), bad], rf, 8)


def test_build_rejects_a_rank_count_that_is_not_an_int():
    for m in (16.0, -1, True, "16"):
        with pytest.raises(ValueError, match="m must be"):
            build_rank_table(iter([0]), m, 8)


@pytest.mark.parametrize("cells, m", [
    ([-1], 16), ([16], 16), ([13], 13), ([0, 99], 16), ([1.0], 16), ([True], 16), (["3"], 16),
])
def test_build_rejects_a_cell_that_is_not_an_int_in_range(cells, m):
    # -1 once set the top bit of the last word, and fast_shuffle yielded rank 16
    with pytest.raises(RankOutOfRangeError, match=re.escape(f"cell {cells[-1]!r}")):
        build_rank_table(iter(cells), m, 8)


def test_build_population_count_equals_n():
    rng = random.Random(4)
    rf = RankFunction(F1, 20, 20)
    pts = rf.unrank_all(rng.sample(range(1, 401), 77))
    table = _ranked(pts, rf, 16)
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
    pts = rf.unrank_all([5, 8, 2])
    table = _ranked(pts, rf, 4)
    assert table.bloom == [0b0010, 0b1001, 0, 0]
    fast = fast_shuffle(table)
    assert fast.order == shuffle_naive(table).order == [2, 5, 8]
    assert rf.unrank_all(fast.order) == [pts[2], pts[0], pts[1]]


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
    # widths below, at and past one 64-bit chunk of the walk, and past two
    p = data.draw(st.sampled_from((1, 7, 8, 16, 32, 63, 64, 65, 128, 200)))
    variant = data.draw(st.sampled_from((F1, F2)))
    x_min = data.draw(st.integers(-10**12, 10**12))
    y_min = data.draw(st.integers(-10**12, 10**12))
    rf = RankFunction(variant, m1, m2, x_min, y_min)
    pts = rf.unrank_all(ranks)
    table = _ranked(pts, rf, p)
    expected = sorted(ranks)
    assert fast_shuffle(table).order == expected
    assert shuffle_naive(table).order == expected


@given(st.data())
def test_fast_shuffle_on_long_zero_runs(data):
    # each word gets one zero test whether it is skipped or walked
    p = data.draw(st.sampled_from((4, 8, 16, 32, 64, 65, 128)))
    r = data.draw(st.integers(1, 300))
    m = data.draw(st.integers((r - 1) * p + 1, r * p))
    shape = data.draw(st.sampled_from(("empty", "first", "last", "full")))
    if shape == "empty":
        ranks = []
    elif shape == "first":
        ranks = [data.draw(st.integers(1, min(p, m)))]
    elif shape == "last":
        ranks = [data.draw(st.integers((r - 1) * p + 1, m))]
    else:
        ranks = list(range(1, m + 1))
    table = _table_from_ranks(ranks, m, p)
    assert table.r == r
    result = fast_shuffle(table)
    assert result.order == shuffle_naive(table).order == sorted(ranks)
    assert result.iterations == r + len(ranks)
    assert result.zero_buckets_skipped == table.bloom.count(0)


def test_fast_shuffle_holds_nothing_per_word():
    # 2^20 words with five bits: the walk must not materialise a per-word list
    r = 1 << 20
    ranks = [1, 64 * 1000 + 7, 64 * 70000, 64 * (r - 1) + 1, 64 * r]
    table = _table_from_ranks(ranks, 64 * r, 64)
    gc.disable()
    tracemalloc.start()
    try:
        result = fast_shuffle(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert result.order == ranks
    assert result.zero_buckets_skipped == r - 4
    assert peak < 64 * 1024
