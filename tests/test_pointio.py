import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rankhull.paper import density_threshold_simple
from rankhull.errors import (
    CoordinateOverflowError,
    InvalidDensityError,
    NonIntegerCoordinateError,
    ParseError,
)
from rankhull.geometry import Point, bounding_box
from rankhull.pointio import generate_dense_set, load_points, save_points


def test_load_basic_file(tmp_path):
    path = tmp_path / "tri.txt"
    path.write_text("5 7\n9 7\n7 9\n")
    assert load_points(path) == [Point(5, 7), Point(9, 7), Point(7, 9)]


def test_load_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("# header comment\n\n1 2\n#inline\n  3   4 \n")
    assert load_points(path) == [Point(1, 2), Point(3, 4)]


def test_load_preserves_duplicates_and_order(tmp_path):
    path = tmp_path / "dups.txt"
    path.write_text("2 2\n1 1\n2 2\n")
    assert load_points(path) == [Point(2, 2), Point(1, 1), Point(2, 2)]


def test_load_reports_field_count_with_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2 3\n")
    with pytest.raises(ParseError, match=":1"):
        load_points(path)


def test_load_rejects_non_integer(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2\n3 x\n")
    with pytest.raises(ParseError, match=":2"):
        load_points(path)


def test_load_takes_a_sign_and_ascii_digits_only(tmp_path):
    # Python's int() takes "1_0" as 10 and the Arabic-Indic "٣" as 3; a point file does not
    path = tmp_path / "bad.txt"
    for bad in ("1_0 5", "\u0663 2", "3 \uff15", "+-1 2", "1 ++2", "0x10 2", "1 2e3", "5 -"):
        path.write_text(f"0 0\n{bad}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":2: non-integer"):
            load_points(path)
    path.write_text("1" * 5000 + " 0\n")  # past int()'s limit on digits
    with pytest.raises(ParseError, match=":1: coordinate has too many digits"):
        load_points(path)
    path.write_text("+3 -4\n007 -0\n")
    assert load_points(path) == [Point(3, -4), Point(7, 0)]


def test_load_rejects_oversized_coordinates(tmp_path):
    path = tmp_path / "wide.txt"
    for line in (f"{2**64} 0\n", f"0 {-2**64}\n"):
        path.write_text(line)
        with pytest.raises(CoordinateOverflowError, match="64-bit"):
            load_points(path)
    path.write_text(f"{2**64 - 1} {-(2**64 - 1)}\n")
    assert load_points(path) == [Point(2**64 - 1, -(2**64 - 1))]


@given(st.lists(st.tuples(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))))
def test_save_load_roundtrip(tmp_path_factory, pairs):
    path = tmp_path_factory.mktemp("io") / "pts.txt"
    pts = [Point(x, y) for x, y in pairs]
    save_points(path, pts)
    assert load_points(path) == pts


def test_save_writes_only_what_load_reads(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("7 7\n")
    for points in ([(1.5, 2)], [(True, 3)], [None], [(1, 2), (3,)]):
        with pytest.raises(NonIntegerCoordinateError):
            save_points(path, points)
    for points in ([(2**64, 0)], [(0, -(2**64))]):
        with pytest.raises(CoordinateOverflowError, match="64-bit"):
            save_points(path, points)
    assert path.read_text() == "7 7\n"  # checked before the file is opened
    save_points(path, (Point(x, -x) for x in range(5)))
    assert load_points(path) == [Point(x, -x) for x in range(5)]
    save_points(path, [(2**64 - 1, -(2**64 - 1))])
    assert load_points(path) == [Point(2**64 - 1, -(2**64 - 1))]


def test_generate_full_grid_at_density_one():
    pts = generate_dense_set(6, 5, density=1.0, seed=0)
    assert len(pts) == 30
    assert set(pts) == {Point(x, y) for x in range(1, 7) for y in range(1, 6)}


def test_generate_single_cell():
    pts = generate_dense_set(40, 40, density=1 / 1600, seed=3)
    assert len(pts) == 1
    (p,) = pts
    assert 1 <= p.x <= 40 and 1 <= p.y <= 40


def test_generate_exact_count_and_distinct():
    for density in (0.03, 0.5, 0.97):
        pts = generate_dense_set(64, 48, density=density, seed=11)
        assert len(pts) == round(density * 64 * 48)
        assert len(set(pts)) == len(pts)
        box = bounding_box(pts)
        assert box.m1 <= 64 and box.m2 <= 48


def test_generate_is_deterministic_per_seed(tmp_path):
    a = generate_dense_set(640, 480, density=0.03, seed=42)
    b = generate_dense_set(640, 480, density=0.03, seed=42)
    assert len(a) == 9216
    assert a == b
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    save_points(pa, a)
    save_points(pb, b)
    assert pa.read_bytes() == pb.read_bytes()
    assert generate_dense_set(640, 480, density=0.03, seed=43) != a
    # the points themselves, pinned, so that a change to the sampling shows
    digest = hashlib.sha256(repr([tuple(v) for v in a]).encode()).hexdigest()
    assert digest == "6be361ed9263d5acf245b2c111aab5ce55b7191aa9b55ee9bfb6da89b9dc9616"


def test_generate_count_keyword():
    pts = generate_dense_set(10, 10, count=7, seed=5)
    assert len(pts) == 7 == len(set(pts))
    assert generate_dense_set(10, 10, count=0, seed=5) == []
    # a threshold's Fraction is a density: 1/32 of 64 x 64 cells
    assert len(generate_dense_set(64, 64, density=density_threshold_simple(32))) == 128


def test_generate_rejects_bad_density():
    for density in (0.0, -0.5, 1.2, True, "0.5"):
        with pytest.raises(InvalidDensityError, match="density"):
            generate_dense_set(8, 8, density=density)
    with pytest.raises(InvalidDensityError):
        generate_dense_set(8, 8, count=65)


def test_generate_rejects_sides_and_counts_that_are_not_ints():
    for m1, m2 in ((4.5, 4), (4, 4.0), (True, 4), (4, "4")):
        with pytest.raises(ValueError, match="sides"):
            generate_dense_set(m1, m2, count=2)
    for count in (2.5, 2.0, True, "2"):
        with pytest.raises(InvalidDensityError, match="count"):
            generate_dense_set(4, 4, count=count)


def test_generate_requires_exactly_one_size_argument():
    with pytest.raises(ValueError):
        generate_dense_set(8, 8)
    with pytest.raises(ValueError):
        generate_dense_set(8, 8, density=0.5, count=3)
