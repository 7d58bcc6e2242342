import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rankhull.errors import EmptyInputError, NonIntegerCoordinateError
from rankhull.geometry import (
    BoundingBox,
    Point,
    bounding_box,
    coordinates,
    orientation,
)

coords = st.integers(min_value=-1000, max_value=1000)
points = st.builds(Point, coords, coords)


def test_orientation_signs():
    assert orientation(Point(0, 0), Point(1, 0), Point(0, 1)) == 1
    assert orientation(Point(0, 0), Point(1, 1), Point(2, 2)) == 0
    assert orientation(Point(0, 0), Point(0, 1), Point(1, 0)) == -1


@given(points, points, points)
def test_orientation_antisymmetric(a, b, c):
    assert orientation(a, b, c) == -orientation(b, a, c)


@given(points, points, points, coords, coords)
def test_orientation_translation_invariant(a, b, c, dx, dy):
    shifted = [Point(p.x + dx, p.y + dy) for p in (a, b, c)]
    assert orientation(*shifted) == orientation(a, b, c)


def test_orientation_agrees_with_independent_determinant():
    # shoelace expansion as an algebraically independent reference
    rng = random.Random(1234)
    hi = 2**31 - 1
    for _ in range(100_000):
        x0, y0, x1, y1, x2, y2 = (rng.randint(-hi, hi) for _ in range(6))
        det = x0 * (y1 - y2) + x1 * (y2 - y0) + x2 * (y0 - y1)
        expect = (det > 0) - (det < 0)
        assert orientation(Point(x0, y0), Point(x1, y1), Point(x2, y2)) == expect


def test_coordinates_rejects_points_that_are_not_pairs():
    assert coordinates([Point(5, 7), (9, 7), [7, 9]]) == ([5, 9, 7], [7, 7, 9])
    assert coordinates([]) == ([], [])
    for bad in ((2, 2, 2), (2,), None):
        with pytest.raises(NonIntegerCoordinateError, match="pair"):
            coordinates([Point(1, 1), bad])
    # a pair is read by its [0] and [1]: a set has neither, and a dict's
    # are its values
    for bad in ({1, 2}, {1: 2, 3: 4}):
        with pytest.raises(NonIntegerCoordinateError, match="pair"):
            coordinates([Point(1, 1), bad])
    with pytest.raises(NonIntegerCoordinateError, match=r"point \(1\.5, 2\) has a non-int"):
        coordinates([Point(1, 1), {0: 1.5, 1: 2}])


def test_bounding_box_triangle():
    box = bounding_box([Point(5, 7), Point(9, 7), Point(7, 9)])
    assert (box.x_min, box.x_max, box.y_min, box.y_max) == (5, 9, 7, 9)
    assert (box.m1, box.m2, box.m) == (5, 3, 15)


def test_bounding_box_singleton():
    box = bounding_box([Point(3, 3)])
    assert (box.m1, box.m2, box.m) == (1, 1, 1)


def test_bounding_box_vga_frame():
    box = bounding_box([Point(0, 0), Point(639, 479)])
    assert (box.m1, box.m2, box.m) == (640, 480, 307200)


def test_bounding_box_rejects_empty():
    with pytest.raises(EmptyInputError):
        bounding_box([])


def test_bounding_box_rejects_inverted_extents():
    with pytest.raises(ValueError):
        BoundingBox(1, 0, 0, 0)


@given(st.lists(points, min_size=1, max_size=50))
def test_bounding_box_is_tight(pts):
    box = bounding_box(pts)
    for x, y in pts:
        assert box.x_min <= x <= box.x_max and box.y_min <= y <= box.y_max
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    # shrinking any side by one cell loses a point
    assert box.x_min in xs and box.x_max in xs
    assert box.y_min in ys and box.y_max in ys
