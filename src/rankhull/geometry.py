"""Exact integer predicates and bounding-box arithmetic.

All operations are pure functions on immutable values; coordinates are
plain Python integers, so every determinant is evaluated exactly and is
unchanged by translating all points alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import countOf, itemgetter
from typing import Collection, Iterable, Iterator, NamedTuple, Sequence

from .errors import EmptyInputError, NonIntegerCoordinateError


class Point(NamedTuple):
    """A 2-D grid point. Compares, sorts and hashes like the tuple (x, y)."""

    x: int
    y: int


def new_points(pairs: Iterable[Iterable[int]]) -> Iterator[Point]:
    """The Point of each (x, y) pair, such as a tuple or a list, as read.

    Point(x, y) runs a Python-level __new__; this builds the same Points in C.
    """
    return map(tuple.__new__, repeat(Point), pairs)


@dataclass(frozen=True)
class BoundingBox:
    """Tightest axis-aligned box around a point set.

    Side lengths are inclusive cell counts, so a single point yields
    m1 = m2 = m = 1.
    """

    x_min: int
    x_max: int
    y_min: int
    y_max: int

    def __post_init__(self) -> None:
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise ValueError("bounding box extents are inverted")

    @property
    def m1(self) -> int:
        return self.x_max - self.x_min + 1

    @property
    def m2(self) -> int:
        return self.y_max - self.y_min + 1

    @property
    def m(self) -> int:
        """Area of the box in grid cells, the range of any rank function on it."""
        return self.m1 * self.m2


def orientation(v0: Point, v1: Point, v2: Point) -> int:
    """Orientation of v2 relative to the directed line v0 -> v1.

    +1  v2 strictly to the left (counter-clockwise turn)
     0  collinear
    -1  strictly to the right (clockwise turn)

    Sign of the cross product (v1 - v0) x (v2 - v0), evaluated in exact
    integer arithmetic.
    """
    cross = (v1[0] - v0[0]) * (v2[1] - v0[1]) - (v1[1] - v0[1]) * (v2[0] - v0[0])
    if cross > 0:
        return 1
    if cross < 0:
        return -1
    return 0


_INT_ONLY = frozenset((int,))


def check_grid(m1: int, m2: int, x_min: int = 1, y_min: int = 1) -> None:
    """The one grid rule: the sides are ints of at least 1, and the corner ints (`ValueError`)."""
    if not _INT_ONLY.issuperset(map(type, (m1, m2, x_min, y_min))) or min(m1, m2) < 1:
        raise ValueError("grid sides must be ints of at least 1, and the corner ints")


def coordinates(points: Collection[Point]) -> tuple[list[int], list[int]]:
    """The xs and the ys of a collection of (x, y) pairs, in order.

    Every coordinate must be a plain ``int``: floats cannot be ranked, and
    ``bool`` would be ranked silently as 0 or 1. The collection is read
    three times, for each point's len(), its [0] and its [1], straight into
    the two lists, with no object made per point.
    """
    try:
        pairs = countOf(map(len, points), 2) == len(points)
        if pairs:
            xs = list(map(itemgetter(0), points))
            ys = list(map(itemgetter(1), points))
    except (TypeError, LookupError):  # no len(), such as None, or no [0] and [1], such as a set
        pairs = False
    if not pairs:
        raise NonIntegerCoordinateError("every point must be an (x, y) pair")
    if countOf(map(type, xs), int) != len(xs) or countOf(map(type, ys), int) != len(ys):
        bad = next(v for v in zip(xs, ys) if not _INT_ONLY.issuperset(map(type, v)))
        raise NonIntegerCoordinateError(f"point {bad!r} has a non-int coordinate")
    return xs, ys


def bounding_box(points: Sequence[Point]) -> BoundingBox:
    """Tightest axis-aligned bounding box of a non-empty point sequence, by `coordinates`."""
    if not points:
        raise EmptyInputError("cannot bound an empty point set")
    xs, ys = coordinates(points)
    return BoundingBox(min(xs), max(xs), min(ys), max(ys))
