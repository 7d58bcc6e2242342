"""Exact integer predicates and bounding-box arithmetic.

All operations are pure functions on immutable values; coordinates are
plain Python integers, so every determinant is evaluated exactly and is
unchanged by translating all points alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import EmptyInputError, NonIntegerCoordinateError


class Point(NamedTuple):
    """A 2-D grid point. Compares, sorts and hashes like the tuple (x, y)."""

    x: int
    y: int


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


def bounding_box(points: Sequence[Point]) -> BoundingBox:
    """Tightest axis-aligned bounding box of a non-empty point sequence.

    Every point must be an (x, y) pair and every coordinate a plain
    ``int``: floats cannot be ranked, and ``bool`` (an ``int`` subclass)
    would be ranked silently as 0 or 1.
    """
    if not points:
        raise EmptyInputError("cannot bound an empty point set")
    try:
        xs, ys = zip(*points, strict=True)
    except (TypeError, ValueError):
        raise NonIntegerCoordinateError("every point must be an (x, y) pair") from None
    if not (_INT_ONLY.issuperset(map(type, xs)) and _INT_ONLY.issuperset(map(type, ys))):
        bad = next(v for v in points if type(v[0]) is not int or type(v[1]) is not int)
        raise NonIntegerCoordinateError(f"point {tuple(bad)!r} has a non-int coordinate")
    return BoundingBox(min(xs), max(xs), min(ys), max(ys))
