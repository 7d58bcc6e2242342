"""Grid rank functions and the simple-chain ordering they induce.

A rank function is a bijection from an m1 x m2 grid of integer points onto
[1..m]. The grid's lowest corner is (x_min, y_min): (1, 1) gives the
paper's normalized grid, and a bounding box's corner ranks the caller's
points in place, with no translated copy. Visiting points by ascending
rank traces a zig-zag over the grid columns (or rows), which is a simple
polygonal chain on any subset of grid points: exactly the ordering a
single-pass hull scan needs, obtained without a comparison sort.

`RankFunction` is the paper's rank function under either layout: `cells`
is its checked forward rank path, used by `rank`, and `offsets` its one
inverse, each a chain of C-level maps that is read once. The paper's
p-bit steps (`bitrank`), `generate_dense_set` and the tests rank through
it. The pipeline does not: f2 is f1 on the transposed points, so it swaps
a wide box's two columns once and ranks every call on one column-major
grid of plain ints, by the same arithmetic as `cells` under f1.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import chain, repeat
from operator import add, floordiv, mod, mul, sub

from .errors import (
    NonIntegerCoordinateError, OutOfGridError, RankHullError, RankOutOfRangeError,
)
from .geometry import _INT_ONLY, Point, coordinates, new_points


class RankVariant(Enum):
    """Grid traversal order. Values double as the CLI spelling."""

    COLUMN_MAJOR = "f1"
    ROW_MAJOR = "f2"


@dataclass(frozen=True)
class RankFunction:
    """A bijection between grid points and ranks 1..m.

    A point at offset (dx, dy) = (x - x_min, y - y_min) has rank
    dx * sx + dy * sy + 1. The line layout (sx, sy) is (m2, 1) for f1,
    column by column, and (1, m1) for f2, row by row; both invert with one
    divmod (`offsets`). The sides and the corner are ints.
    """

    variant: RankVariant
    m1: int
    m2: int
    x_min: int = 1
    y_min: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.variant, RankVariant):
            raise ValueError(f"rank variant must be a RankVariant, not {self.variant!r}")
        sides_and_corner = (self.m1, self.m2, self.x_min, self.y_min)
        if not _INT_ONLY.issuperset(map(type, sides_and_corner)) or min(self.m1, self.m2) < 1:
            raise ValueError("grid sides must be ints of at least 1, and the corner ints")

    @property
    def m(self) -> int:
        return self.m1 * self.m2

    def cells(self, xs: Sequence[int], ys: Sequence[int]) -> Iterator[int]:
        """The 0-based cell of each point (xs[i], ys[i]): the checked forward rank path.

        Checked first, at C speed: a coordinate that is not an int raises
        `NonIntegerCoordinateError`, and the first point off the grid `OutOfGridError`.
        """
        x0, y0, m1, m2 = self.x_min, self.y_min, self.m1, self.m2
        if len(xs) != len(ys) or not _INT_ONLY.issuperset(map(type, chain(xs, ys))):
            raise NonIntegerCoordinateError("xs and ys must be lists of ints of one length")
        x1, y1 = x0 + m1, y0 + m2
        if xs and not (x0 <= min(xs) and max(xs) < x1 and y0 <= min(ys) and max(ys) < y1):
            x, y = next(v for v in zip(xs, ys) if not (x0 <= v[0] < x1 and y0 <= v[1] < y1))
            raise OutOfGridError(f"{(x, y)} outside the {m1}x{m2} grid at ({x0}, {y0})")
        if self.variant is RankVariant.COLUMN_MAJOR:
            scaled, corner = map(add, map(mul, xs, repeat(m2)), ys), x0 * m2 + y0
        else:
            scaled, corner = map(add, xs, map(mul, ys, repeat(m1))), x0 + y0 * m1
        return map(sub, scaled, repeat(corner))

    def rank(self, v: Point) -> int:
        """The rank of one point, an (x, y) pair of ints as `coordinates` requires."""
        return next(self.cells(*coordinates((v,)))) + 1

    def unrank_all(self, ranks: Sequence[int]) -> list[Point]:
        """The point of each rank, in order."""
        return self.to_points(self.offsets(ranks))

    def to_points(self, offsets: Iterable[tuple[int, int]]) -> list[Point]:
        """The caller's point at each box offset: the one translation back from offsets."""
        x0, y0 = self.x_min, self.y_min
        return list(new_points((x0 + dx, y0 + dy) for dx, dy in offsets))

    def offsets(self, ranks: Sequence[int]) -> Iterator[tuple[int, int]]:
        """The box-relative (x - x_min, y - y_min) of each rank: the one rank inverse.

        `ranks` must be a sequence, such as a list or range, and a rank that
        is not an int in [1, m] raises `RankOutOfRangeError`. The returned
        iterator makes f1's divmod of each rank, or f2's swapped, as it is read.
        """
        if not isinstance(ranks, Sequence):
            raise RankHullError(f"ranks must be a sequence, not {type(ranks).__name__}")
        m = self.m
        if ranks and not (
            _INT_ONLY.issuperset(map(type, ranks)) and 1 <= min(ranks) and max(ranks) <= m
        ):
            bad = next(r for r in ranks if type(r) is not int or not 1 <= r <= m)
            raise RankOutOfRangeError(f"rank {bad!r} is not an int in [1, {m}]")
        if self.variant is RankVariant.COLUMN_MAJOR:
            return map(divmod, map(sub, ranks, repeat(1)), repeat(self.m2))
        # zip reuses its pair when the reader lets it go; an endless repeat can be shared
        one, m1 = repeat(1), repeat(self.m1)
        return zip(map(mod, map(sub, ranks, one), m1), map(floordiv, map(sub, ranks, one), m1))
