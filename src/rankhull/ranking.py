"""Grid rank functions and the simple-chain ordering they induce.

A rank function is a bijection from an m1 x m2 grid of integer points onto
[1..m]. The grid's lowest corner is (x_min, y_min): (1, 1) gives the
paper's normalized grid, and a bounding box's corner ranks the caller's
points in place, with no translated copy. Visiting points by ascending
rank traces a zig-zag over the grid columns (or rows), which is a simple
polygonal chain on any subset of grid points: exactly the ordering a
single-pass hull scan needs, obtained without a comparison sort.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from operator import floordiv, mod, sub

from .errors import OutOfGridError, RankHullError, RankOutOfRangeError
from .geometry import Point, new_point


class RankVariant(Enum):
    """Grid traversal order. Values double as the CLI spelling."""

    COLUMN_MAJOR = "f1"
    ROW_MAJOR = "f2"


@dataclass(frozen=True)
class RankFunction:
    """A bijection between grid points and ranks 1..m.

    With i = x - x_min + 1 and j = y - y_min + 1, column-major ranks column
    by column, bottom to top: rank = (i - 1) * m2 + j. Row-major is the
    transpose: rank = (j - 1) * m1 + i. Both invert with one divmod
    (`offsets`, relative to the grid's corner), and `to_points` is the one
    translation from those offsets back to the caller's points.
    """

    variant: RankVariant
    m1: int
    m2: int
    x_min: int = 1
    y_min: int = 1

    def __post_init__(self) -> None:
        if self.m1 < 1 or self.m2 < 1:
            raise ValueError("grid sides must be at least 1")

    @property
    def m(self) -> int:
        return self.m1 * self.m2

    def rank(self, v: Point) -> int:
        dx = v[0] - self.x_min
        dy = v[1] - self.y_min
        if not (0 <= dx < self.m1 and 0 <= dy < self.m2):
            raise OutOfGridError(
                f"{tuple(v)} outside the {self.m1}x{self.m2} grid "
                f"from ({self.x_min}, {self.y_min})"
            )
        if self.variant is RankVariant.COLUMN_MAJOR:
            return dx * self.m2 + dy + 1
        return dy * self.m1 + dx + 1

    def unrank(self, r: int) -> Point:
        return self.unrank_all((r,))[0]

    def unrank_all(self, ranks: Sequence[int]) -> list[Point]:
        """The point of each rank, in order."""
        return self.to_points(self.offsets(ranks))

    def to_points(self, offsets: Iterable[tuple[int, int]]) -> list[Point]:
        """The caller's point at each box offset: the offset plus the box corner.

        This is the one translation back from box offsets, used by
        `unrank_all` and for the vertices of the pipeline's hull.
        """
        x0, y0 = self.x_min, self.y_min
        return [new_point((x0 + dx, y0 + dy)) for dx, dy in offsets]

    def offsets(self, ranks: Sequence[int]) -> list[tuple[int, int]]:
        """The box-relative (x - x_min, y - y_min) of each rank, in order.

        This is the one rank inverse, a divmod per rank: f1's quotient and
        remainder are the offsets, f2's are the offsets swapped. The pairs
        are built by C-level maps, with no Python code run per rank. `ranks`
        must be a sequence, such as a list or range: it is read more than
        once, and is not copied.
        """
        if not isinstance(ranks, Sequence):
            raise RankHullError(f"ranks must be a sequence, not {type(ranks).__name__}")
        if ranks and not (1 <= min(ranks) and max(ranks) <= self.m):
            bad = next(r for r in ranks if not 1 <= r <= self.m)
            raise RankOutOfRangeError(f"rank {bad} outside [1, {self.m}]")
        if self.variant is RankVariant.COLUMN_MAJOR:
            return list(map(divmod, map(sub, ranks, repeat(1)), repeat(self.m2)))
        return list(zip(
            map(mod, map(sub, ranks, repeat(1)), repeat(self.m1)),
            map(floordiv, map(sub, ranks, repeat(1)), repeat(self.m1)),
        ))
