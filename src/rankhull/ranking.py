"""Grid rank functions and the simple-chain ordering they induce.

A rank function is a bijection from an m1 x m2 grid of integer points onto
[1..m]. The grid's lowest corner is (x_min, y_min): (1, 1) gives the
paper's normalized grid, and a bounding box's corner ranks the caller's
points in place, with no translated copy. Visiting points by ascending
rank traces a zig-zag over the grid columns (or rows), which is a simple
polygonal chain on any subset of grid points: exactly the ordering a
single-pass hull scan needs, obtained without a comparison sort.

`RankFunction` is the only code that knows the f1/f2 layout: its forward
rank path serves both `rank` and step 3's bit table, and `offsets` gives
its inverse as an `OffsetView`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from operator import floordiv, mod, sub

from .errors import (
    NonIntegerCoordinateError, OutOfGridError, RankHullError, RankOutOfRangeError,
)
from .geometry import _INT_ONLY, Point, new_point


class RankVariant(Enum):
    """Grid traversal order. Values double as the CLI spelling."""

    COLUMN_MAJOR = "f1"
    ROW_MAJOR = "f2"


@dataclass(frozen=True)
class RankFunction:
    """A bijection between grid points and ranks 1..m.

    A point at offset (dx, dy) = (x - x_min, y - y_min) has rank
    dx * sx + dy * sy + 1. The line layout (sx, sy) is (m2, 1) for f1,
    column by column, and (1, m1) for f2, row by row. Both invert with one
    divmod (`offsets`), and `to_points` is the one translation from those
    offsets back to the caller's points.
    """

    variant: RankVariant
    m1: int
    m2: int
    x_min: int = 1
    y_min: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.variant, RankVariant):
            raise ValueError(f"rank variant must be a RankVariant, not {self.variant!r}")
        if self.m1 < 1 or self.m2 < 1:
            raise ValueError("grid sides must be at least 1")

    @property
    def m(self) -> int:
        return self.m1 * self.m2

    def _cells(self, points: Iterable[Point]) -> Iterator[int]:
        """The 0-based cell of each point: the one forward rank path and bounds test."""
        x0, y0, m1, m2 = self.x_min, self.y_min, self.m1, self.m2
        sx, sy = (m2, 1) if self.variant is RankVariant.COLUMN_MAJOR else (1, m1)
        for x, y in points:
            dx, dy = x - x0, y - y0
            if not (0 <= dx < m1 and 0 <= dy < m2):
                raise OutOfGridError(f"{(x, y)} outside the {m1}x{m2} grid at ({x0}, {y0})")
            yield dx * sx + dy * sy

    def rank(self, v: Point) -> int:
        """The rank of one point, an (x, y) pair of ints as `bounding_box` requires.

        A float or ``bool`` coordinate, or a point that is not a pair,
        raises `NonIntegerCoordinateError`.
        """
        try:
            if _INT_ONLY.issuperset(map(type, v)):
                (cell,) = self._cells((v,))
                return cell + 1
        except (TypeError, ValueError):
            pass
        raise NonIntegerCoordinateError(f"{v!r} is not an (x, y) pair of ints")

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

    def offsets(self, ranks: Sequence[int]) -> OffsetView:
        """The box-relative (x - x_min, y - y_min) of each rank, in order.

        The ranks are checked here: `ranks` must be a sequence of ints, such
        as a list or range, and a rank that is not an int in [1, m] raises
        `RankOutOfRangeError`. The offsets themselves are read lazily from
        the returned `OffsetView`, which has the length of `ranks`, holds
        no per-rank list and may be iterated more than once. `ranks` is not
        copied.
        """
        if not isinstance(ranks, Sequence):
            raise RankHullError(f"ranks must be a sequence, not {type(ranks).__name__}")
        m = self.m
        if ranks and not (
            _INT_ONLY.issuperset(map(type, ranks)) and 1 <= min(ranks) and max(ranks) <= m
        ):
            bad = next(r for r in ranks if type(r) is not int or not 1 <= r <= m)
            raise RankOutOfRangeError(f"rank {bad!r} is not an int in [1, {m}]")
        return OffsetView(ranks, self)


class OffsetView:
    """The box offsets of checked ranks, computed as they are read.

    This is the one rank inverse, a divmod per rank: f1's quotient and
    remainder are the offsets, f2's are the offsets swapped. Each iteration
    runs it afresh over the ranks with C-level maps, so no Python code runs
    per rank and no offset outlives its turn unless the reader keeps it.
    `len` is the number of ranks. Made by `RankFunction.offsets`.
    """

    __slots__ = ("_ranks", "_rf")

    def __init__(self, ranks: Sequence[int], rf: RankFunction) -> None:
        self._ranks, self._rf = ranks, rf

    def __len__(self) -> int:
        return len(self._ranks)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        ranks, rf = self._ranks, self._rf
        if rf.variant is RankVariant.COLUMN_MAJOR:
            return map(divmod, map(sub, ranks, repeat(1)), repeat(rf.m2))
        return zip(
            map(mod, map(sub, ranks, repeat(1)), repeat(rf.m1)),
            map(floordiv, map(sub, ranks, repeat(1)), repeat(rf.m1)),
        )
