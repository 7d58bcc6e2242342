"""Point-set files and synthetic dense-set generation.

The text format is one point per line, two signed decimal integers (an
optional `+` or `-`, then ASCII digits) separated by whitespace; lines
starting with '#' and blank lines are ignored. There is no header, and
coordinates are at most 64 bits wide.
`save_points` writes only what `load_points` reads back.
"""

from __future__ import annotations

import random
import re
from pathlib import Path
from typing import Iterable, Iterator

from .errors import (
    BoxTooLargeError,
    CoordinateOverflowError,
    InvalidDensityError,
    ParseError,
)
from .geometry import Point, check_grid, coordinates, new_points


# A point file's coordinate. Python's int() would also take underscores and
# non-ASCII digits, such as "1_0" or "٣".
_COORDINATE = re.compile(r"[+-]?[0-9]+")
# Largest coordinate magnitude a point file may hold: 64 bits.
MAX_COORDINATE = (1 << 64) - 1
# Largest grid `generate_dense_set` samples from: 2^30 cells.
MAX_GRID_CELLS = 1 << 30


def load_points(path: str | Path) -> list[Point]:
    """Parse a point file, rejecting coordinates wider than 64 bits."""
    points = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(
                    f"{path}:{lineno}: expected two integers, got {len(parts)} fields"
                )
            if not all(map(_COORDINATE.fullmatch, parts)):
                raise ParseError(f"{path}:{lineno}: non-integer coordinate")
            try:
                x, y = map(int, parts)
            except ValueError:  # past int()'s limit on digits
                raise ParseError(f"{path}:{lineno}: coordinate has too many digits") from None
            if abs(x) > MAX_COORDINATE or abs(y) > MAX_COORDINATE:
                raise CoordinateOverflowError(
                    f"{path}:{lineno}: coordinate exceeds 64-bit range"
                )
            points.append(Point(x, y))
    return points


def save_points(path: str | Path, points: Iterable[Point]) -> None:
    """Write points in the one format :func:`load_points` reads back.

    The points are read through :func:`~rankhull.geometry.coordinates`, so
    each must be a pair of plain ints (`NonIntegerCoordinateError`), and no
    coordinate may be wider than 64 bits (`CoordinateOverflowError`). Both
    are checked before the file is opened, so a rejected call leaves any
    file at `path` as it was. An iterator of points is read once, in full.
    """
    xs, ys = coordinates(list(points) if isinstance(points, Iterator) else points)
    if xs and max(max(xs), -min(xs), max(ys), -min(ys)) > MAX_COORDINATE:
        raise CoordinateOverflowError(f"{path}: coordinate exceeds 64-bit range")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(map("{} {}\n".format, xs, ys))


def sample_size(m: int, density: float | None, count: int | None) -> int:
    """The number n of points to draw from a box of m cells: the one sample-size rule.

    Exactly one of `density` and `count` must be given (`ValueError`). A
    density is a number in (0, 1], such as an int, a float or a `Fraction`
    but not a bool, and gives n = round(density * m); a count is an int in
    [0, m]. Anything else raises `InvalidDensityError`.
    """
    if (density is None) == (count is None):
        raise ValueError("provide exactly one of density and count")
    if count is not None:
        if type(count) is not int or not 0 <= count <= m:
            raise InvalidDensityError(f"count must be an int in [0, {m}], got {count!r}")
        return count
    try:
        if type(density) is not bool and 0 < density <= 1:
            return round(density * m)
    except TypeError:  # not comparable with numbers, such as a str
        pass
    raise InvalidDensityError(f"density must be a number in (0, 1], got {density!r}")


def generate_dense_set(
    m1: int,
    m2: int,
    density: float | None = None,
    seed: int = 0,
    count: int | None = None,
) -> list[Point]:
    """Sample distinct grid points uniformly without replacement.

    The grid is m1 x m2 at corner (1, 1), its sides checked by
    :func:`~rankhull.geometry.check_grid`, of at most `MAX_GRID_CELLS`
    cells (:class:`BoxTooLargeError`), and :func:`sample_size` turns
    exactly one of `density` and `count` into n. Cells are numbered column
    by column from 0 and drawn with `random.sample`, a partial shuffle of
    the index range, so the result is exact even at densities close to 1
    and is reproducible for a given seed; cell c is the point
    (1 + c // m2, 1 + c % m2). Points come back in sample order, not rank order.
    """
    check_grid(m1, m2)
    m = m1 * m2
    if m > MAX_GRID_CELLS:
        raise BoxTooLargeError(f"grid of {m} cells exceeds cap {MAX_GRID_CELLS}")
    n = sample_size(m, density, count)
    rng = random.Random(seed)
    return list(new_points((1 + c // m2, 1 + c % m2) for c in rng.sample(range(m), n)))
