"""Point-set files and synthetic dense-set generation.

The text format is one point per line, two signed decimal integers
separated by whitespace; lines starting with '#' and blank lines are
ignored. There is no header.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Iterable, Sequence

from .bitrank import MAX_WORDS
from .errors import (
    BoxTooLargeError,
    CoordinateOverflowError,
    InvalidDensityError,
    ParseError,
)
from .geometry import Point
from .ranking import RankFunction, RankVariant


# Largest coordinate magnitude a point file may hold: 64 bits.
MAX_COORDINATE = (1 << 64) - 1


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
            try:
                x, y = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-integer coordinate") from None
            if abs(x) > MAX_COORDINATE or abs(y) > MAX_COORDINATE:
                raise CoordinateOverflowError(
                    f"{path}:{lineno}: coordinate exceeds 64-bit range"
                )
            points.append(Point(x, y))
    return points


def save_points(path: str | Path, points: Iterable[Point]) -> None:
    """Write points in the text format read back by :func:`load_points`."""
    with open(path, "w", encoding="utf-8") as fh:
        for x, y in points:
            fh.write(f"{x} {y}\n")


def generate_dense_set(
    m1: int,
    m2: int,
    density: float | None = None,
    seed: int = 0,
    count: int | None = None,
) -> list[Point]:
    """Sample distinct grid points uniformly without replacement.

    Exactly one of `density` and `count` selects the sample size; a
    density D yields n = round(D * m1 * m2). Cells are identified by their
    column-major rank and drawn with `random.sample`, a partial shuffle of
    the index range, so the result is exact even at densities close to 1
    and is reproducible for a given seed. Points come back in sample
    order, not rank order.
    """
    if type(m1) is not int or type(m2) is not int or m1 < 1 or m2 < 1:
        raise ValueError(f"grid sides must be ints of at least 1, not {m1!r} x {m2!r}")
    m = m1 * m2
    # the largest box the rank path takes at p = 64
    if m > MAX_WORDS * 64:
        raise BoxTooLargeError(f"grid of {m} cells exceeds cap {MAX_WORDS * 64}")
    if (density is None) == (count is None):
        raise ValueError("provide exactly one of density and count")
    if density is not None:
        if not 0 < density <= 1:
            raise InvalidDensityError(f"density must be in (0, 1], got {density}")
        n = round(density * m)
    else:
        n = count
        if type(n) is not int or not 0 <= n <= m:
            raise InvalidDensityError(f"count must be an int in [0, {m}], got {n!r}")
    rf = RankFunction(RankVariant.COLUMN_MAJOR, m1, m2)
    rng = random.Random(seed)
    return rf.unrank_all(rng.sample(range(1, m + 1), n))
