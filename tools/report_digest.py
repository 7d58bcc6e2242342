"""Digest every value field of the pipeline's reports over a fixed set of inputs.

Run from a checkout, with its ``src`` on the path:

    PYTHONPATH=src python tools/report_digest.py

It prints the number of records and their sha256 (`digest`), which
``tests/test_report_digest.py`` pins. A change that keeps
every hull, count and route prints the same two values as its parent, so
pointing ``PYTHONPATH`` at another tree's ``src`` compares the two.

The inputs come from `random.Random` seeds here, not from the library's
generators or the bench, so no change to either can move them: the
bench's three workload shapes (a dense uniform box, a sparse box and a
mask of ellipses), small random sets with corners at 0, below 0, at 10^9
and at +-2^70, wide and tall strips, duplicates, tuples and `Point`s, a
box over the byte table's cap, the empty set and bad inputs. Each runs
through `pipeline._hull` on the cost model's route and on each named
route. A record holds the report's fields by value (the hull's vertices
as int pairs, `degenerate`, n, m, m1, m2, density, `duplicates_skipped`,
the three counters, and the rank layout's and route's values) but not
`step_ns`, which is a timing; a call that raises gives its error's class
and message instead.
"""

from __future__ import annotations

import hashlib
import json
import random

import rankhull
from rankhull.pipeline import Route, _hull

ROUTES = (None, Route.SORT, Route.EXTREMES)
CORNERS = ((0, 0), (-37, -5), (-(2**70), 2**70), (10**9, 10**9), (2**70, -(2**70)))


def dense(rng: random.Random) -> list[tuple[int, int]]:
    """Points at density 0.10 in a 480 x 360 box."""
    return [divmod(c, 360) for c in rng.sample(range(480 * 360), 17_280)]


def sparse(rng: random.Random) -> list[tuple[int, int]]:
    """1,024 points in a 2048 x 2048 box."""
    return [divmod(c, 2048) for c in rng.sample(range(2048 * 2048), 1024)]


def ellipses(rng: random.Random) -> list[rankhull.Point]:
    """The inked pixels of filled ellipses on a 640 x 480 mask, to 3% ink, in row-major order."""
    ink: set[tuple[int, int]] = set()
    while len(ink) < 640 * 480 * 3 // 100:
        a, b = rng.randint(8, 60), rng.randint(8, 60)
        cx, cy = rng.randint(a, 639 - a), rng.randint(b, 479 - b)
        for y in range(cy - b, cy + b + 1):
            for x in range(cx - a, cx + a + 1):
                if b * b * (x - cx) ** 2 + a * a * (y - cy) ** 2 <= a * a * b * b:
                    ink.add((x, y))
    return [rankhull.Point(x, y) for y, x in sorted((y, x) for x, y in ink)]


def small(rng: random.Random) -> list:
    """A small set: a corner, a shape, maybe duplicates, as tuples or Points."""
    x0, y0 = rng.choice(CORNERS)
    shape = rng.choice(("square", "wide", "tall", "line", "tiny"))
    w, h = {
        "square": (rng.randint(1, 60), rng.randint(1, 60)),
        "wide": (rng.randint(100, 4000), rng.randint(1, 4)),
        "tall": (rng.randint(1, 4), rng.randint(100, 4000)),
        "line": (rng.randint(1, 300), 1),
        "tiny": (rng.randint(1, 3), rng.randint(1, 3)),
    }[shape]
    n = rng.randint(1, min(w * h, 200))
    pts = [(x0 + c // h, y0 + c % h) for c in rng.sample(range(w * h), n)]
    if rng.random() < 0.3:
        pts += rng.choices(pts, k=rng.randint(1, n))
        rng.shuffle(pts)
    if rng.random() < 0.5:
        pts = [rankhull.Point(x, y) for x, y in pts]
    return pts


def inputs() -> list:
    sets = []
    for seed in (11, 3):
        rng = random.Random(seed)
        sets += [dense(rng), sparse(rng), ellipses(rng)]
    rng = random.Random(2013)
    sets += [small(rng) for _ in range(600)]
    sets += [
        [(0, 0), (20_000, 20_000), (20_000, 0), (20_000, 0)],  # over the byte table's cap
        [],
        [(0.5, 1), (2, 3)],
        [(True, 1), (2, 3)],
        [(1, 2, 3), (0, 0)],
        [("1", 2)],
        iter([(0, 0), (1, 1)]),
        None,
    ]
    return sets


def record(points, route: Route | None) -> list:
    try:
        r = _hull(points, route)
    except Exception as exc:  # the error is the record
        return [type(exc).__name__, str(exc)]
    c = r.counters
    return [
        [[int(x), int(y)] for x, y in r.hull.vertices], r.hull.degenerate,
        r.n, r.m, r.m1, r.m2, r.density, r.duplicates_skipped,
        c.isleft_evals, c.shuffle_iterations, c.deque_ops,
        r.rank_variant.value, r.route.value,
    ]


def digest() -> tuple[int, str]:
    """The number of records and the sha256 of their JSON lines, in input and route order."""
    sha = hashlib.sha256()
    count = 0
    for points in inputs():
        for route in ROUTES:
            sha.update(json.dumps(record(points, route)).encode() + b"\n")
            count += 1
    return count, sha.hexdigest()


def main() -> None:
    count, hexdigest = digest()
    print(f"{count} records, sha256 {hexdigest}")


if __name__ == "__main__":
    main()
