"""Seeded workload inputs, made with the benchmark's own generators.

Nothing here calls ``rankhull.pointio``: a change to the library's
generators must not change what the benchmark measures. Every input has an
exact point count and, for point lists, an exact bounding box, so that runs
with different seeds do the same amount of work.
"""

from __future__ import annotations

import hashlib
import math
import random
from array import array
from dataclasses import dataclass

from checkout import rankhull

Point = rankhull.Point
pnm = rankhull.pnm


@dataclass(frozen=True)
class Workload:
    """One kind of input and the public call path it goes through.

    ``kind`` is ``"points"`` (an in-memory list handed to the hull call) or
    ``"image"`` (P4 bytes that go through ``parse_pnm`` and
    ``image_to_points`` first). ``n`` is the exact number of distinct input
    points, foreground pixels for an image; ``cases`` inputs are made per
    run and used in turn.
    """

    name: str
    kind: str
    width: int
    height: int
    n: int
    cases: int


@dataclass(frozen=True)
class Case:
    """One generated input with its reference hull and digest."""

    raw: object  # list[Point] for point workloads, P4 bytes for images
    reference: rankhull.HullPolygon
    n: int
    digest: dict


def uniform_points(rng: random.Random, width: int, height: int, n: int) -> list[Point]:
    """``n`` distinct points uniform in a ``width`` x ``height`` box.

    One point is placed on each side of the box so the bounding box, and so
    the rank range m, is the same for every seed.
    """
    if n < 4 or n > width * height:
        raise ValueError("need 4 <= n <= width * height")
    chosen = dict.fromkeys([
        (0, rng.randrange(height)),
        (width - 1, rng.randrange(height)),
        (rng.randrange(width), 0),
        (rng.randrange(width), height - 1),
    ])
    while len(chosen) < n:
        chosen[(rng.randrange(width), rng.randrange(height))] = None
    points = [Point(x, y) for x, y in chosen]
    rng.shuffle(points)
    return points


def ellipse_pixels(rng: random.Random, width: int, height: int, n: int) -> list[Point]:
    """Foreground pixels of random filled ellipses, exactly ``n`` of them.

    Ellipses of random centre, semi-axes 4..16 px and angle are painted until
    ``n`` pixels are set; the last one is cut off in scan order at ``n``.
    """
    if n > width * height:
        raise ValueError("more foreground pixels than the image holds")
    ink = bytearray(width * height)
    pixels: list[Point] = []
    while len(pixels) < n:
        cx, cy = rng.uniform(0, width), rng.uniform(0, height)
        a, b = rng.uniform(4, 16), rng.uniform(4, 16)
        theta = rng.uniform(0, math.pi)
        c, s = math.cos(theta), math.sin(theta)
        r = max(a, b)
        for y in range(max(0, int(cy - r)), min(height, int(cy + r) + 1)):
            for x in range(max(0, int(cx - r)), min(width, int(cx + r) + 1)):
                dx, dy = x - cx, y - cy
                u, v = (dx * c + dy * s) / a, (dy * c - dx * s) / b
                if u * u + v * v <= 1 and not ink[y * width + x]:
                    ink[y * width + x] = 1
                    pixels.append(Point(x, y))
                    if len(pixels) == n:
                        return pixels
    return pixels


_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def encode_p4(width: int, height: int, pixels: list[Point]) -> bytes:
    """Packed bitmap (P4) bytes with the given pixels set."""
    stride = (width + 7) // 8 * 8
    ink = bytearray(stride * height)
    for x, y in pixels:
        ink[y * stride + x] = 1
    rows = [
        int(ink[y * stride:(y + 1) * stride].translate(_TO_DIGITS), 2)
        .to_bytes(stride // 8, "big")
        for y in range(height)
    ]
    return b"P4\n%d %d\n" % (width, height) + b"".join(rows)


def make_case(wl: Workload, rng: random.Random) -> Case:
    """Generate one input and confirm its reference hull.

    The reference comes from ``hull_oracle`` on the generator's own point
    list, so the image decode path is checked against it too.
    """
    if wl.kind == "points":
        points = uniform_points(rng, wl.width, wl.height, wl.n)
        raw = points
        blob = array("q", [c for pt in points for c in pt]).tobytes()
    elif wl.kind == "image":
        points = ellipse_pixels(rng, wl.width, wl.height, wl.n)
        raw = blob = encode_p4(wl.width, wl.height, points)
    else:
        raise ValueError(f"unknown workload kind {wl.kind!r}")
    reference = rankhull.hull_oracle(points)
    if not (rankhull.is_convex(reference) and rankhull.contains_all(reference, points)):
        raise AssertionError(f"{wl.name}: reference hull failed its check")
    box = rankhull.bounding_box(points)
    digest = {
        "n": len(points),
        "m": box.m,
        "hull_vertices": len(reference),
        "sha256": hashlib.sha256(blob).hexdigest(),
    }
    return Case(raw, reference, len(points), digest)


def make_cases(wl: Workload, seed: int) -> list[Case]:
    """The run's inputs: the same seed always gives the same cases."""
    rng = random.Random(f"hullbench:{wl.name}:{seed}")
    return [make_case(wl, rng) for _ in range(wl.cases)]


def to_points(wl: Workload, raw) -> list[Point]:
    """The public parse path from a workload's raw input to a point list."""
    if wl.kind == "image":
        return pnm.image_to_points(pnm.parse_pnm(raw))
    return raw
