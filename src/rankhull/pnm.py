"""Minimal portable anymap reader for binary masks.

Supports the bitmap and graymap members of the family: P1/P4 (bitmap,
ASCII/packed) and P2/P5 (graymap, ASCII/binary). Color maps and anything
else are rejected. Pixels are addressed with x rightward and y downward
from the top-left origin (0, 0), one point per foreground pixel. The
foreground rule is the same for every format and lives in
:func:`image_to_points`: a sample at or above the threshold is ink.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .errors import MalformedHeaderError, ParseError, UnsupportedFormatError
from .geometry import Point

_WHITESPACE = b" \t\r\n\v\f"


@dataclass(frozen=True)
class ImageMask:
    """Decoded raster.

    `samples` is row-major, length width * height. Bitmaps have maxval 1
    with 1 meaning ink (foreground); graymaps hold 0..maxval.
    """

    width: int
    height: int
    maxval: int
    samples: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.samples) != self.width * self.height:
            raise ValueError("sample count does not match dimensions")


def _header_tokens(data: bytes) -> Iterator[tuple[bytes, int]]:
    """Yield (token, end_offset) pairs, skipping whitespace and # comments."""
    i = 0
    size = len(data)
    while i < size:
        c = data[i:i + 1]
        if c in _WHITESPACE:
            i += 1
            continue
        if c == b"#":
            while i < size and data[i:i + 1] != b"\n":
                i += 1
            continue
        start = i
        while i < size and data[i:i + 1] not in _WHITESPACE:
            i += 1
        yield data[start:i], i
    return


def _ascii_body(data: bytes) -> str:
    # comments are legal between any two tokens in the ASCII formats
    lines = data.decode("ascii", errors="replace").splitlines()
    return "\n".join(line.split("#", 1)[0] for line in lines)


def parse_pnm(data: bytes) -> ImageMask:
    """Decode P1/P2/P4/P5 bytes into an :class:`ImageMask`."""
    tokens = _header_tokens(data)
    try:
        magic, _ = next(tokens)
    except StopIteration:
        raise UnsupportedFormatError("empty file") from None
    if magic not in (b"P1", b"P2", b"P4", b"P5"):
        raise UnsupportedFormatError(
            f"magic {magic!r} is not a supported bitmap/graymap format"
        )
    grayscale = magic in (b"P2", b"P5")
    wanted = 3 if grayscale else 2
    fields = []
    end = 0
    for token, end in tokens:
        try:
            fields.append(int(token))
        except ValueError:
            raise MalformedHeaderError(f"non-numeric header field {token!r}") from None
        if len(fields) == wanted:
            break
    if len(fields) < wanted:
        raise MalformedHeaderError("truncated header")
    width, height = fields[0], fields[1]
    if width < 1 or height < 1:
        raise MalformedHeaderError(f"bad dimensions {width}x{height}")
    maxval = fields[2] if grayscale else 1
    if grayscale and not 1 <= maxval <= 65535:
        raise MalformedHeaderError(f"maxval {maxval} outside [1, 65535]")
    count = width * height

    if magic == b"P1":
        bits = [c for c in _ascii_body(data[end:]) if not c.isspace()]
        if len(bits) < count:
            raise ParseError("bitmap data truncated")
        if any(c not in "01" for c in bits[:count]):
            raise ParseError("bitmap sample is not 0 or 1")
        samples = tuple(int(c) for c in bits[:count])
    elif magic == b"P2":
        values = _ascii_body(data[end:]).split()
        if len(values) < count:
            raise ParseError("graymap data truncated")
        try:
            samples = tuple(int(v) for v in values[:count])
        except ValueError:
            raise ParseError("non-integer graymap sample") from None
        if any(not 0 <= s <= maxval for s in samples):
            raise ParseError("graymap sample outside [0, maxval]")
    else:
        # binary raster begins after exactly one whitespace byte
        raster = data[end + 1:]
        if magic == b"P4":
            row_bytes = (width + 7) // 8
            if len(raster) < row_bytes * height:
                raise ParseError("bitmap data truncated")
            out = []
            for y in range(height):
                row = raster[y * row_bytes:(y + 1) * row_bytes]
                for x in range(width):
                    out.append(row[x >> 3] >> (7 - (x & 7)) & 1)
            samples = tuple(out)
        else:
            per = 1 if maxval < 256 else 2
            if len(raster) < count * per:
                raise ParseError("graymap data truncated")
            if per == 1:
                samples = tuple(raster[:count])
            else:
                samples = tuple(
                    raster[2 * i] << 8 | raster[2 * i + 1] for i in range(count)
                )
            if any(s > maxval for s in samples):
                raise ParseError("graymap sample outside [0, maxval]")

    return ImageMask(width, height, maxval, samples)


def load_image_mask(path: str | Path) -> ImageMask:
    with open(path, "rb") as fh:
        return parse_pnm(fh.read())


def image_to_points(mask: ImageMask, threshold: int = 1) -> list[Point]:
    """One point per foreground pixel, at the pixel's integer position.

    A pixel is foreground when its sample is at least `threshold`, which
    must lie in [0, maxval]. The default 1 takes a bitmap's set bits and a
    graymap's nonzero samples; 0 takes every pixel.
    """
    if not 0 <= threshold <= mask.maxval:
        raise ValueError(f"threshold {threshold} outside [0, {mask.maxval}]")
    points = []
    samples = mask.samples
    i = 0
    for y in range(mask.height):
        for x in range(mask.width):
            if samples[i] >= threshold:
                points.append(Point(x, y))
            i += 1
    return points
