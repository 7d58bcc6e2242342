"""Minimal portable anymap reader for binary masks.

Supports the bitmap and graymap members of the family: P1/P4 (bitmap,
ASCII/packed) and P2/P5 (graymap, ASCII/binary). Color maps and anything
else are rejected. One tokenizer reads the header and the ASCII rasters:
tokens are separated by whitespace, and a ``#`` anywhere, even inside a
token, starts a comment that runs to the next CR or LF. Header fields
and P2 samples are ASCII decimal digits, with no sign. A binary raster
starts one whitespace byte after the header. Decoding runs at C speed, per
row at worst, never per pixel: a P4 raster unpacks in one conversion of
the whole raster to a base-2 string, whose digits one translate maps to
samples. Pixels are addressed with x rightward and y downward from the
top-left origin (0, 0), one point per foreground pixel. The foreground
rule is the same for every format and lives in :func:`image_to_points`: a
sample at or above the threshold is ink. The scan does C work per pixel
and Python work per chunk of about 4 KiB of whole rows and per inked row:
each chunk is thresholded to 0/1 bytes in C, and `find` skips blank rows.
"""

from __future__ import annotations

import re
import sys
from array import array
from dataclasses import dataclass
from itertools import chain, compress, islice, repeat
from operator import ge
from pathlib import Path
from typing import Iterator, Sequence

from .errors import MalformedHeaderError, ParseError, UnsupportedFormatError
from .geometry import _INT_ONLY, Point, new_points

# A comment matches with an empty group, so only tokens come out non-empty.
_TOKEN = re.compile(rb"#[^\r\n]*|([^\s#]+)")
# a P4 bit, written as a base-2 digit -> sample
_BITS = bytes.maketrans(b"01", b"\0\1")
# P1 digit -> sample; any other byte maps to 255, which fails the range check
_DIGITS = b"\xff" * 48 + b"\0\1" + b"\xff" * 206
# about this many samples of whole rows are handled at a time (one longer row)
_CHUNK = 4096


def check_mask_header(
    width: int, height: int, maxval: int, error: type[Exception]
) -> None:
    """The one image-mask rule, raising `error` when it fails.

    The width, height and maxval are plain ints, not floats, bools or
    strings; the sides are at least 1, and maxval is in [1, 65535].
    """
    if not _INT_ONLY.issuperset(map(type, (width, height, maxval))):
        raise error("width, height and maxval must be ints")
    if width < 1 or height < 1:
        raise error(f"bad dimensions {width}x{height}")
    if not 1 <= maxval <= 65535:
        raise error(f"maxval {maxval} outside [1, 65535]")


@dataclass(frozen=True)
class ImageMask:
    """Decoded raster.

    `samples` is row-major, length width * height. Bitmaps have maxval 1
    with 1 meaning ink (foreground); graymaps hold 0..maxval. A parsed
    mask stores one byte per sample (`bytes`) when maxval < 256 and an
    `array('H')` otherwise; any sequence of ints works here. The width,
    height and maxval follow :func:`check_mask_header`.
    """

    width: int
    height: int
    maxval: int
    samples: Sequence[int]

    def __post_init__(self) -> None:
        check_mask_header(self.width, self.height, self.maxval, ValueError)
        if len(self.samples) != self.width * self.height:
            raise ValueError("sample count does not match dimensions")


def parse_pnm(data: bytes) -> ImageMask:
    """Decode P1/P2/P4/P5 bytes into an :class:`ImageMask`."""
    header = (m for m in _TOKEN.finditer(data) if m[1])
    first = next(header, None)
    if first is None:
        raise UnsupportedFormatError("empty file")
    magic = first[1]
    if magic not in (b"P1", b"P2", b"P4", b"P5"):
        raise UnsupportedFormatError(
            f"magic {magic!r} is not a supported bitmap/graymap format"
        )
    grayscale = magic in (b"P2", b"P5")
    wanted = 3 if grayscale else 2
    fields = list(islice(header, wanted))
    if len(fields) < wanted:
        raise MalformedHeaderError("truncated header")
    # ASCII digits only: int() would also take a sign or underscores, as in b"+1_0"
    if not b"".join(f[1] for f in fields).isdigit():
        raise MalformedHeaderError("non-numeric header field")
    try:
        values = [int(f[1]) for f in fields]
    except ValueError:  # past int()'s limit on digits
        raise MalformedHeaderError("header field has too many digits") from None
    width, height = values[0], values[1]
    maxval = values[2] if grayscale else 1
    check_mask_header(width, height, maxval, MalformedHeaderError)
    count = width * height
    wide = maxval > 255
    end = fields[-1].end()
    start = end + 1

    # every truncation check runs before anything of width * height is built
    if magic == b"P1":
        digits = b"".join(_TOKEN.findall(data, end))
        if len(digits) < count:
            raise ParseError("bitmap data truncated")
        samples = digits[:count].translate(_DIGITS)
    elif magic == b"P2":
        tokens = list(filter(None, _TOKEN.findall(data, end)))[:count]
        if len(tokens) < count:
            raise ParseError("graymap data truncated")
        if not b"".join(tokens).isdigit():  # ASCII digits only, as in the header
            raise ParseError("graymap sample is not a decimal number")
        try:
            samples = array("H" if wide else "B", map(int, tokens))
        except (ValueError, OverflowError):
            raise ParseError("graymap sample is not an integer in [0, 65535]") from None
        if not wide:
            samples = samples.tobytes()
    elif data[end:start] == b"#":
        raise MalformedHeaderError("no whitespace byte before the binary raster")
    elif magic == b"P4":
        row_bits = (width + 7) // 8 * 8
        stop = start + row_bits // 8 * height
        if len(data) < stop:
            raise ParseError("bitmap data truncated")
        nbits = row_bits * height
        # one expression, so each temporary goes as soon as the next is
        # made; zero-padded to full length, or leading blank rows would vanish
        samples = format(
            int.from_bytes(data[start:stop], "big"), f"0{nbits}b"
        ).encode("ascii").translate(_BITS)
        if row_bits != width:  # drop each row's padding bits
            # ~4 KiB of rows per join: a bytes object per row cost 1-wide rasters 89 B a pixel
            starts, rows = range(0, nbits, row_bits), max(1, _CHUNK // width)
            chunks = [b"".join([samples[i:i + width] for i in starts[k:k + rows]])
                      for k in range(0, height, rows)]
            del samples  # free the padded raster before the last join copies
            samples = b"".join(chunks)
    else:
        stop = start + count * (2 if wide else 1)
        if len(data) < stop:
            raise ParseError("graymap data truncated")
        samples = data[start:stop]
        if wide:
            samples = array("H", samples)
            if sys.byteorder == "little":
                samples.byteswap()  # the raster is big-endian

    # a P4 sample is a bit by construction; every other decoder can overshoot
    if magic != b"P4" and max(samples) > maxval:
        raise ParseError(f"sample outside [0, {maxval}]")
    return ImageMask(width, height, maxval, samples)


def load_image_mask(path: str | Path) -> ImageMask:
    with open(path, "rb") as fh:
        return parse_pnm(fh.read())


def _inked_rows(mask: ImageMask, threshold: int) -> Iterator[Iterator[tuple[int, int]]]:
    """The (x, y) pairs of each inked row, in row-major order.

    Each chunk of about 4 KiB of whole rows is thresholded to 0/1 bytes in
    C: byte samples take one translate through a table built once per call,
    any other sequence a comparison per sample. `find` jumps to the next
    inked row, and one `compress` reads that row up to its last ink.
    """
    width, samples = mask.width, mask.samples
    table = None
    if isinstance(samples, (bytes, bytearray)):
        table = bytes(map(ge, range(256), repeat(threshold)))
    step = max(1, _CHUNK // width) * width  # whole rows per chunk
    # compress yields these very ints, so a column's points share one x
    columns = list(range(width))
    for start in range(0, width * mask.height, step):
        chunk = samples[start:start + step]
        ink = chunk.translate(table) if table else bytes(map(ge, chunk, repeat(threshold)))
        first_y = start // width
        i = ink.find(1)
        while i >= 0:
            y = i // width
            row = y * width
            end = row + width
            yield zip(compress(columns, ink[row:ink.rfind(1, row, end) + 1]), repeat(first_y + y))
            i = ink.find(1, end)


def image_to_points(mask: ImageMask, threshold: int = 1) -> list[Point]:
    """One point per foreground pixel, at the pixel's integer position.

    A pixel is foreground when its sample is at least `threshold`, which
    must be an int (not a bool) in [0, maxval]. The default 1 takes a
    bitmap's set bits and a graymap's nonzero samples; 0 takes every
    pixel. Points come in row-major order; every point of a column shares
    one x int, and every point of a row one y int.

    A call does C work per pixel and Python work per chunk of about 4 KiB
    of whole rows and per inked row, never per blank row or per pixel
    (see :func:`_inked_rows`).
    """
    if type(threshold) is not int:
        raise ValueError(f"threshold {threshold!r} is not an int")
    if not 0 <= threshold <= mask.maxval:
        raise ValueError(f"threshold {threshold} outside [0, {mask.maxval}]")
    return list(new_points(chain.from_iterable(_inked_rows(mask, threshold))))
