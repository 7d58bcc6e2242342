import gc
import random
import sys
import tracemalloc
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rankhull import pnm
from rankhull.errors import MalformedHeaderError, ParseError, UnsupportedFormatError
from rankhull.geometry import Point, bounding_box
from rankhull.pnm import ImageMask, image_to_points, load_image_mask, parse_pnm
from rankhull.pointio import generate_dense_set


def test_ascii_bitmap_diagonal():
    mask = parse_pnm(b"P1\n3 3\n1 0 0\n0 1 0\n0 0 1\n")
    assert image_to_points(mask) == [Point(0, 0), Point(1, 1), Point(2, 2)]


def test_ascii_bitmap_packed_digits():
    # P1 samples may run together without whitespace
    mask = parse_pnm(b"P1\n2 2\n1001\n")
    assert image_to_points(mask) == [Point(0, 0), Point(1, 1)]


def test_all_background_image_is_empty():
    mask = parse_pnm(b"P1\n2 2\n0 0 0 0\n")
    assert image_to_points(mask) == []


def test_ascii_graymap_threshold():
    mask = parse_pnm(b"P2\n3 1\n255\n0 128 255\n")
    assert image_to_points(mask, 128) == [Point(1, 0), Point(2, 0)]
    assert image_to_points(mask, 200) == [Point(2, 0)]
    assert image_to_points(mask, 0) == [Point(0, 0), Point(1, 0), Point(2, 0)]


@pytest.mark.parametrize("data", [
    b"P1\n2 2\n1 0 0 0\n",
    b"P4\n2 2\n\x80\x00",
    b"P2\n2 2\n1\n1 0 0 0\n",
    b"P2\n2 2\n2\n2 0 1 0\n",
])
def test_threshold_zero_takes_every_pixel_in_every_format(data):
    mask = parse_pnm(data)
    assert image_to_points(mask, 0) == [Point(0, 0), Point(1, 0), Point(0, 1), Point(1, 1)]
    assert image_to_points(mask, mask.maxval) == [Point(0, 0)]


def test_threshold_outside_sample_range_is_rejected():
    bitmap = parse_pnm(b"P1\n2 1\n10\n")
    graymap = parse_pnm(b"P2\n2 1\n9\n4 9\n")
    for mask, bad in ((bitmap, -1), (bitmap, 2), (graymap, -1), (graymap, 10)):
        with pytest.raises(ValueError):
            image_to_points(mask, bad)
    # only an int is a threshold: not a string, None, a float or a bool
    for mask in (bitmap, graymap):
        for bad in ("1", None, 0.5, 1.0, True, False):
            with pytest.raises(ValueError, match="threshold"):
                image_to_points(mask, bad)


def test_header_comments_are_skipped():
    data = b"P2 # magic\n# a comment line\n2 # width\n1\n9\n4 9\n"
    mask = parse_pnm(data)
    assert mask.width == 2 and mask.height == 1 and mask.maxval == 9
    assert image_to_points(mask, 5) == [Point(1, 0)]


def test_a_hash_starts_a_comment_anywhere_in_header_and_raster():
    # the same rule for both: '#' ends the token it touches, and the comment
    # runs to the next CR or LF
    mask = parse_pnm(b"P2 #magic\r2#w\n1#h\r9#maxval\n4#x\r9#y")
    assert (mask.width, mask.height, mask.maxval) == (2, 1, 9)
    assert list(mask.samples) == [4, 9]
    bitmap = parse_pnm(b"P1#\r3 1\n1#0\n01")
    assert image_to_points(bitmap) == [Point(0, 0), Point(2, 0)]


def test_binary_raster_needs_a_whitespace_byte_after_the_header():
    # a comment cannot stand in for it: the raster would start inside it
    with pytest.raises(MalformedHeaderError):
        parse_pnm(b"P4\n8 1#c\n\xff")
    with pytest.raises(MalformedHeaderError):
        parse_pnm(b"P5\n1 1\n255#c\n\x07")


@pytest.mark.parametrize("data, kind", [
    (b"P1\n2 1\n10", bytes),
    (b"P4\n2 1\n\x80", bytes),
    (b"P2\n2 1\n255\n255 0", bytes),
    (b"P5\n2 1\n255\n\xff\x00", bytes),
    (b"P2\n2 1\n256\n256 0", array),
    (b"P5\n2 1\n256\n\x01\x00\x00\x00", array),
])
def test_samples_take_one_byte_below_256_and_two_from_256(data, kind):
    mask = parse_pnm(data)
    assert type(mask.samples) is kind
    assert memoryview(mask.samples).itemsize == (2 if kind is array else 1)
    assert list(mask.samples) == [mask.maxval, 0]


def _pack_bits(bits):
    # P4 bytes of a whole number of padded rows, most significant bit first
    return int("".join(map(str, bits)), 2).to_bytes(len(bits) // 8, "big")


def _peak(call):
    # call's result and tracemalloc peak, with the collector off
    gc.disable()
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()
    return result, peak


def _scan_peak(data):
    # of decoding and scanning
    return _peak(lambda: image_to_points(parse_pnm(data)))


def test_blank_vga_bitmap_parses_and_scans_in_under_a_mebibyte():
    # a Python list of 640 * 480 samples alone would take more than 2 MiB
    points, peak = _scan_peak(b"P4\n640 480\n" + bytes(80 * 480))
    assert points == []
    assert peak < 1 << 20


def test_padded_bitmap_decodes_with_at_most_two_copies_of_the_raster():
    # 639 wide: the padded raster is freed before the unpadded one is joined
    points, peak = _scan_peak(b"P4\n639 480\n" + bytes(80 * 480))
    assert points == []
    assert peak < 2.5 * 640 * 480


def test_narrow_and_wide_padded_bitmaps_decode_without_an_object_per_row():
    # rows are joined in chunks: tall rasters span several, the last one short
    rng = random.Random(5)
    for width, height in ((1, 9000), (7, 1300), (641, 20)):
        rows = [[rng.getrandbits(1) for _ in range(width + -width % 8)] for _ in range(height)]
        mask = parse_pnm(b"P4\n%d %d\n" % (width, height)
                         + b"".join(_pack_bits(row) for row in rows))
        assert mask.samples == bytes(b for row in rows for b in row[:width])
    # 1 wide: a bytes object per row took 26 MiB; what is left is the
    # base-2 text of the padded raster, 8 bytes a row, and its translation
    data = b"P4\n1 307200\n" + bytes(307200)
    mask, peak = _peak(lambda: parse_pnm(data))
    assert mask.samples == bytes(307200)
    assert peak < 6 * 2**20
    # 641 wide: the joined chunks add no more than the rows did
    points, peak = _scan_peak(b"P4\n641 480\n" + bytes(81 * 480))
    assert points == []
    assert peak <= 0.65 * 2**20


def test_three_percent_vga_bitmap_parses_and_scans_in_under_a_mebibyte():
    # 9,216 points: every point of a column shares that column's x int
    pixels = generate_dense_set(640, 480, density=0.03, seed=2)
    bits = [0] * (640 * 480)
    for x, y in pixels:
        bits[(y - 1) * 640 + (x - 1)] = 1
    points, peak = _scan_peak(b"P4\n640 480\n" + _pack_bits(bits))
    assert len(points) == 9216
    assert peak < 1 << 20


def test_blank_vga_wide_graymap_parses_and_scans_in_under_1_25_mebibytes():
    # the raster's slice and its array('H') are the peak; a chunk's ink
    # bytes add a few KiB
    points, peak = _scan_peak(b"P5\n640 480\n65535\n" + bytes(2 * 640 * 480))
    assert points == []
    assert peak < 1.25 * 2**20


@pytest.mark.parametrize("header", [
    b"P1\n100000 100000\n", b"P2\n100000 100000\n255\n",
    b"P4\n100000 100000\n", b"P5\n100000 100000\n65535\n",
])
def test_a_header_claiming_a_huge_image_fails_cheaply(header):
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="truncated"):
            parse_pnm(header + b"1 0 1 1\n" * 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_packed_bitmap_rows_are_byte_padded():
    # 10 wide: each row spans two bytes, the trailing 6 bits are padding
    row0 = bytes([0b10000000, 0b01000000])  # pixels 0 and 9
    row1 = bytes([0b00000001, 0b00000000])  # pixel 7
    mask = parse_pnm(b"P4\n10 2\n" + row0 + row1)
    assert image_to_points(mask) == [Point(0, 0), Point(9, 0), Point(7, 1)]


def test_binary_graymap_single_byte():
    mask = parse_pnm(b"P5\n2 2\n255\n" + bytes([0, 200, 10, 255]))
    assert image_to_points(mask, 100) == [Point(1, 0), Point(1, 1)]


def test_binary_graymap_two_byte_samples():
    samples = (0).to_bytes(2, "big") + (40000).to_bytes(2, "big")
    mask = parse_pnm(b"P5\n2 1\n65535\n" + samples)
    assert list(mask.samples) == [0, 40000]
    assert image_to_points(mask, 30000) == [Point(1, 0)]


def test_rejects_unsupported_magic():
    with pytest.raises(UnsupportedFormatError):
        parse_pnm(b"P6\n1 1\n255\n\x00\x00\x00")
    with pytest.raises(UnsupportedFormatError):
        parse_pnm(b"BM not a pnm")
    with pytest.raises(UnsupportedFormatError):
        parse_pnm(b"")


def test_rejects_malformed_headers():
    with pytest.raises(MalformedHeaderError):
        parse_pnm(b"P1\n3\n")  # missing height
    with pytest.raises(MalformedHeaderError):
        parse_pnm(b"P1\n0 3\n000")  # zero width
    with pytest.raises(MalformedHeaderError):
        parse_pnm(b"P2\nw h\n255\n")  # non-numeric
    with pytest.raises(MalformedHeaderError):
        parse_pnm(b"P2\n2 2\n0\n0 0 0 0")  # maxval below 1


def test_rejects_truncated_or_invalid_raster():
    with pytest.raises(ParseError):
        parse_pnm(b"P1\n2 2\n101")
    with pytest.raises(ParseError):
        parse_pnm(b"P1\n2 2\n1021")
    with pytest.raises(ParseError):
        parse_pnm(b"P1\n2 1\n1\x1c0")  # only ASCII whitespace separates samples
    with pytest.raises(ParseError):
        parse_pnm(b"P2\n2 2\n255\n1 2 3")
    with pytest.raises(ParseError):
        parse_pnm(b"P2\n2 1\n10\n5 11")
    with pytest.raises(ParseError):
        parse_pnm(b"P4\n10 2\n" + b"\x00" * 3)
    with pytest.raises(ParseError):
        parse_pnm(b"P5\n2 2\n255\n" + b"\x00" * 3)


def test_mask_invariants():
    with pytest.raises(ValueError):
        ImageMask(2, 2, 1, (0, 1, 0))
    # width, height and maxval are plain ints: not floats, bools or strings
    for dims in ((2.0, 1, 1), (2, 1, "1"), (True, 2, 1), (2, True, 1), (2, 1, 1.0), ("2", 1, 1)):
        with pytest.raises(ValueError, match="ints"):
            ImageMask(*dims, b"\0\1")
    # sides of at least 1, even when their product matches the samples
    with pytest.raises(ValueError, match="dimensions"):
        ImageMask(-2, -1, 1, b"\x01\x01")
    with pytest.raises(ValueError, match="dimensions"):
        ImageMask(0, 5, 1, b"")
    for maxval in (0, -1, 65536):
        with pytest.raises(ValueError, match="maxval"):
            ImageMask(2, 1, maxval, b"\0\0")
    # the same rule guards the header, before any raster is built
    for header in (b"P5\n-2 -1\n255\n", b"P4\n0 5\n", b"P5\n1 1\n65536\n"):
        with pytest.raises(MalformedHeaderError):
            parse_pnm(header + b"\0\0")
    assert ImageMask(1, 1, 65535, (65535,)).maxval == 65535


def _foreground(width, samples, threshold):
    # per-pixel reference: one (x, y) per sample at or above the threshold
    return [Point(i % width, i // width) for i, s in enumerate(samples) if s >= threshold]


@given(st.data())
def test_packed_bitmap_decodes_to_the_reference(data):
    width = data.draw(st.integers(1, 40))
    height = data.draw(st.integers(1, 6))
    rows = [data.draw(st.lists(st.integers(0, 1), min_size=width, max_size=width))
            for _ in range(height)]
    raster = bytearray()
    for row in rows:
        # the padding bits after the last pixel of a row are random too
        row_bits = row + data.draw(st.lists(
            st.integers(0, 1), min_size=-width % 8, max_size=-width % 8))
        raster += _pack_bits(row_bits)
    threshold = data.draw(st.integers(0, 1))
    mask = parse_pnm(b"P4\n%d %d\n" % (width, height) + bytes(raster))
    expected = _foreground(width, [b for row in rows for b in row], threshold)
    assert image_to_points(mask, threshold) == expected


@pytest.mark.parametrize("height", [1, 3])
@pytest.mark.parametrize("width", [1, 7, 8, 9, 639, 640, 641, 1000])
def test_packed_bitmap_decodes_to_the_reference_at_real_widths(width, height):
    rng = random.Random(width * 10 + height)
    padded = width + -width % 8
    rows = [[rng.getrandbits(1) for _ in range(padded)] for _ in range(height)]
    if height == 3:
        rows[0] = [0] * padded  # a leading blank row must not vanish
    mask = parse_pnm(b"P4\n%d %d\n" % (width, height)
                     + b"".join(_pack_bits(row) for row in rows))
    bits = [b for row in rows for b in row[:width]]
    assert mask.samples == bytes(bits)
    for threshold in (0, 1):
        assert image_to_points(mask, threshold) == _foreground(width, bits, threshold)


def test_every_sample_type_scans_to_the_reference():
    # bytes and bytearray take one translate, and the others compare sample
    # by sample
    rng = random.Random(37)
    width, height = 37, 5
    small = [rng.randint(0, 255) for _ in range(width * height)]
    wide = [rng.randint(0, 300) for _ in range(width * height)]
    cases = [(255, samples) for samples in (
        bytes(small), bytearray(small), tuple(small), array("B", small))]
    cases.append((300, array("H", wide)))
    for maxval, samples in cases:
        mask = ImageMask(width, height, maxval, samples)
        for threshold in range(maxval + 1):
            assert (image_to_points(mask, threshold)
                    == _foreground(width, samples, threshold)), (type(samples), threshold)


@given(st.data())
def test_binary_graymap_decodes_to_the_reference(data):
    width = data.draw(st.integers(1, 12))
    height = data.draw(st.integers(1, 6))
    maxval = data.draw(st.one_of(st.integers(1, 255), st.integers(256, 65535)))
    samples = data.draw(st.lists(
        st.integers(0, maxval), min_size=width * height, max_size=width * height))
    per = 1 if maxval < 256 else 2
    raster = b"".join(s.to_bytes(per, "big") for s in samples)
    threshold = data.draw(st.integers(0, maxval))
    mask = parse_pnm(b"P5\n%d %d\n%d\n" % (width, height, maxval) + raster)
    assert image_to_points(mask, threshold) == _foreground(width, samples, threshold)


# whitespace runs and comments that may sit between two ASCII samples; a
# comment runs from '#' to the next CR or LF
_GAPS = (b" ", b"\t", b"\n", b"\r\n", b"  \n\t", b"#7 1\n", b" # 0 1\r", b"\n#\n")


def _ascii_raster(data, samples, gaps):
    after = data.draw(st.lists(st.sampled_from(gaps),
                               min_size=len(samples), max_size=len(samples)))
    return b"".join(b"%d" % s + gap for s, gap in zip(samples, after))


@given(st.data())
def test_ascii_bitmap_decodes_to_the_reference(data):
    width = data.draw(st.integers(1, 12))
    height = data.draw(st.integers(1, 6))
    bits = data.draw(st.lists(
        st.integers(0, 1), min_size=width * height, max_size=width * height))
    # digits either run together, with only comments between some of them,
    # or are separated by whitespace and comments
    together = data.draw(st.booleans())
    gaps = (b"", b"", b"#0 1\n") if together else _GAPS
    threshold = data.draw(st.integers(0, 1))
    mask = parse_pnm(b"P1\n%d %d\n" % (width, height) + _ascii_raster(data, bits, gaps))
    assert image_to_points(mask, threshold) == _foreground(width, bits, threshold)


@given(st.data())
def test_ascii_graymap_decodes_to_the_reference(data):
    width = data.draw(st.integers(1, 12))
    height = data.draw(st.integers(1, 6))
    maxval = data.draw(st.one_of(st.integers(1, 255), st.integers(256, 65535)))
    samples = data.draw(st.lists(
        st.integers(0, maxval), min_size=width * height, max_size=width * height))
    threshold = data.draw(st.integers(0, maxval))
    header = b"P2\n%d %d\n%d\n" % (width, height, maxval)
    mask = parse_pnm(header + _ascii_raster(data, samples, _GAPS))
    assert image_to_points(mask, threshold) == _foreground(width, samples, threshold)


def test_load_image_mask_reads_files(tmp_path):
    path = tmp_path / "mask.pbm"
    path.write_bytes(b"P1\n2 1\n10\n")
    assert image_to_points(load_image_mask(path)) == [Point(0, 0)]


def test_generated_mask_has_three_percent_density():
    pts = generate_dense_set(640, 480, density=0.03, seed=2)
    samples = [0] * (640 * 480)
    for x, y in pts:
        samples[(y - 1) * 640 + (x - 1)] = 1
    mask = ImageMask(640, 480, 1, tuple(samples))
    fg = image_to_points(mask)
    assert len(fg) == 9216
    box = bounding_box(fg)
    assert abs(len(fg) / box.m - 0.03) < 0.001


def _chunked_bits(width, height, seed):
    # blank rows between inked ones, all-ink rows, 3% noise, and ink in the
    # last pixel of one row and the first of the next at every chunk boundary
    rng = random.Random(seed)
    bits = bytearray(width * height)
    rows_per_chunk = max(1, pnm._CHUNK // width)
    for y in range(height):
        if y % 5 == 3:
            bits[y * width:(y + 1) * width] = b"\1" * width
        elif y % 5 == 1:
            for x in range(width):
                bits[y * width + x] = rng.random() < 0.03
    for y in range(rows_per_chunk, height, rows_per_chunk):
        bits[y * width - 1] = bits[y * width] = 1
    bits[-1] = 1
    return bytes(bits)


@pytest.mark.parametrize("width, height", [(1, 9000), (7, 1300), (641, 20), (5000, 3)])
def test_chunked_scan_matches_the_reference_across_chunk_boundaries(width, height):
    # several chunks of whole rows with a short last one; 5000 is wider than a chunk
    bits = _chunked_bits(width, height, seed=width)
    for samples in (bits, array("H", list(bits)), tuple(bits)):
        mask = ImageMask(width, height, 1, samples)
        for threshold in (0, 1):
            assert (image_to_points(mask, threshold)
                    == _foreground(width, bits, threshold)), (type(samples), threshold)


def test_points_share_one_x_int_per_column_and_one_y_int_per_row():
    bits = _chunked_bits(641, 20, seed=3)
    points = image_to_points(ImageMask(641, 20, 1, bits))
    xs, ys = {}, {}
    assert all(xs.setdefault(x, x) is x and ys.setdefault(y, y) is y for x, y in points)
    assert len(points) > 641 * 4


@pytest.mark.parametrize("threshold", [0, 1, 255, 256, 257, 40000, 65535])
def test_wide_samples_are_thresholded_on_both_bytes(threshold):
    # samples on each side of the threshold, in both bytes, over several chunks
    near = {threshold + d for d in (-257, -256, -255, -1, 0, 1, 255, 256, 257)}
    values = sorted(v for v in near | {0, 1, 255, 256, 65535} if 0 <= v <= 65535)
    rng = random.Random(threshold)
    width, height = 13, 700
    samples = array("H", (rng.choice(values) for _ in range(width * height)))
    samples[:len(values)] = array("H", values)
    mask = ImageMask(width, height, 65535, samples)
    assert image_to_points(mask, threshold) == _foreground(width, samples, threshold)
    # and through the big-endian P5 raster that parse_pnm byte-swaps
    raster = array("H", samples)
    if sys.byteorder == "little":
        raster.byteswap()
    parsed = parse_pnm(b"P5\n%d %d\n65535\n" % (width, height) + raster.tobytes())
    assert image_to_points(parsed, threshold) == _foreground(width, samples, threshold)


def _line_events(call):
    # call's result and the Python line events it ran in the pnm module
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    def enter(frame, event, arg):
        return local if frame.f_code.co_filename == pnm.__file__ else None

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        result = call()
    finally:
        sys.settrace(previous)
    return result, count


def test_scan_runs_python_per_chunk_and_per_inked_row_not_per_row():
    # a 1-wide raster is all rows: a Python pass per row took 427 ms blank
    height = 307200
    chunks = -(-height // pnm._CHUNK)
    bits = bytearray(height)
    for y in random.Random(9).sample(range(height), 9216):
        bits[y] = 1
    for samples, inked in ((bytes(height), 0), (bytes(bits), 9216)):
        mask = ImageMask(1, height, 1, samples)
        points, lines = _line_events(lambda: image_to_points(mask))
        assert points == _foreground(1, samples, 1)
        assert lines <= 8 * (chunks + inked) + 32
