"""Exception types shared across the library."""


class RankHullError(Exception):
    """Base class for every error raised by this package."""


class EmptyInputError(RankHullError):
    """An operation that needs at least one point received none."""


class NonIntegerCoordinateError(RankHullError):
    """The points are not a collection of pairs of plain ints.

    For example an iterator or None instead of a collection, a triple
    instead of a pair, or a float or bool coordinate.
    """


class OutOfGridError(RankHullError):
    """A point is outside the grid of a rank function."""


class RankOutOfRangeError(RankHullError):
    """A rank is outside [1, m] for the given rank function."""


class BoxTooLargeError(RankHullError):
    """A box is over a cap: a bit table's `bitrank.MAX_WORDS` words, the byte
    table's `bitrank.MAX_BYTES` (only when `pipeline._hull` is given byte
    extremes by name: the router never picks them over the cap), or the
    `pointio.MAX_GRID_CELLS` cells of a `generate_dense_set` grid."""


class InvalidDensityError(RankHullError):
    """A requested density or sample count is outside the valid range."""


class ParseError(RankHullError):
    """An input file is syntactically invalid."""


class CoordinateOverflowError(RankHullError):
    """A coordinate is wider than a point file's 64 bits (`pointio.MAX_COORDINATE`)."""


class UnsupportedFormatError(RankHullError):
    """The image file is not one of the supported raster formats."""


class MalformedHeaderError(RankHullError):
    """The image header is present but invalid."""
