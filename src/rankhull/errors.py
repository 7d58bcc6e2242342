"""Exception types shared across the library."""


class RankHullError(Exception):
    """Base class for every error raised by this package."""


class EmptyInputError(RankHullError):
    """An operation that needs at least one point received none."""


class NonIntegerCoordinateError(RankHullError):
    """A point coordinate is not a plain int (a float, a bool, ...)."""


class OutOfGridError(RankHullError):
    """A point is outside the grid of a rank function."""


class RankOutOfRangeError(RankHullError):
    """A rank is outside [1, m] for the given rank function."""


class BoxTooLargeError(RankHullError):
    """The bounding box area exceeds the configured rank-range cap."""


class InvalidCountsError(RankHullError):
    """A density was requested for counts violating 1 <= n <= m."""


class InvalidDensityError(RankHullError):
    """A requested density or sample count is outside the valid range."""


class InsufficientDataError(RankHullError):
    """Too few samples for a statistically meaningful fit."""


class ParseError(RankHullError):
    """An input file is syntactically invalid."""


class CoordinateOverflowError(RankHullError):
    """A parsed coordinate does not fit the configured bit width."""


class UnsupportedFormatError(RankHullError):
    """The image file is not one of the supported raster formats."""


class MalformedHeaderError(RankHullError):
    """The image header is present but invalid."""
