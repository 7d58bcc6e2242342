"""Rank-ordered 2-D convex hulls for dense integer point sets.

Points are ordered into a simple polygonal chain by a grid rank function
and a blocked bit table instead of a comparison sort, then consumed by a
single-pass deque hull scan. Dense inputs (density above roughly 1/p for
block width p) make the whole pipeline linear in the number of points.
"""

from .analysis import (
    BenchmarkPlan,
    BenchmarkRow,
    FitResult,
    linear_fit,
    run_benchmark,
    write_csv,
)
from .bitrank import (
    RankTable,
    ShuffleResult,
    build_rank_table,
    extract_set_bits,
    fast_shuffle,
    shuffle_naive,
)
from .errors import RankHullError
from .geometry import (
    BoundingBox,
    Point,
    bounding_box,
    orientation,
)
from .hull import (
    HullPolygon,
    MelkmanStats,
    contains_all,
    hull_oracle,
    is_convex,
    melkman,
)
from .pipeline import (
    OperationCounters,
    PipelineConfig,
    PipelineReport,
    convex_hull_ranked,
    density_threshold_refined,
    density_threshold_simple,
)
from .pnm import ImageMask, image_to_points, load_image_mask, parse_pnm
from .pointio import generate_dense_set, load_points, save_points
from .ranking import RankFunction, RankVariant

__version__ = "0.1.0"

__all__ = [
    "BenchmarkPlan",
    "BenchmarkRow",
    "BoundingBox",
    "FitResult",
    "HullPolygon",
    "ImageMask",
    "MelkmanStats",
    "OperationCounters",
    "PipelineConfig",
    "PipelineReport",
    "Point",
    "RankFunction",
    "RankHullError",
    "RankTable",
    "RankVariant",
    "ShuffleResult",
    "bounding_box",
    "build_rank_table",
    "contains_all",
    "convex_hull_ranked",
    "density_threshold_refined",
    "density_threshold_simple",
    "extract_set_bits",
    "fast_shuffle",
    "generate_dense_set",
    "hull_oracle",
    "image_to_points",
    "is_convex",
    "linear_fit",
    "load_image_mask",
    "load_points",
    "melkman",
    "orientation",
    "parse_pnm",
    "run_benchmark",
    "save_points",
    "shuffle_naive",
    "write_csv",
]
