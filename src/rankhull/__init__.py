"""Rank-ordered 2-D convex hulls for dense integer point sets.

Points are ranked by a grid rank function over their bounding box, and
the ranks are put in ascending order, a simple polygonal chain, for a
single-pass deque hull scan. `convex_hull_ranked` takes one of two routes
by a fitted cost model: on dense boxes a one-byte-per-rank table gives
each grid line's two extreme points, in O(n + m) for m box cells, and on
sparse boxes the distinct ranks are sorted. The paper's p-bit table and
its wordwise walk (`build_rank_table`, `fast_shuffle`) are kept in
`bitrank` as a checked reproduction of the method; they measured slower
than sorted ranks on every swept box, so no route runs them.
"""

from .analysis import (
    BenchmarkPlan,
    BenchmarkRow,
    run_benchmark,
    write_csv,
)
from .bitrank import (
    RankTable,
    ShuffleResult,
    build_rank_table,
    density_threshold_refined,
    density_threshold_simple,
    extract_set_bits,
    fast_shuffle,
    shuffle_naive,
)
from .errors import RankHullError
from .geometry import (
    BoundingBox,
    Point,
    bounding_box,
    coordinates,
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
    PipelineReport,
    Route,
    convex_hull_ranked,
)
from .pnm import ImageMask, image_to_points, load_image_mask, parse_pnm
from .pointio import generate_dense_set, load_points, save_points
from .ranking import RankFunction, RankVariant

__version__ = "0.1.0"

__all__ = [
    "BenchmarkPlan",
    "BenchmarkRow",
    "BoundingBox",
    "HullPolygon",
    "ImageMask",
    "MelkmanStats",
    "OperationCounters",
    "PipelineReport",
    "Point",
    "RankFunction",
    "RankHullError",
    "RankTable",
    "RankVariant",
    "Route",
    "ShuffleResult",
    "bounding_box",
    "build_rank_table",
    "contains_all",
    "coordinates",
    "convex_hull_ranked",
    "density_threshold_refined",
    "density_threshold_simple",
    "extract_set_bits",
    "fast_shuffle",
    "generate_dense_set",
    "hull_oracle",
    "image_to_points",
    "is_convex",
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
