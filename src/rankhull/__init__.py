"""Rank-ordered 2-D convex hulls for dense integer point sets.

The package has two halves. The library is `convex_hull_ranked`: points
are ranked by a grid rank function over their bounding box, and the ranks
are put in ascending order, a chain sorted along the grid's lines, which a
chord between its ends splits into two sides for one monotone pass each.
It takes one of two routes by a fitted cost model: on dense boxes a
one-byte-per-rank table gives each grid line's two extreme points, in
O(n + m) for m box cells, and on sparse boxes the distinct ranks are
sorted. Beside it are the independent oracle `hull_oracle`, point and
image I/O, and the route sweep (`run_benchmark`).

The reproduction is `rankhull.paper`: the paper's rank function
(`RankFunction`), its p-bit table and wordwise walk (`build_rank_table`,
`fast_shuffle`), Melkman's deque scan (`melkman`) and the steps run end
to end (`paper_steps`). The p-bit steps measured slower than sorted ranks
on every swept box, so no route runs them, and the library imports none
of it.
"""

from .analysis import (
    BenchmarkPlan,
    BenchmarkRow,
    run_benchmark,
    write_csv,
)
from .errors import RankHullError
from .geometry import (
    BoundingBox,
    Point,
    bounding_box,
    coordinates,
    orientation,
)
from .hull import HullPolygon, contains_all, hull_oracle, is_convex
from .paper import (
    MelkmanStats,
    PaperSteps,
    RankFunction,
    RankTable,
    ShuffleResult,
    build_rank_table,
    density_threshold_refined,
    density_threshold_simple,
    extract_set_bits,
    fast_shuffle,
    melkman,
    paper_steps,
    shuffle_naive,
)
from .pipeline import (
    OperationCounters,
    PipelineReport,
    RankVariant,
    Route,
    convex_hull_ranked,
)
from .pnm import ImageMask, image_to_points, load_image_mask, parse_pnm
from .pointio import generate_dense_set, load_points, save_points

__version__ = "0.1.0"

__all__ = [
    "BenchmarkPlan",
    "BenchmarkRow",
    "BoundingBox",
    "HullPolygon",
    "ImageMask",
    "MelkmanStats",
    "OperationCounters",
    "PaperSteps",
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
    "paper_steps",
    "parse_pnm",
    "run_benchmark",
    "save_points",
    "shuffle_naive",
    "write_csv",
]
