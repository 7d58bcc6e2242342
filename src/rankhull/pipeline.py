"""End-to-end rank-ordered hull: box, rank, shuffle, scan.

Step 1 alone reads the caller's points, into lists of xs and ys that
step 3 ranks and then releases. It is also the pipeline's only input
check: the grid is the box of those same lists, and step 4's ranks are
ints in [1, m] by construction, so steps 3 and 5 run the unchecked chains
of `RankFunction.cells` and `offsets`. The paper's translation onto the
normalized grid (step 2) is folded into step 3's rank arithmetic, and
step 5 streams each rank back as an offset pair from the box corner as
the scan reads it; orientation tests are translation-invariant, so the
scan decides as it would on the caller's points. Only the hull's
vertices are translated back, by `RankFunction.to_points`, and the only
per-box structure is the m/p-word bit table.

The pipeline stays linear while the point set is dense relative to its
bounding box; the density thresholds quantify where that regime ends for
a given block width. A box whose bit table would need more than
`MAX_WORDS` words is routed to the sort-based oracle instead.
"""

from __future__ import annotations

import time
from collections.abc import Collection, Iterator
from dataclasses import dataclass
from fractions import Fraction

from .bitrank import MAX_WORDS, build_rank_table, check_block_width, fast_shuffle
from .errors import NonIntegerCoordinateError
from .geometry import BoundingBox, Point, coordinates, new_point
from .hull import HullPolygon, MelkmanStats, hull_oracle, melkman
from .ranking import RankFunction, RankVariant

BLOCK_WIDTHS = (8, 16, 32, 64)


@dataclass(frozen=True)
class PipelineConfig:
    """The method's two parameters: block width p and rank function f1/f2."""

    p: int = 64
    rank_variant: RankVariant = RankVariant.COLUMN_MAJOR

    def __post_init__(self) -> None:
        # checked here, since the empty and over-cap routes build no RankFunction
        if type(self.p) is not int or self.p not in BLOCK_WIDTHS:
            raise ValueError(f"block width must be one of {BLOCK_WIDTHS}")
        if not isinstance(self.rank_variant, RankVariant):
            raise ValueError(f"rank variant must be a RankVariant, not {self.rank_variant!r}")


@dataclass(frozen=True)
class OperationCounters:
    isleft_evals: int
    shuffle_iterations: int
    deque_ops: int


@dataclass(frozen=True)
class PipelineReport:
    """Hull in the caller's coordinates plus instrumentation.

    `n` counts distinct points; exact duplicates are absorbed during table
    construction, so `duplicates_skipped` is len(points) - n. `m` is the
    box area m1 * m2 and `density` is n / m, with m = 0 and density 0.0
    for empty input. `step_ns` holds the elapsed monotonic nanoseconds of
    the paper's five steps (box, translate, rank, shuffle, scan). The
    translation happens inside the rank arithmetic, so its slot is always
    0; the scan's slot includes turning ranks into box offsets and the
    hull's vertices back into the caller's points. When `used_fallback` is
    set the hull came from the sort-based oracle and steps 3-5 and the
    counters are zero.
    """

    hull: HullPolygon
    n: int
    m: int
    m1: int
    m2: int
    density: float
    duplicates_skipped: int
    counters: OperationCounters
    step_ns: tuple[int, int, int, int, int]
    p: int
    rank_variant: RankVariant
    used_fallback: bool = False


@dataclass
class _Chain:
    """Step 5's one-pass offsets, sized for tracers of `melkman` such as `hull.chain_len`."""

    offsets: Iterator[tuple[int, int]]
    n: int

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return self.offsets

    def __len__(self) -> int:
        return self.n


def convex_hull_ranked(
    points: Collection[Point],
    cfg: PipelineConfig | None = None,
) -> PipelineReport:
    """Convex hull via rank ordering instead of a comparison sort.

    Step 1 reads the points into coordinate lists and their box, step 3
    marks each point's rank (step 2's translation included) in the blocked
    bit table, step 4 compacts it into ascending-rank order, and step 5
    streams that order, a simple chain of box offsets, into the deque scan.
    A box too large for `MAX_WORDS` words gets the sort-based oracle's hull.
    `points` must be a sized collection, such as a list, tuple or set: step
    1 iterates over it twice, and no other step reads it.
    """
    if not isinstance(points, Collection):
        raise NonIntegerCoordinateError(
            f"points must be a sized collection, not {type(points).__name__}"
        )
    if cfg is None:
        cfg = PipelineConfig()
    hull = HullPolygon((), degenerate=True)
    n = m1 = m2 = 0
    counters = OperationCounters(0, 0, 0)
    step_ns = (0, 0, 0, 0, 0)
    used_fallback = False
    if points:
        clock = time.perf_counter_ns
        t0 = clock()
        xs, ys = coordinates(points)
        box = BoundingBox.of(xs, ys)
        t1 = clock()
        m1, m2 = box.m1, box.m2
        if box.m > MAX_WORDS * cfg.p:
            # deduplicated as Points, so both routes return Point vertices
            distinct = set(map(new_point, zip(xs, ys)))
            del xs, ys
            hull, n = hull_oracle(distinct), len(distinct)
            step_ns = (t1 - t0, 0, 0, 0, 0)
            used_fallback = True
        else:
            rf = RankFunction(cfg.rank_variant, m1, m2, box.x_min, box.y_min)
            # step 1 checked the lists and this grid is their box: rank them unchecked
            table = build_rank_table(rf._cells(xs, ys), len(xs), box.m, cfg.p)
            del xs, ys  # 16 bytes a point that steps 4 and 5 do not need
            t3 = clock()
            shuffled = fast_shuffle(table)
            t4 = clock()
            stats = MelkmanStats()
            # step 4's ranks are ints in [1, m] by construction
            scanned = melkman(_Chain(rf._offsets(shuffled.order), len(shuffled.order)), stats)
            # translation keeps the lexicographic order, so the cycle stays canonical
            hull = HullPolygon(tuple(rf.to_points(scanned.vertices)), scanned.degenerate)
            t5 = clock()
            n = table.n
            counters = OperationCounters(
                stats.isleft_evals, shuffled.iterations, stats.deque_ops
            )
            step_ns = (t1 - t0, 0, t3 - t1, t4 - t3, t5 - t4)

    m = m1 * m2
    return PipelineReport(
        hull=hull, n=n, m=m, m1=m1, m2=m2,
        density=n / m if m else 0.0,
        duplicates_skipped=len(points) - n,
        counters=counters, step_ns=step_ns,
        p=cfg.p, rank_variant=cfg.rank_variant,
        used_fallback=used_fallback,
    )


def density_threshold_simple(p: int) -> Fraction:
    """Density 1/p below which the word walk stops being linear in n."""
    check_block_width(p)
    return Fraction(1, p)


def density_threshold_refined(p: int) -> Fraction:
    """Refined lower density bound 1/(2p(2p^2 + 5p + 1) + 1).

    Charges each zero-word test its true cost relative to an orientation
    test on p-bit operands, which pushes the linear regime several orders
    of magnitude below 1/p.
    """
    check_block_width(p)
    return Fraction(1, 2 * p * (2 * p * p + 5 * p + 1) + 1)
