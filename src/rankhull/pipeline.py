"""End-to-end rank-ordered hull: box, rank, shuffle, scan.

Steps 3-5 work in offsets from the bounding box's corner. The paper's
translation onto the normalized grid (step 2) is folded into step 3's
rank arithmetic, step 5 turns ranks back into offset pairs, not points,
and orientation tests are translation-invariant, so the scan makes the
same decisions it would make on the caller's points. Only the hull's
vertices are translated back. The only per-box structure is the
m/p-word bit table.

The pipeline stays linear while the point set is dense relative to its
bounding box; the density thresholds quantify where that regime ends for
a given block width. A box whose bit table would need more than
`MAX_WORDS` words is routed to the sort-based oracle instead.
"""

from __future__ import annotations

import time
from collections.abc import Collection
from dataclasses import dataclass
from fractions import Fraction

from .bitrank import MAX_WORDS, build_rank_table, fast_shuffle
from .errors import NonIntegerCoordinateError
from .geometry import BoundingBox, Point, bounding_box, new_point
from .hull import HullPolygon, MelkmanStats, hull_oracle, melkman
from .ranking import RankFunction, RankVariant

BLOCK_WIDTHS = (8, 16, 32, 64)


@dataclass(frozen=True)
class PipelineConfig:
    """The method's two parameters: block width p and rank function f1/f2."""

    p: int = 64
    rank_variant: RankVariant = RankVariant.COLUMN_MAJOR

    def __post_init__(self) -> None:
        if self.p not in BLOCK_WIDTHS:
            raise ValueError(f"block width must be one of {BLOCK_WIDTHS}")


@dataclass(frozen=True)
class OperationCounters:
    isleft_evals: int
    shuffle_iterations: int
    deque_ops: int


@dataclass(frozen=True)
class PipelineReport:
    """Hull in the caller's coordinates plus instrumentation.

    `n` counts distinct points; exact duplicates are absorbed during table
    construction and tallied in `duplicates_skipped`. `step_ns` holds the
    elapsed monotonic nanoseconds of the paper's five steps (box,
    translate, rank, shuffle, scan). The translation happens inside the
    rank arithmetic, so its slot is always 0; the scan's slot includes
    turning the shuffled ranks into box offsets and translating the hull's
    vertices back to the caller's coordinates. When `used_fallback` is
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


_ZERO_COUNTERS = OperationCounters(0, 0, 0)


def _empty_report(cfg: PipelineConfig) -> PipelineReport:
    return PipelineReport(
        hull=HullPolygon((), degenerate=True),
        n=0, m=0, m1=0, m2=0, density=0.0, duplicates_skipped=0,
        counters=_ZERO_COUNTERS, step_ns=(0, 0, 0, 0, 0),
        p=cfg.p, rank_variant=cfg.rank_variant,
    )


def _translated(hull: HullPolygon, box: BoundingBox) -> HullPolygon:
    # translation keeps the lexicographic order, so the cycle stays canonical
    x0, y0 = box.x_min, box.y_min
    return HullPolygon(
        tuple(new_point((x0 + dx, y0 + dy)) for dx, dy in hull.vertices),
        hull.degenerate,
    )


def convex_hull_ranked(
    points: Collection[Point],
    cfg: PipelineConfig | None = None,
) -> PipelineReport:
    """Convex hull via rank ordering instead of a comparison sort.

    Step 1 finds the bounding box, step 3 marks each point's rank, taken
    straight from its coordinates relative to the box corner, in the
    blocked bit table, step 4 compacts the table into ascending-rank order,
    and step 5 turns that order into a simple chain of box offsets, runs
    the single-pass deque scan over it and adds the box corner back to the
    hull's vertices. Step 2, the translation onto the normalized grid, is
    the subtraction of the box corner inside step 3. A box too large for a
    table of `MAX_WORDS` words gets its hull from the sort-based oracle.
    `points` must be a sized collection, such as a list, tuple or set:
    steps 1 and 3 each iterate over it.
    """
    if not isinstance(points, Collection):
        raise NonIntegerCoordinateError(
            f"points must be a sized collection, not {type(points).__name__}"
        )
    if cfg is None:
        cfg = PipelineConfig()
    if not points:
        return _empty_report(cfg)

    clock = time.perf_counter_ns
    t0 = clock()
    box = bounding_box(points)
    t1 = clock()
    if box.m > MAX_WORDS * cfg.p:
        # hashable Points whatever pair type the caller used, deduplicated once
        distinct = set(map(new_point, points))
        return PipelineReport(
            hull=hull_oracle(distinct),
            n=len(distinct), m=box.m, m1=box.m1, m2=box.m2,
            density=len(distinct) / box.m,
            duplicates_skipped=len(points) - len(distinct),
            counters=_ZERO_COUNTERS,
            step_ns=(t1 - t0, 0, 0, 0, 0),
            p=cfg.p, rank_variant=cfg.rank_variant,
            used_fallback=True,
        )
    rf = RankFunction(cfg.rank_variant, box.m1, box.m2, box.x_min, box.y_min)
    table = build_rank_table(points, rf, cfg.p)
    t3 = clock()
    shuffled = fast_shuffle(table)
    t4 = clock()
    stats = MelkmanStats()
    hull = _translated(melkman(rf.offsets(shuffled.order), stats), box)
    t5 = clock()

    return PipelineReport(
        hull=hull,
        n=table.n, m=table.m, m1=box.m1, m2=box.m2,
        density=table.n / table.m,
        duplicates_skipped=table.duplicates_skipped,
        counters=OperationCounters(
            stats.isleft_evals, shuffled.iterations, stats.deque_ops
        ),
        step_ns=(t1 - t0, 0, t3 - t1, t4 - t3, t5 - t4),
        p=cfg.p, rank_variant=cfg.rank_variant,
    )


def density_threshold_simple(p: int) -> Fraction:
    """Density 1/p below which the word walk stops being linear in n."""
    if p < 1:
        raise ValueError("block width must be positive")
    return Fraction(1, p)


def density_threshold_refined(p: int) -> Fraction:
    """Refined lower density bound 1/(2p(2p^2 + 5p + 1) + 1).

    Charges each zero-word test its true cost relative to an orientation
    test on p-bit operands, which pushes the linear regime several orders
    of magnitude below 1/p.
    """
    if p < 1:
        raise ValueError("block width must be positive")
    return Fraction(1, 2 * p * (2 * p * p + 5 * p + 1) + 1)
