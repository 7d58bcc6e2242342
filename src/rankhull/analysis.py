"""Benchmark harness and complexity-model checks.

Operation counters are the primary signal here: they are machine
independent and reproduce exactly for a given plan and seed. Wall-clock
medians back them up for trend checks (time vs n at fixed density) but
carry no absolute meaning across machines.
"""

from __future__ import annotations

import csv
import logging
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence

from .errors import InsufficientDataError, InvalidDensityError, RankHullError
from .geometry import Point
from .hull import hull_oracle
from .pipeline import PipelineConfig, convex_hull_ranked
from .pointio import generate_dense_set

log = logging.getLogger(__name__)

RANK_VARIANT = "rank_pipeline"
ORACLE_VARIANT = "oracle_sort_hull"

CSV_HEADER = (
    "m1", "m2", "m", "n", "density", "p", "variant", "rep_count", "median_ns",
    "step1_ns", "step2_ns", "step3_ns", "step4_ns", "step5_ns",
    "isleft_evals", "shuffle_iterations", "deque_ops",
)


@dataclass(frozen=True)
class BenchmarkPlan:
    """One sweep: box dimensions, sample sizes, block widths, repetitions.

    Sample sizes come from `densities` (fractions of the box area) and/or
    explicit `counts`; cells run in the order given. Each repetition of a
    cell reuses the same generated point set, and a discarded warm-up run
    precedes the timed repetitions.
    """

    m1: int
    m2: int
    densities: Sequence[float] = ()
    counts: Sequence[int] = ()
    p_values: Sequence[int] = (32,)
    repetitions: int = 3
    seed: int = 0
    variants: Sequence[str] = (RANK_VARIANT,)


@dataclass
class BenchmarkRow:
    m1: int
    m2: int
    m: int
    n: int
    density: float
    p: int
    variant: str
    rep_count: int
    median_ns: int
    step_ns: tuple[int, int, int, int, int]
    isleft_evals: int
    shuffle_iterations: int
    deque_ops: int


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> FitResult:
    """Ordinary least squares of ys against xs with the usual R²."""
    if len(xs) != len(ys):
        raise InsufficientDataError("xs and ys differ in length")
    if len(xs) < 4:
        raise InsufficientDataError(f"need at least 4 samples, got {len(xs)}")
    slope, intercept = statistics.linear_regression(xs, ys)
    mean_y = statistics.fmean(ys)
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    ss_res = sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    if ss_tot == 0:
        r_squared = 1.0 if ss_res == 0 else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    return FitResult(slope, intercept, r_squared)


def _cell_seed(seed: int, n: int) -> int:
    return seed * 2_654_435_761 + n


def _validate(plan: BenchmarkPlan) -> None:
    for d in plan.densities:
        if not 0 < d <= 1:
            raise InvalidDensityError(f"plan density {d} outside (0, 1]")
    if plan.repetitions < 3:
        raise ValueError("plan needs at least 3 repetitions")
    for v in plan.variants:
        if v not in (RANK_VARIANT, ORACLE_VARIANT):
            raise ValueError(f"unknown variant {v!r}")


def _time_rank_cell(
    points: list[Point], p: int, plan: BenchmarkPlan
) -> tuple[int, tuple[int, ...], tuple[int, int, int]]:
    cfg = PipelineConfig(p=p)
    convex_hull_ranked(points, cfg)  # warm-up, discarded
    totals = []
    reports = []
    for _ in range(plan.repetitions):
        t0 = time.perf_counter_ns()
        report = convex_hull_ranked(points, cfg)
        totals.append(time.perf_counter_ns() - t0)
        reports.append(report)
    steps = tuple(
        int(statistics.median(r.step_ns[i] for r in reports)) for i in range(5)
    )
    counters = reports[-1].counters
    return (
        int(statistics.median(totals)),
        steps,
        (counters.isleft_evals, counters.shuffle_iterations, counters.deque_ops),
    )


def _time_oracle_cell(
    points: list[Point], plan: BenchmarkPlan
) -> tuple[int, tuple[int, ...], tuple[int, int, int]]:
    hull_oracle(points)  # warm-up, discarded
    totals = []
    for _ in range(plan.repetitions):
        t0 = time.perf_counter_ns()
        hull_oracle(points)
        totals.append(time.perf_counter_ns() - t0)
    return int(statistics.median(totals)), (0, 0, 0, 0, 0), (0, 0, 0)


def run_benchmark(plan: BenchmarkPlan) -> list[BenchmarkRow]:
    """Execute the sweep and return one row per (n, p, variant) cell.

    Cells sharing an n value share the generated point set so block-width
    and variant comparisons see identical inputs. A failing cell is logged
    and skipped without aborting the sweep.
    """
    _validate(plan)
    m = plan.m1 * plan.m2
    n_values = [round(d * m) for d in plan.densities] + [int(c) for c in plan.counts]
    rows: list[BenchmarkRow] = []
    for n in n_values:
        try:
            points = generate_dense_set(
                plan.m1, plan.m2, count=n, seed=_cell_seed(plan.seed, n)
            )
        except RankHullError as exc:
            log.warning("skipping n=%d cells: %s", n, exc)
            continue
        for p in plan.p_values:
            for variant in plan.variants:
                try:
                    if variant == RANK_VARIANT:
                        median_ns, steps, counters = _time_rank_cell(points, p, plan)
                    else:
                        median_ns, steps, counters = _time_oracle_cell(points, plan)
                except RankHullError as exc:
                    log.warning("skipping cell n=%d p=%d %s: %s", n, p, variant, exc)
                    continue
                rows.append(BenchmarkRow(
                    m1=plan.m1, m2=plan.m2, m=m, n=n, density=n / m,
                    p=p, variant=variant, rep_count=plan.repetitions,
                    median_ns=median_ns, step_ns=steps,
                    isleft_evals=counters[0], shuffle_iterations=counters[1],
                    deque_ops=counters[2],
                ))
    return rows


def write_csv(rows: Sequence[BenchmarkRow], dest: str | Path | IO[str]) -> None:
    """Write rows under the fixed header, one line per benchmark cell."""
    own = isinstance(dest, (str, Path))
    fh = open(dest, "w", newline="", encoding="utf-8") if own else dest
    try:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in rows:
            writer.writerow((
                r.m1, r.m2, r.m, r.n, f"{r.density:.10g}", r.p, r.variant,
                r.rep_count, r.median_ns, *r.step_ns,
                r.isleft_evals, r.shuffle_iterations, r.deque_ops,
            ))
    finally:
        if own:
            fh.close()
