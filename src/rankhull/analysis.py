"""Benchmark harness: the route sweep behind the router's costs.

Operation counters are the primary signal here: they are machine
independent and reproduce exactly for a given plan and seed. Wall-clock
medians back them up for trend checks (time vs n at fixed density) but
carry no absolute meaning across machines. A plan's densities, counts,
repetitions and variants are checked before its first cell runs, and an
error in any cell aborts the sweep, so a plan either yields every row or
raises.

Each cell times the variants the plan names, all of `VARIANTS` by
default: `byte_extremes` and `sorted_ranks` each run the pipeline on one
of its two routes, named past the cost model (`pipeline._hull`), and
`oracle_sort_hull` runs the independent `hull_oracle` alone. They take
turns, a call each per repetition, so host load that drifts during a
cell falls on each alike. The router's costs are fitted to the two route
variants of the committed sweep (`docs/route_sweep.csv`, README's
"Routes"); the oracle's times are there for comparison. That sweep was recorded before the pipeline dropped
the paper's p-bit route (its `p` column and `rank_pipeline` variant), and
before the variants took turns and byte extremes read a wide box's rows:
it ranked by f1, on boxes no taller than wide. Its costs are per point,
per cell and per occupied line, so they stand for either layout.
"""

from __future__ import annotations

import csv
import statistics
import time
from dataclasses import dataclass
from functools import partial
from typing import IO, Callable, Sequence

from .hull import hull_oracle
from .pipeline import Route, _hull
from .pointio import generate_dense_set, sample_size

EXTREMES_VARIANT = "byte_extremes"
SORT_VARIANT = "sorted_ranks"
ORACLE_VARIANT = "oracle_sort_hull"
VARIANTS = (EXTREMES_VARIANT, SORT_VARIANT, ORACLE_VARIANT)
# The route whose costs each variant's timings measure. The oracle variant
# is no route: it calls hull_oracle itself, the independent reference.
_ROUTES = {EXTREMES_VARIANT: Route.EXTREMES, SORT_VARIANT: Route.SORT}

CSV_HEADER = (
    "m1", "m2", "m", "n", "density", "variant", "rep_count", "median_ns",
    "step1_ns", "step2_ns", "step3_ns", "step4_ns", "step5_ns",
    "isleft_evals", "shuffle_iterations", "deque_ops",
)


@dataclass(frozen=True)
class BenchmarkPlan:
    """One sweep: box dimensions, sample sizes, repetitions and variants.

    Sample sizes come from `densities` (fractions of the box area) and/or
    explicit `counts` (ints from 0 to the box area); cells run in the
    order given. Each repetition of a cell reuses the same generated point
    set, and each variant runs once, discarded, before the timed ones.
    """

    m1: int
    m2: int
    densities: Sequence[float] = ()
    counts: Sequence[int] = ()
    repetitions: int = 3
    seed: int = 0
    variants: Sequence[str] = VARIANTS


@dataclass
class BenchmarkRow:
    m1: int
    m2: int
    m: int
    n: int
    density: float
    variant: str
    rep_count: int
    median_ns: int
    step_ns: tuple[int, int, int, int, int]
    isleft_evals: int
    shuffle_iterations: int
    deque_ops: int


def _cell_seed(seed: int, n: int) -> int:
    return seed * 2_654_435_761 + n


def _time_cell(calls: Sequence[Callable[[], object]], repetitions: int) -> list[tuple[int, list]]:
    """Each call's median ns over `repetitions` rounds, with its results.

    Every call first runs once, discarded. Each round then runs every call
    once, starting one further along `calls` than the round before.
    """
    for call in calls:
        call()
    runs: list[list[tuple[int, object]]] = [[] for _ in calls]
    for rep in range(repetitions):
        for j in range(len(calls)):
            i = (rep + j) % len(calls)
            t0 = time.perf_counter_ns()
            result = calls[i]()
            runs[i].append((time.perf_counter_ns() - t0, result))
    return [(int(statistics.median(ns for ns, _ in run)), [r for _, r in run]) for run in runs]


def run_benchmark(plan: BenchmarkPlan) -> list[BenchmarkRow]:
    """Execute the sweep and return one row per (n, variant) cell.

    The whole plan is checked before the first cell runs: the repetitions
    and variants here, and each density and count by `sample_size`, which
    turns it into the cell's n. Cells sharing an n value share the
    generated point set so variant comparisons see identical inputs, and
    take turns within each repetition (`_time_cell`). The `byte_extremes`
    and `sorted_ranks` variants time the pipeline on `Route.EXTREMES` and
    `Route.SORT`, named past the cost model, and `oracle_sort_hull` times
    `hull_oracle` alone.
    """
    if type(plan.repetitions) is not int or plan.repetitions < 3:
        raise ValueError(f"plan repetitions {plan.repetitions!r} is not an int of at least 3")
    for v in plan.variants:
        if v not in VARIANTS:
            raise ValueError(f"unknown variant {v!r}")
    m = plan.m1 * plan.m2
    n_values = [sample_size(m, d, None) for d in plan.densities]
    n_values += [sample_size(m, None, c) for c in plan.counts]
    rows: list[BenchmarkRow] = []
    for n in n_values:
        points = generate_dense_set(
            plan.m1, plan.m2, count=n, seed=_cell_seed(plan.seed, n)
        )
        calls = [
            partial(hull_oracle, points) if variant == ORACLE_VARIANT
            else partial(_hull, points, _ROUTES[variant])
            for variant in plan.variants
        ]
        timed = _time_cell(calls, plan.repetitions)
        for variant, (median_ns, reports) in zip(plan.variants, timed):
            if variant != ORACLE_VARIANT:
                steps = tuple(
                    int(statistics.median(r.step_ns[i] for r in reports)) for i in range(5)
                )
                c = reports[-1].counters
                counters = (c.isleft_evals, c.shuffle_iterations, c.deque_ops)
            else:
                steps, counters = (0, 0, 0, 0, 0), (0, 0, 0)
            rows.append(BenchmarkRow(
                m1=plan.m1, m2=plan.m2, m=m, n=n, density=n / m,
                variant=variant, rep_count=plan.repetitions,
                median_ns=median_ns, step_ns=steps,
                isleft_evals=counters[0], shuffle_iterations=counters[1],
                deque_ops=counters[2],
            ))
    return rows


def write_csv(rows: Sequence[BenchmarkRow], fh: IO[str]) -> None:
    """Write rows under the fixed header, one line per benchmark cell.

    `fh` is an open text file; open it with ``newline=""``, as the csv
    module asks.
    """
    writer = csv.writer(fh)
    writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow((
            r.m1, r.m2, r.m, r.n, f"{r.density:.10g}", r.variant,
            r.rep_count, r.median_ns, *r.step_ns,
            r.isleft_evals, r.shuffle_iterations, r.deque_ops,
        ))

