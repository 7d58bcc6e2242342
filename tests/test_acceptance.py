"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (visible with `pytest -s`) and covers
one exit criterion: worked bit-table examples, density thresholds, the
10,000-instance oracle-equivalence sweep, shuffle equivalence, chain
simplicity, machine-independent counter scaling, and the wall-clock
linearity and block-width trends.
"""

import gc
import math
import random
import statistics
import time
from dataclasses import dataclass

import pytest

from chaincheck import chain_is_simple
from rankhull.analysis import (
    EXTREMES_VARIANT,
    BenchmarkPlan,
    _cell_seed,
    run_benchmark,
)
from rankhull.geometry import Point, coordinates
from rankhull.hull import hull_oracle
from rankhull.paper import (
    RankFunction,
    build_rank_table,
    density_threshold_refined,
    density_threshold_simple,
    extract_set_bits,
    fast_shuffle,
    paper_steps,
    shuffle_naive,
)
from rankhull.pipeline import ROUTES, RankVariant, _hull
from rankhull.pointio import generate_dense_set


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"{name}: {detail}"


# --- shared heavy sweep: 10,000 randomized instances ---------------------

@dataclass
class SuiteOutcome:
    instances: int
    mismatches: int
    worst_deque_slack: int
    elapsed_s: float


def _random_instance(rng: random.Random) -> list[Point]:
    """n in [1, 500], coordinates in [0, 255], densities spread to ~85%.

    Aiming the sample at a sub-box of the right area spreads instance
    densities from well below 1% to near full occupancy. One instance in
    ten gets injected duplicates and a collinear run.
    """
    inject = rng.random() < 0.10
    n = rng.randint(1, 500)
    base = max(1, n - 45) if inject else n
    target_d = 10 ** rng.uniform(math.log10(0.005), math.log10(0.85))
    area = max(base, round(base / target_d))
    w = max(1, min(256, round(math.sqrt(area * rng.uniform(0.4, 2.5)))))
    h = max(1, min(256, -(-area // w)))
    x0 = rng.randint(0, 256 - w)
    y0 = rng.randint(0, 256 - h)
    if rng.random() < 0.3 and base <= w * h:
        rf = RankFunction(RankVariant.COLUMN_MAJOR, w, h)
        pts = [
            Point(x0 + x - 1, y0 + y - 1)
            for x, y in rf.unrank_all(rng.sample(range(1, w * h + 1), base))
        ]
    else:
        pts = [
            Point(x0 + rng.randrange(w), y0 + rng.randrange(h)) for _ in range(base)
        ]
    if inject:
        pts += rng.choices(pts, k=rng.randint(1, 20))
        bx, by = rng.randint(0, 255), rng.randint(0, 255)
        dx, dy = rng.choice([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2)])
        for t in range(rng.randint(3, 25)):
            x, y = bx + t * dx, by + t * dy
            if 0 <= x <= 255 and 0 <= y <= 255:
                pts.append(Point(x, y))
        rng.shuffle(pts)
    return pts


@pytest.fixture(scope="module")
def oracle_suite() -> SuiteOutcome:
    # each instance through both routes; an instance counts once as a
    # mismatch, and the byte route's chain is at most its n distinct points
    rng = random.Random(0xD15EA5E)
    mismatches = 0
    worst = -(10**9)
    started = time.perf_counter()
    for _ in range(10_000):
        pts = _random_instance(rng)
        expected = hull_oracle(pts)
        reports = [_hull(pts, route) for route in ROUTES]
        if any(report.hull != expected for report in reports):
            mismatches += 1
        worst = max(worst, *(r.counters.deque_ops - 3 * r.n for r in reports))
    return SuiteOutcome(10_000, mismatches, worst, time.perf_counter() - started)


# --- criteria -------------------------------------------------------------

def test_01_bit_extraction_recovers_tabled_positions():
    started = time.perf_counter_ns()
    positions = extract_set_bits(16692)
    elapsed_ns = time.perf_counter_ns() - started
    ok = positions == [2, 4, 5, 8, 14] and len(positions) == 5 and elapsed_ns < 1e6
    _verdict(
        "1 word 16692 extracts [2,4,5,8,14] in 5 steps under 1 ms",
        ok, f"{positions} in {elapsed_ns} ns",
    )


def test_02_four_bit_buckets_load_and_shuffle_in_rank_order():
    rf = RankFunction(RankVariant.COLUMN_MAJOR, 4, 4)
    pts = rf.unrank_all([5, 8, 2])
    xs, ys = coordinates(pts)
    table = build_rank_table(rf.cells(xs, ys), rf.m, 4)
    recovered = fast_shuffle(table).order
    ok = table.bloom[1] == 9 and table.bloom[0] == 2 and recovered == [2, 5, 8]
    _verdict(
        "2 p=4 buckets: ranks {5,8,2} give words 9 and 2, shuffle order 2,5,8",
        ok, f"bloom={table.bloom} order={recovered}",
    )


def test_03_density_thresholds():
    from fractions import Fraction

    r32 = density_threshold_refined(32)
    r64 = density_threshold_refined(64)
    ok = (
        r32 == Fraction(1, 141377)
        and round(float(r32) * 1e6, 2) == 7.07
        and round(float(r64) * 1e7, 2) == 9.18
        and density_threshold_simple(32) == Fraction(1, 32)
        and density_threshold_simple(64) == Fraction(1, 64)
    )
    _verdict(
        "3 thresholds: 1/32 and 1/64 simple; 7.07e-6 and 9.18e-7 refined",
        ok, f"refined32={float(r32):.4g} refined64={float(r64):.4g}",
    )


def test_04_ten_thousand_instances_match_the_oracle(oracle_suite):
    ok = (
        oracle_suite.instances == 10_000
        and oracle_suite.mismatches == 0
        and oracle_suite.elapsed_s < 60
    )
    _verdict(
        "4 oracle equivalence: 10,000 instances on the byte and sort routes,"
        " zero mismatches, under 60 s",
        ok,
        f"{oracle_suite.mismatches} mismatches in {oracle_suite.elapsed_s:.1f} s",
    )


def test_05_shuffles_agree_across_block_widths():
    rng = random.Random(0xB10C)
    mismatches = 0
    for _ in range(1000):
        m1 = rng.randint(1, 64)
        m2 = rng.randint(1, 64)
        m = m1 * m2
        n = rng.randint(0, m)
        ranks = rng.sample(range(1, m + 1), n)
        rf = RankFunction(RankVariant.COLUMN_MAJOR, m1, m2)
        xs, ys = coordinates(rf.unrank_all(ranks))
        expected = sorted(ranks)
        for p in (8, 16, 32, 64):
            table = build_rank_table(rf.cells(xs, ys), rf.m, p)
            if not (
                fast_shuffle(table).order == shuffle_naive(table).order == expected
            ):
                mismatches += 1
    _verdict(
        "5 shuffle equivalence: fast == naive == sorted ranks, p in {8,16,32,64}",
        mismatches == 0, f"{mismatches} mismatching tables",
    )


def test_06_rank_chains_are_simple():
    rng = random.Random(0x51D)
    violations = 0
    for _ in range(1000):
        m1 = rng.randint(1, 64)
        m2 = rng.randint(1, 64)
        rf = RankFunction(RankVariant.COLUMN_MAJOR, m1, m2)
        n = rng.randint(1, min(200, m1 * m2))
        pts = rf.unrank_all(rng.sample(range(1, m1 * m2 + 1), n))
        xs, ys = coordinates(pts)
        table = build_rank_table(rf.cells(xs, ys), rf.m, 64)
        chain = rf.unrank_all(fast_shuffle(table).order)
        if not chain_is_simple(chain):
            violations += 1
    _verdict(
        "6 chain simplicity: 1000 rank-ordered chains pass the O(n^2) check",
        violations == 0, f"{violations} self-intersecting chains",
    )


def test_07_counters_double_with_point_count():
    # the paper's steps at p = 64: bit table, word walk, deque scan
    base = paper_steps(generate_dense_set(640, 480, count=9216, seed=7), 64)
    double = paper_steps(generate_dense_set(640, 480, count=18432, seed=8), 64)

    def total(steps):
        return steps.stats.isleft_evals + steps.shuffled.iterations + steps.stats.deque_ops

    ratio = total(double) / total(base)
    exact = all(
        s.shuffled.iterations == s.table.r + s.table.n for s in (base, double)
    )
    ok = 1.9 <= ratio <= 2.1 and exact
    _verdict(
        "7 counter scaling: n vs 2n total in [1.9, 2.1]; shuffle == r + n exactly",
        ok, f"ratio={ratio:.4f} exact_r_plus_n={exact}",
    )


@pytest.fixture(scope="module")
def linearity_rows():
    plan = BenchmarkPlan(
        m1=640, m2=480,
        counts=(256, 1024, 4096, 16384, 65536, 261120),  # up to 85% occupancy
        repetitions=3,
        seed=2024,
        variants=(EXTREMES_VARIANT,),  # the paper's O(n + m) base table
    )
    return run_benchmark(plan)


def test_08_time_grows_linearly_with_n(linearity_rows):
    ns = [r.n for r in linearity_rows]
    times = [r.median_ns for r in linearity_rows]
    # R^2 of the least-squares line is the square of the correlation
    r_squared = statistics.correlation(ns, times) ** 2
    slope = statistics.linear_regression(ns, times).slope
    ok = r_squared >= 0.95
    # every (n, median_ns) cell, so that a failure says which cell moved
    cells = " ".join(f"({n}, {t:.0f})" for n, t in zip(ns, times))
    _verdict(
        "8 wall-clock linearity: R^2 >= 0.95 for byte_extremes time vs n at 640x480",
        ok, f"R^2={r_squared:.4f} slope={slope:.0f} ns/point; (n, median_ns): {cells}",
    )


def test_09_wider_blocks_do_not_slow_the_shuffle():
    # each cell's points are the ones `run_benchmark` draws for seed 77;
    # step 4 is timed inside whole runs of the paper's steps, so the walk
    # never reads a table left warm by the previous timing; a discarded
    # warm-up run of each width, then the median of 5 in which the two
    # widths take turns, collector off, so that host load and collections
    # fall on both alike
    shuffle_ns = {}
    gc.disable()
    try:
        for d in (0.01, 0.03, 0.10, 0.42):
            n = round(d * 640 * 480)
            pts = generate_dense_set(640, 480, count=n, seed=_cell_seed(77, n))
            walks = {32: [], 64: []}
            for p in walks:
                paper_steps(pts, p)
            for rep in range(5):
                for p in (32, 64) if rep % 2 else (64, 32):
                    walks[p].append(paper_steps(pts, p).walk_ns)
            for p, ns in walks.items():
                shuffle_ns[(n, p)] = statistics.median(ns)
    finally:
        gc.enable()
    cells = sorted({n for n, _ in shuffle_ns})
    wins = sum(shuffle_ns[(n, 64)] <= shuffle_ns[(n, 32)] for n in cells)
    ok = len(cells) == 4 and wins >= 3
    _verdict(
        "9 block width: p=64 shuffle not slower than p=32 in >= 3 of 4 cells",
        ok, f"{wins} of {len(cells)} cells",
    )


def test_10_deque_work_stays_within_three_per_point(oracle_suite):
    ok = oracle_suite.worst_deque_slack <= 4
    _verdict(
        "10 deque work bound: operations <= 3n + 4 across the whole sweep",
        ok, f"max(deque_ops - 3n) = {oracle_suite.worst_deque_slack}",
    )
