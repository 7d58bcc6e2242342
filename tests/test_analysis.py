import csv
import io
import math
from dataclasses import astuple
from pathlib import Path

import pytest

from rankhull import analysis
from rankhull.analysis import (
    CSV_HEADER,
    EXTREMES_VARIANT,
    SORT_VARIANT,
    VARIANTS,
    BenchmarkPlan,
    run_benchmark,
    write_csv,
)
from rankhull.errors import InvalidDensityError
from rankhull.pipeline import (
    ROUTE_COSTS,
    ROUTES,
    Route,
    RouteCosts,
    choose_route,
    route_terms,
)

SWEEP = Path(__file__).resolve().parent.parent / "docs" / "route_sweep.csv"


def test_empty_plan_produces_no_rows():
    plan = BenchmarkPlan(m1=10, m2=10)
    assert run_benchmark(plan) == []


def test_plan_validation(monkeypatch):
    def generate(*args, **kwargs):
        raise AssertionError("a cell ran before the plan was validated")

    monkeypatch.setattr(analysis, "generate_dense_set", generate)
    for densities in ((1.5,), (True,), ("0.5",)):
        with pytest.raises(InvalidDensityError, match="density"):
            run_benchmark(BenchmarkPlan(m1=10, m2=10, densities=densities))
    for repetitions in (2, 3.5):
        with pytest.raises(ValueError, match="repetitions"):
            run_benchmark(BenchmarkPlan(m1=10, m2=10, densities=(0.5,), repetitions=repetitions))
    with pytest.raises(ValueError):
        run_benchmark(BenchmarkPlan(m1=10, m2=10, variants=("quickhull",)))


@pytest.mark.parametrize("counts", [(5, 200), (5, 2.7), (5, -1), (5, True)])
def test_plan_counts_are_checked_before_any_cell_runs(monkeypatch, counts):
    def generate(*args, **kwargs):
        raise AssertionError("a cell ran before the plan was validated")

    monkeypatch.setattr(analysis, "generate_dense_set", generate)
    with pytest.raises(InvalidDensityError, match="count"):
        run_benchmark(BenchmarkPlan(m1=10, m2=10, counts=counts))


def test_plan_counts_may_run_from_zero_to_the_box_area():
    rows = run_benchmark(BenchmarkPlan(m1=10, m2=10, counts=(0, 100), variants=(SORT_VARIANT,)))
    assert [(r.n, r.density) for r in rows] == [(0, 0.0), (100, 1.0)]


def test_benchmark_rows_cover_each_cell_in_order():
    plan = BenchmarkPlan(m1=40, m2=30, densities=(0.1, 0.4), repetitions=3, seed=6)
    rows = run_benchmark(plan)
    # every variant by default, in the order of VARIANTS
    assert [(r.n, r.variant) for r in rows] == [(n, v) for n in (120, 480) for v in VARIANTS]
    for row in rows:
        assert row.m == 1200
        assert row.median_ns > 0
        if row.variant == SORT_VARIANT:
            assert row.shuffle_iterations == row.n
        elif row.variant == EXTREMES_VARIANT:
            # the occupied lines of the sample's tight box, at most the plan box's
            assert 0 < row.shuffle_iterations <= min(row.m1, row.m2)
        else:
            assert row.step_ns == (0, 0, 0, 0, 0)
            assert row.shuffle_iterations == 0


def test_a_cells_variants_take_turns_after_one_warm_up_each():
    # each round starts one variant further on, so none always runs first
    order = []
    calls = [lambda v=v: order.append(v) or v for v in "abc"]
    timed = analysis._time_cell(calls, 3)
    assert "".join(order) == "abc" + "abc" + "bca" + "cab"
    assert [results for _, results in timed] == [["a"] * 3, ["b"] * 3, ["c"] * 3]
    assert all(type(ns) is int and ns >= 0 for ns, _ in timed)


def test_benchmark_counters_are_deterministic():
    plan = BenchmarkPlan(m1=50, m2=50, densities=(0.05, 0.2, 0.5), repetitions=3, seed=123)
    a = run_benchmark(plan)
    b = run_benchmark(plan)
    keyed = lambda rows: [
        (r.n, r.variant, r.isleft_evals, r.shuffle_iterations, r.deque_ops) for r in rows
    ]
    assert keyed(a) == keyed(b)


def test_csv_schema_is_stable():
    plan = BenchmarkPlan(m1=32, m2=32, densities=(0.2,), repetitions=3, seed=4)
    rows = run_benchmark(plan)
    buf = io.StringIO()
    write_csv(rows, buf)
    parsed = list(csv.reader(io.StringIO(buf.getvalue())))
    assert parsed[0] == list(CSV_HEADER)
    assert len(parsed) == len(rows) + 1
    first = parsed[1]
    assert first[0] == "32" and first[5] == EXTREMES_VARIANT
    assert int(first[7]) == rows[0].median_ns


def test_byte_extremes_rows_count_the_lines_they_read():
    plan = BenchmarkPlan(m1=40, m2=30, densities=(0.1, 0.6), seed=6, variants=(EXTREMES_VARIANT,))
    for row in run_benchmark(plan):
        assert row.variant == EXTREMES_VARIANT and row.median_ns > 0
        # the lines run along the box's longer side: at most min(m1, m2) are occupied
        assert 0 < row.shuffle_iterations <= min(row.m1, row.m2)
        assert row.deque_ops <= 3 * 2 * row.shuffle_iterations + 4


def test_sorted_ranks_rows_count_the_ranks_they_sort():
    plan = BenchmarkPlan(m1=40, m2=30, densities=(0.1, 0.6), seed=6, variants=(SORT_VARIANT,))
    for row in run_benchmark(plan):
        assert row.variant == SORT_VARIANT and row.median_ns > 0
        # the points are distinct: every one is a rank to sort
        assert row.shuffle_iterations == row.n
        # a chain of n points: at most three deque operations a point, plus four
        assert 0 < row.deque_ops <= 3 * row.n + 4


# --- the route costs, fitted to the committed sweep --------------------------

# the variant that times each of ROUTES in a sweep
_VARIANT_OF = dict(zip(ROUTES, (EXTREMES_VARIANT, SORT_VARIANT)))
# the paper's p-bit pipeline at p = 64: a variant only of the sweep file
# recorded at 25b5590, while the pipeline still had that route
_RANK_PIPELINE = "rank_pipeline"
# the sort route's step 4, the sort alone, kept beside the cell's times
_SORT_STEP = "sorted_ranks step 4"


def _det(a):
    if len(a) == 1:
        return a[0][0]
    return sum((-1) ** j * a[0][j] * _det([row[:j] + row[j + 1:] for row in a[1:]])
               for j in range(len(a)))


def _fit(samples):
    """The costs c that minimise the sum of ((terms · c - t) / t)² over (terms, t) samples.

    Relative error, so a 100 µs cell weighs as much as a 100 ms one: the
    normal equations of x · c = 1 with x = terms / t, solved by Cramer's rule.
    """
    xs = [[u / t for u in terms] for terms, t in samples]
    k = len(xs[0])
    a = [[sum(x[i] * x[j] for x in xs) for j in range(k)] for i in range(k)]
    b = [sum(x[i] for x in xs) for i in range(k)]
    d = _det(a)
    return tuple(_det([row[:i] + [bi] + row[i + 1:] for row, bi in zip(a, b)]) / d
                 for i in range(k))


def _fit_route_costs(cells):
    """`RouteCosts` fitted to {(m1, m2, n): {variant: ns}} of f1 cells at p = 64.

    A route's ns is its time past step 1, which is what the router compares.
    The sort route's two terms are fitted one at a time: its per-n·log2 n
    cost to its step 4 (`_SORT_STEP`), the sort alone, and its per-point
    cost to the rest. Fitted jointly, the sort's cost comes out negative:
    each call's fixed cost, which no term prices, weighs most in the
    smallest cells, and a negative n·log2 n cost, which lowers the cost
    per point as n grows, absorbs it.
    """
    if len(cells) < 4:
        raise ValueError(f"need at least 4 cells, got {len(cells)}")
    fitted = []
    for i, route in enumerate(ROUTES):
        # m1 lines, not the pipeline's min(m1, m2): the committed sweep ran
        # byte extremes by f1, column by column, on boxes no taller than wide
        samples = [(route_terms(n, m1 * m2, m1)[i], ns[_VARIANT_OF[route]])
                   for (m1, m2, n), ns in cells.items()]
        if route is Route.SORT:
            sorts = [ns[_SORT_STEP] for ns in cells.values()]
            rest = [((points,), t - sort) for ((points, _), t), sort in zip(samples, sorts)]
            sort = [((nlogn,), sort) for ((_, nlogn), _), sort in zip(samples, sorts)]
            fitted.append(_fit(rest) + _fit(sort))
        else:
            fitted.append(_fit(samples))
    return RouteCosts(*fitted)


def _flat(costs):
    return [c for per_route in astuple(costs) for c in per_route]


def _sweep_cells():
    """The sweep's f1 cells, each variant's time past step 1.

    The oracle variant has no step 1 (its step times are zero): its ns is
    `hull_oracle`'s own. Each cell also holds the sort route's step 4. The
    file recorded at 25b5590 has a `p` column, 64 in every row; a sweep
    made by today's `rankhull bench` has none.
    """
    cells = {}
    with open(SWEEP, newline="", encoding="utf-8") as fh:
        for r in csv.DictReader(fh):
            assert r.get("p", "64") == "64"
            ns = cells.setdefault((int(r["m1"]), int(r["m2"]), int(r["n"])), {})
            ns[r["variant"]] = int(r["median_ns"]) - int(r["step1_ns"])
            if r["variant"] == SORT_VARIANT:
                ns[_SORT_STEP] = int(r["step4_ns"])
    return cells


def test_the_fit_recovers_the_costs_of_exact_timings():
    truth = RouteCosts(extremes=(400.0, 1.0, 2000.0), sort=(1500.0, 25.0))
    boxes = ((64, 48, 300), (640, 480, 9000), (2048, 2048, 1000), (100, 3000, 20000),
             (4096, 4096, 5000), (320, 240, 25))
    cells = {
        (m1, m2, n): {
            _VARIANT_OF[route]: sum(map(lambda c, t: c * t, costs, terms))
            for route, costs, terms in zip(ROUTES, astuple(truth), route_terms(n, m1 * m2, m1))
        }
        for m1, m2, n in boxes
    }
    for (_, _, n), ns in cells.items():
        ns[_SORT_STEP] = truth.sort[1] * n * math.log2(n)
    assert _flat(_fit_route_costs(cells)) == pytest.approx(_flat(truth), rel=1e-6)
    with pytest.raises(ValueError, match="4 cells"):
        _fit_route_costs(dict(list(cells.items())[:3]))


def test_the_route_costs_are_the_fit_of_the_committed_sweep():
    cells = _sweep_cells()
    assert len(cells) == 37
    assert all({*VARIANTS, _SORT_STEP} <= ns.keys() and min(ns.values()) > 0
               for ns in cells.values())
    # the committed constants are the fit rounded to four significant digits
    assert _flat(ROUTE_COSTS) == pytest.approx(_flat(_fit_route_costs(cells)), rel=5e-4)


def test_the_router_is_near_the_fastest_route_in_every_cell_of_the_sweep():
    worst = 1.0
    for (m1, m2, n), ns in _sweep_cells().items():
        # the question the pipeline asks: the box's min(m1, m2) lines
        picked = ns[_VARIANT_OF[choose_route(n, m1 * m2, min(m1, m2))]]
        worst = max(worst, picked / min(ns[v] for v in _VARIANT_OF.values()))
    assert worst < 1.5


def test_sorted_ranks_beat_the_p_bit_pipeline_in_every_cell_of_the_sweep():
    # a check of the sweep file as recorded at 25b5590, the record of why
    # the pipeline has no p-bit route: in each cell sorting the ranks was
    # faster, and its scan made the same decisions
    rows = {}
    with open(SWEEP, newline="", encoding="utf-8") as fh:
        for r in csv.DictReader(fh):
            rows[(r["m1"], r["m2"], r["n"], r["variant"])] = r
    cells = {key[:3] for key in rows}
    assert len(cells) == 37
    for cell in cells:
        sort, rank = rows[(*cell, SORT_VARIANT)], rows[(*cell, _RANK_PIPELINE)]
        assert int(sort["median_ns"]) < int(rank["median_ns"]), cell
        for counter in ("isleft_evals", "deque_ops"):
            assert sort[counter] == rank[counter], (cell, counter)
