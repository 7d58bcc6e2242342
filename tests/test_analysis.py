import csv
import io

import pytest

from rankhull.analysis import (
    CSV_HEADER,
    ORACLE_VARIANT,
    RANK_VARIANT,
    BenchmarkPlan,
    linear_fit,
    run_benchmark,
    write_csv,
)
from rankhull.errors import InsufficientDataError, InvalidDensityError


def test_linear_fit_exact_line():
    xs = [1, 2, 3, 4, 5]
    ys = [2 * x + 3 for x in xs]
    fit = linear_fit(xs, ys)
    assert fit.slope == pytest.approx(2.0)
    assert fit.intercept == pytest.approx(3.0)
    assert fit.r_squared == 1.0


def test_linear_fit_constant_data():
    fit = linear_fit([1, 2, 3, 4], [7, 7, 7, 7])
    assert fit.slope == 0.0
    assert fit.r_squared == 1.0


def test_linear_fit_needs_four_samples():
    with pytest.raises(InsufficientDataError):
        linear_fit([1, 2, 3], [1, 2, 3])
    with pytest.raises(InsufficientDataError):
        linear_fit([1, 2, 3, 4], [1, 2, 3])


def test_empty_plan_produces_no_rows():
    plan = BenchmarkPlan(m1=10, m2=10)
    assert run_benchmark(plan) == []


def test_plan_validation():
    with pytest.raises(InvalidDensityError):
        run_benchmark(BenchmarkPlan(m1=10, m2=10, densities=(1.5,)))
    with pytest.raises(ValueError):
        run_benchmark(BenchmarkPlan(m1=10, m2=10, repetitions=2))
    with pytest.raises(ValueError):
        run_benchmark(BenchmarkPlan(m1=10, m2=10, variants=("quickhull",)))


def test_benchmark_rows_cover_each_cell_in_order():
    plan = BenchmarkPlan(
        m1=40, m2=30,
        densities=(0.1, 0.4),
        p_values=(16, 32),
        repetitions=3,
        seed=6,
        variants=(RANK_VARIANT, ORACLE_VARIANT),
    )
    rows = run_benchmark(plan)
    assert [(r.n, r.p, r.variant) for r in rows] == [
        (n, p, v)
        for n in (120, 480)
        for p in (16, 32)
        for v in (RANK_VARIANT, ORACLE_VARIANT)
    ]
    for row in rows:
        assert row.m == 1200
        assert row.median_ns > 0
        if row.variant == RANK_VARIANT:
            # bucket count comes from the sample's tight box, at most the plan box
            assert row.n < row.shuffle_iterations <= -(-row.m // row.p) + row.n
        else:
            assert row.step_ns == (0, 0, 0, 0, 0)
            assert row.shuffle_iterations == 0


def test_benchmark_counters_are_deterministic():
    plan = BenchmarkPlan(
        m1=50, m2=50, densities=(0.05, 0.2, 0.5), p_values=(32,),
        repetitions=3, seed=123,
    )
    a = run_benchmark(plan)
    b = run_benchmark(plan)
    keyed = lambda rows: [
        (r.n, r.p, r.variant, r.isleft_evals, r.shuffle_iterations, r.deque_ops)
        for r in rows
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
    assert first[0] == "32" and first[6] == RANK_VARIANT
    assert int(first[8]) == rows[0].median_ns
