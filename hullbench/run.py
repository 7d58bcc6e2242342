"""Layered benchmark of the rank-ordered hull pipeline against its oracle.

Usage, from the root of a checkout::

    python3 hullbench/run.py --workload dense_uniform --seed 1 --seconds 30 --trace 0

Workloads (sizes in ``WORKLOADS``; every one runs the default
``PipelineConfig()``, so a routing change shows up as the route users get):

- ``dense_uniform``: distinct points uniform in a 480x360 box at density
  0.10, handed over as an in-memory list. The paper's dense regime, where
  box, translate, rank and scan cost about the same per point.
- ``sparse_box``: 1,024 points uniform in a 2048x2048 box (density 2.4e-4,
  m/p = 64 n). The m-slot side table and the word walk dominate.
- ``image_mask``: a 640x480 P4 bitmap of random filled ellipses at 3%
  foreground, passed as bytes through ``parse_pnm`` and ``image_to_points``.
  Parsing and decoding take about half of each call.

Load is a closed loop: one caller in one thread issues each call after the
previous one returns. Each round hulls one input with the rank pipeline and
with ``hull_oracle`` (same parse path), alternating which goes first, so
``speedup_vs_oracle`` compares calls made side by side. Every hull is
compared with a reference hull built at set-up; a mismatch or a
``RankHullError`` counts as failed and fails the run with exit code 1.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of three
set-ups), ``speedup_vs_oracle`` (oracle over pipeline fast-decile latency)
and ``peak_alloc_mib`` (tracemalloc peak of one pipeline call). ``--trace
1`` wraps the functions ``rankhull.pipeline`` and the bench call into each
module (``pnm``, ``geometry``, ``bitrank``, ``hull``, ``pipeline``) in
spans, prints per-layer self times and counts (medians per call), writes the
spans to ``hullbench/out/``, and reports the tracing overhead against
untraced calls made in the same loop.

The second-to-last line of output describes the run: the input digests, the
failed fraction, and the wall-clock latencies (p10, p50, p90 with the sample
count, oracle p10 and p50, points per second). The last line is the result
object.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

from checkout import rankhull
from inputs import Case, Workload, make_cases, to_points
from spans import Tracer, self_times

WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("dense_uniform", "points", 480, 360, 17_280, cases=4),
        Workload("sparse_box", "points", 2048, 2048, 1_024, cases=4),
        Workload("image_mask", "image", 640, 480, 9_216, cases=4),
    )
}
SETUP_REPEATS = 3
OUT_DIR = Path(__file__).resolve().parent / "out"

END_TO_END = {
    "setup_s": "s",
    "speedup_vs_oracle": "ratio",
    "peak_alloc_mib": "MiB",
}

# Self time, per pipeline call, of each wrapped function; hull_oracle is
# taken from the oracle calls instead. pipeline.self.ms includes freeing the
# step-3 tables, which happens as convex_hull_ranked returns.
TIMED_SPANS = (
    "pnm.parse_pnm",
    "pnm.image_to_points",
    "geometry.bounding_box",
    "geometry.normalize",
    "geometry.denormalize",
    "bitrank.build_rank_table",
    "bitrank.fast_shuffle",
    "hull.melkman",
)
PER_LAYER = {
    **{f"{name}.ms": "ms" for name in TIMED_SPANS},
    "hull.hull_oracle.ms": "ms",
    "pipeline.convex_hull_ranked.ms": "ms",
    "pipeline.self.ms": "ms",
    "pnm.pixels": "count",
    "pnm.foreground_frac": "ratio",
    "bitrank.side_table_slots": "count",
    "bitrank.words": "count",
    "bitrank.nonzero_word_frac": "ratio",
    "bitrank.shuffle_iterations": "count",
    "bitrank.duplicates_skipped": "count",
    "hull.chain_len": "count",
    "hull.isleft_evals_per_point": "count/point",
    "hull.deque_ops_per_point": "count/point",
    "hull.vertices": "count",
    "pipeline.fallback_frac": "ratio",
    "pipeline.density": "ratio",
    "trace.overhead_pct": "%",
}


def _table_counts(args: tuple, table) -> dict:
    return {
        "bitrank.side_table_slots": len(getattr(table, "indirect", ())),
        "bitrank.words": getattr(table, "r", 0),
    }


def _shuffle_counts(args: tuple, shuffled) -> dict:
    words = getattr(args[0], "r", 0)
    zero = getattr(shuffled, "zero_buckets_skipped", 0)
    return {"bitrank.nonzero_word_frac": (words - zero) / words if words else 0.0}


def _mask_counts(args: tuple, points) -> dict:
    pixels = args[0].width * args[0].height
    return {"pnm.pixels": pixels, "pnm.foreground_frac": len(points) / pixels}


def _chain_counts(args: tuple, hull) -> dict:
    return {"hull.chain_len": len(args[0])}


def install(tracer: Tracer) -> None:
    """Wrap the names ``rankhull.pipeline`` looks up, and the pnm calls."""
    pipeline, hull, pnm = rankhull.pipeline, rankhull.hull, rankhull.pnm
    targets = [
        (pnm, "parse_pnm", "pnm.parse_pnm", None),
        (pnm, "image_to_points", "pnm.image_to_points", _mask_counts),
        (pipeline, "convex_hull_ranked", "pipeline.convex_hull_ranked", None),
        (pipeline, "bounding_box", "geometry.bounding_box", None),
        (pipeline, "normalize", "geometry.normalize", None),
        (pipeline, "denormalize", "geometry.denormalize", None),
        (pipeline, "build_rank_table", "bitrank.build_rank_table", _table_counts),
        (pipeline, "fast_shuffle", "bitrank.fast_shuffle", _shuffle_counts),
        (pipeline, "shuffle_naive", "bitrank.shuffle_naive", None),
        (pipeline, "melkman", "hull.melkman", _chain_counts),
        (pipeline, "hull_oracle", "hull.hull_oracle", None),
        (hull, "hull_oracle", "hull.hull_oracle", None),
    ]
    for module, attr, name, observe in targets:
        tracer.wrap(module, attr, name, observe)


def pipeline_call(wl: Workload, raw):
    """Input to hull in caller coordinates through the rank pipeline."""
    return rankhull.pipeline.convex_hull_ranked(to_points(wl, raw))


def oracle_call(wl: Workload, raw):
    return rankhull.hull.hull_oracle(to_points(wl, raw))


class Gate:
    """Counts attempted and failed calls; a failure is an error or a wrong hull."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, fn, wl: Workload, case: Case):
        """Run one call; returns (elapsed ns, result), or (None, None) on failure."""
        self.attempted += 1
        start = time.perf_counter_ns()
        try:
            result = fn(wl, case.raw)
        except rankhull.RankHullError as exc:
            self._fail(f"{fn.__name__}: {exc!r}")
            return None, None
        elapsed = time.perf_counter_ns() - start
        hull = getattr(result, "hull", result)
        if hull != case.reference:
            self._fail(f"{fn.__name__}: hull {hull} != reference {case.reference}")
            return None, None
        return elapsed, result

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def setup(wl: Workload, seed: int) -> tuple[list[Case], float]:
    """Make the inputs ``SETUP_REPEATS`` times; returns them and the median time."""
    seconds = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cases = make_cases(wl, seed)
        seconds.append(time.perf_counter() - start)
    return cases, statistics.median(seconds)


def peak_alloc_mib(wl: Workload, case: Case) -> float:
    """tracemalloc peak of one pipeline call, above what was allocated before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pipeline_call(wl, case.raw)
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def rounds(cases: list[Case], seconds: float):
    """Yield (round number, input) until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        yield i, cases[i % len(cases)]
        i += 1


def fast_decile(values: list[float]) -> float:
    """10th percentile: near the unloaded speed while any tenth of the run is quiet."""
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def run_untraced(wl: Workload, cases: list[Case], seconds: float, gate: Gate) -> tuple[dict, dict]:
    """A pipeline and an oracle call on the same input every round.

    Returns the end-to-end metrics and the wall-clock figures they come
    from. Other tenants of a shared host slow whole stretches of a run by up
    to 1.8x, which moves absolute times from run to run far more than any
    bound worth having. Both sides are slowed together, so the speed-up is
    the steady figure; it compares fast deciles, which stay put as long as
    part of the run is quiet.
    """
    pipe_ms: list[float] = []
    oracle_ms: list[float] = []
    points = 0
    for i, case in rounds(cases, seconds):
        for fn in (pipeline_call, oracle_call) if i % 2 == 0 else (oracle_call, pipeline_call):
            elapsed = gate.call(fn, wl, case)[0]
            if elapsed is None:
                continue
            if fn is pipeline_call:
                pipe_ms.append(elapsed / 1e6)
                points += case.n
            else:
                oracle_ms.append(elapsed / 1e6)
    if len(pipe_ms) < 2 or len(oracle_ms) < 2:
        return {}, {}
    raw = {
        "latency_p10_ms": fast_decile(pipe_ms),
        "latency_p50_ms": statistics.median(pipe_ms),
        "latency_p90_ms": statistics.quantiles(pipe_ms, n=10, method="inclusive")[-1],
        "oracle_p10_ms": fast_decile(oracle_ms),
        "oracle_p50_ms": statistics.median(oracle_ms),
        "points_per_s": points / (sum(pipe_ms) / 1e3),
        "samples": len(pipe_ms),
    }
    metrics = {"speedup_vs_oracle": raw["oracle_p10_ms"] / raw["latency_p10_ms"]}
    return metrics, raw


def run_traced(wl: Workload, cases: list[Case], seconds: float, gate: Gate) -> tuple[dict, dict, Tracer]:
    """An untraced and a traced pipeline call every round, in turn first,
    and a traced oracle call every other round.

    The tracing overhead compares the fast deciles of traced and untraced
    calls, for the reason given in :func:`run_untraced`.
    """
    tracer = Tracer()
    plain_ns: list[int] = []
    spanned_ns: list[int] = []
    pipe_calls: dict[int, object] = {}  # call id -> report
    oracle_calls: list[int] = []
    call_ids = itertools.count(1)

    def traced(fn, name, case):
        call_id = next(call_ids)
        install(tracer)
        try:
            with tracer.call(call_id, name):
                elapsed, result = gate.call(fn, wl, case)
        finally:
            tracer.unwrap()
        if elapsed is not None and fn is pipeline_call:
            pipe_calls[call_id] = result
        elif elapsed is not None:
            oracle_calls.append(call_id)
        return elapsed

    for i, case in rounds(cases, seconds):
        if i % 2 == 0:
            plain = gate.call(pipeline_call, wl, case)[0]
            spanned = traced(pipeline_call, "bench.pipeline", case)
            traced(oracle_call, "bench.oracle", case)
        else:
            spanned = traced(pipeline_call, "bench.pipeline", case)
            plain = gate.call(pipeline_call, wl, case)[0]
        if plain is not None:
            plain_ns.append(plain)
        if spanned is not None:
            spanned_ns.append(spanned)
    if len(plain_ns) < 2 or len(spanned_ns) < 2 or not oracle_calls:
        return {}, {}, tracer
    metrics = layer_metrics(tracer, pipe_calls, oracle_calls)
    metrics["trace.overhead_pct"] = (fast_decile(spanned_ns) / fast_decile(plain_ns) - 1) * 100
    raw = {
        "untraced_p50_ms": statistics.median(plain_ns) / 1e6,
        "traced_p50_ms": statistics.median(spanned_ns) / 1e6,
        "samples": len(spanned_ns),
    }
    return metrics, raw, tracer


def layer_metrics(tracer: Tracer, pipe_calls: dict, oracle_calls: list[int]) -> dict:
    """Per-call medians of span self times and counts.

    A span that never occurred (a layer the workload does not use, or a name
    the library no longer has) reads 0.
    """
    per_call: dict[int, dict[str, float]] = {cid: {} for cid in (*pipe_calls, *oracle_calls)}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        row = per_call.get(span.call_id)
        if row is None:
            continue
        key = f"{span.name}.ms"
        row[key] = row.get(key, 0.0) + own / 1e6
        if span.name == "pipeline.convex_hull_ranked":
            row["pipeline.self.ms"] = row[key]
            row[key] = span.duration_ns / 1e6
        row.update(span.attrs)
    for cid, report in pipe_calls.items():
        row = per_call[cid]
        counters = report.counters
        n = max(report.n, 1)
        row.update({
            "bitrank.shuffle_iterations": counters.shuffle_iterations,
            "bitrank.duplicates_skipped": report.duplicates_skipped,
            "hull.isleft_evals_per_point": counters.isleft_evals / n,
            "hull.deque_ops_per_point": counters.deque_ops / n,
            "hull.vertices": len(report.hull),
            "pipeline.fallback_frac": float(getattr(report, "used_fallback", False)),
            "pipeline.density": report.density,
        })

    def median(name: str, calls) -> float:
        return statistics.median(per_call[cid].get(name, 0.0) for cid in calls)

    metrics = {
        name: median(name, oracle_calls if name == "hull.hull_oracle.ms" else pipe_calls)
        for name in PER_LAYER
        if name != "trace.overhead_pct"
    }
    return metrics


def write_spans(tracer: Tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = [
        {
            "name": s.name, "call_id": s.call_id, "parent": s.parent,
            "start_ns": s.start_ns, "end_ns": s.end_ns, "self_ns": own,
            "attrs": s.attrs,
        }
        for s, own in zip(tracer.spans, self_times(tracer.spans))
    ]
    path.write_text(json.dumps(rows))


def run(wl: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns (description, result object)."""
    cases, setup_s = setup(wl, seed)
    gate = Gate()
    for case in cases:  # warm-up, checked but not timed
        gate.call(pipeline_call, wl, case)
        gate.call(oracle_call, wl, case)
    # The inputs live for the whole run; keep the collector from rescanning them.
    gc.collect()
    gc.freeze()
    try:
        if trace:
            metrics, raw, tracer = run_traced(wl, cases, seconds, gate)
            write_spans(tracer, OUT_DIR / f"spans-{wl.name}-seed{seed}.json")
            units = PER_LAYER
        else:
            metrics, raw = run_untraced(wl, cases, seconds, gate)
            if metrics:
                metrics.update(setup_s=setup_s, peak_alloc_mib=peak_alloc_mib(wl, cases[0]))
            units = END_TO_END
    finally:
        gc.unfreeze()
    description = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "wall_clock": raw,
        "failed_frac": gate.failed / max(gate.attempted, 1),
        "errors": gate.errors,
        "inputs": [case.digest for case in cases],
    }
    result = {
        "correct": gate.failed == 0 and bool(metrics),
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }
    return description, result


def main(argv: list[str] | None = None, workloads: dict = WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    description, result = run(
        workloads[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    print(json.dumps(description))
    print(json.dumps(result))
    if not result["correct"]:
        print(
            f"FAILED: {result['failed']} of {result['attempted']} calls raised or "
            f"returned a wrong hull: {description['errors']}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
