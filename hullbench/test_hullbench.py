"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root with ``python3 -m pytest -q hullbench``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from checkout import ROOT, rankhull
from inputs import make_cases
from spans import Span, Tracer, self_times

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "dense_uniform": dataclasses.replace(
        run.WORKLOADS["dense_uniform"], width=40, height=30, n=120, cases=2),
    "sparse_box": dataclasses.replace(
        run.WORKLOADS["sparse_box"], width=256, height=256, n=32, cases=2),
    "image_mask": dataclasses.replace(
        run.WORKLOADS["image_mask"], width=64, height=48, n=92, cases=2),
}


def bench(capsys, workload: str, trace: int, seed: int = 1):
    """Run the CLI on a tiny workload; returns (exit code, description, result, stderr)."""
    code = run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0.05",
         "--trace", str(trace)],
        workloads=TINY,
    )
    out, err = capsys.readouterr()
    lines = out.strip().splitlines()
    return code, json.loads(lines[-2]), json.loads(lines[-1]), err


@pytest.fixture(autouse=True)
def spans_in_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


def test_spec_lists_the_workloads_the_bench_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert list(TINY) == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", list(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace):
    code, _, result, _ = bench(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in listed}
    if trace and workload != "image_mask":
        # a layer the workload never calls reads 0
        assert result["metrics"]["pnm.parse_pnm.ms"]["value"] == 0


def test_end_to_end_metrics_are_never_zero(capsys):
    for workload in TINY:
        _, _, result, _ = bench(capsys, workload, 0)
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(TINY))
def test_same_seed_gives_the_same_input_digest(workload):
    first = [c.digest for c in make_cases(TINY[workload], 7)]
    again = [c.digest for c in make_cases(TINY[workload], 7)]
    other = [c.digest for c in make_cases(TINY[workload], 8)]
    assert first == again
    assert first != other
    assert all(d["n"] == TINY[workload].n for d in first)


def test_digest_is_printed(capsys):
    _, description, _, _ = bench(capsys, "image_mask", 0, seed=3)
    assert description["inputs"] == [c.digest for c in make_cases(TINY["image_mask"], 3)]
    assert description["wall_clock"]["samples"] >= 2


def test_injected_wrong_hull_fails_the_run(capsys, monkeypatch):
    real = rankhull.pipeline.melkman

    def drops_a_vertex(chain, stats=None):
        hull = real(chain, stats)
        return rankhull.HullPolygon(hull.vertices[:-1], hull.degenerate)

    monkeypatch.setattr(rankhull.pipeline, "melkman", drops_a_vertex)
    code, description, result, err = bench(capsys, "dense_uniform", 0)
    assert code == 1
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]  # oracle calls still pass
    assert description["failed_frac"] == result["failed"] / result["attempted"]
    assert "FAILED" in err


def test_rank_hull_error_counts_as_failed(capsys, monkeypatch):
    def raises(*args, **kwargs):
        raise rankhull.errors.OutOfGridError("injected")

    monkeypatch.setattr(rankhull.pipeline, "build_rank_table", raises)
    code, description, result, _ = bench(capsys, "sparse_box", 1)
    assert code == 1
    assert result["failed"] > 0
    assert "injected" in description["errors"][0]


def test_self_times_never_exceed_their_span(tmp_path):
    run.run(TINY["image_mask"], 2, 0.05, trace=True)
    rows = json.loads((tmp_path / "spans-image_mask-seed2.json").read_text())
    names = {row["name"] for row in rows}
    assert {"pnm.parse_pnm", "geometry.normalize", "bitrank.build_rank_table",
            "hull.melkman", "pipeline.convex_hull_ranked"} <= names
    for row in rows:
        assert 0 <= row["self_ns"] <= row["end_ns"] - row["start_ns"]
        if row["parent"] is not None:
            parent = rows[row["parent"]]
            assert parent["call_id"] == row["call_id"]
            assert parent["start_ns"] <= row["start_ns"] <= row["end_ns"] <= parent["end_ns"]


def test_self_time_subtracts_each_covered_instant_once():
    spans = [
        Span("root", 1, None, 0, 100),
        Span("a", 1, 0, 10, 40),
        Span("b", 1, 0, 30, 60),  # overlaps a
        Span("c", 1, 0, 90, 120),  # runs past the root
    ]
    assert self_times(spans) == [40, 30, 30, 30]


def test_a_deleted_name_leaves_its_span_absent(monkeypatch):
    monkeypatch.delattr(rankhull.pipeline, "normalize")
    melkman = rankhull.pipeline.melkman
    tracer = Tracer()
    run.install(tracer)
    assert not hasattr(rankhull.pipeline, "normalize")
    assert rankhull.pipeline.melkman is not melkman
    tracer.unwrap()
    assert rankhull.pipeline.melkman is melkman


def test_without_the_library_the_bench_fails_without_a_result(tmp_path):
    (tmp_path / "hullbench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in Path(run.__file__).parent.glob("*.py"):
        shutil.copy(path, tmp_path / "hullbench")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "sparse_box",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
