"""Record an untraced and a traced run of every workload into one JSON file.

Usage, from the root of a checkout::

    python3 hullbench/record_baseline.py --label <commit> --seed 1 --seconds 30 \\
        --out hullbench/results/baseline-<commit>.json

Each workload gets both runs' description and result lines as ``run.py``
printed them, plus ``layer_share``: each layer's self time as a share of the
traced call (parse and decode plus ``convex_hull_ranked``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
    )
    description, result = proc.stdout.strip().splitlines()[-2:]
    return {"description": json.loads(description), "result": json.loads(result)}


def layer_share(traced: dict) -> dict:
    metrics = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
    call = (metrics["pnm.parse_pnm.ms"] + metrics["pnm.image_to_points.ms"]
            + metrics["pipeline.convex_hull_ranked.ms"])
    return {
        name: value / call
        for name, value in metrics.items()
        if name.endswith(".ms") and name not in (
            "pipeline.convex_hull_ranked.ms", "hull.hull_oracle.ms")
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    record = {
        "label": args.label,
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": {
            "processor": platform.processor() or platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "workloads": {},
    }
    for wl in SPEC["workloads"]:
        untraced = bench(wl["name"], args.seed, args.seconds, 0)
        traced = bench(wl["name"], args.seed, args.seconds, 1)
        record["workloads"][wl["name"]] = {
            "untraced": untraced,
            "traced": traced,
            "layer_share": layer_share(traced),
        }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
