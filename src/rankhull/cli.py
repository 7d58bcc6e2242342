"""Command-line interface.

Exit codes: 0 success, 1 any error, 2 reserved for a --verify mismatch.
"""

from __future__ import annotations

import argparse
import sys

from .analysis import VARIANTS, BenchmarkPlan, run_benchmark, write_csv
from .errors import RankHullError
from .hull import hull_oracle
from .paper import density_threshold_refined, density_threshold_simple
from .pipeline import convex_hull_ranked
from .pnm import image_to_points, load_image_mask
from .pointio import generate_dense_set, load_points, save_points


def _print_hull(hull) -> None:
    for x, y in hull.vertices:
        print(f"{x} {y}")


def _cmd_hull(args: argparse.Namespace) -> int:
    points = load_points(args.points_file)
    report = convex_hull_ranked(points)
    _print_hull(report.hull)
    if args.verify and report.hull != hull_oracle(points):
        print("verify: hull differs from sort-based oracle", file=sys.stderr)
        return 2
    return 0


def _cmd_image_hull(args: argparse.Namespace) -> int:
    points = image_to_points(load_image_mask(args.image_file), args.threshold)
    report = convex_hull_ranked(points)
    _print_hull(report.hull)
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    points = generate_dense_set(
        args.width, args.height, density=args.density, seed=args.seed
    )
    save_points(args.out, points)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    plan = BenchmarkPlan(
        m1=args.width,
        m2=args.height,
        densities=args.densities,
        repetitions=args.reps,
        seed=args.seed,
        variants=args.variants,
    )
    rows = run_benchmark(plan)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        write_csv(rows, fh)
    return 0


def _cmd_thresholds(args: argparse.Namespace) -> int:
    for p in args.p_list:
        simple = density_threshold_simple(p)
        refined = density_threshold_refined(p)
        print(
            f"p={p} simple={simple} ({float(simple):.6e}) "
            f"refined={refined} ({float(refined):.6e})"
        )
    return 0


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part]


def _str_list(text: str) -> list[str]:
    return [part for part in text.split(",") if part]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankhull",
        description="Convex hulls of dense integer point sets via rank ordering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    hull = sub.add_parser("hull", help="hull of a point file")
    hull.add_argument("points_file")
    hull.add_argument("--verify", action="store_true",
                      help="also run the sort-based oracle; exit 2 on mismatch")
    hull.set_defaults(func=_cmd_hull)

    image = sub.add_parser("image-hull", help="hull of a raster's foreground pixels")
    image.add_argument("image_file")
    image.add_argument("--threshold", type=int, default=1)
    image.set_defaults(func=_cmd_image_hull)

    gen = sub.add_parser("gen", help="generate a random dense point set")
    gen.add_argument("--width", type=int, required=True)
    gen.add_argument("--height", type=int, required=True)
    gen.add_argument("--density", type=float, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    bench = sub.add_parser("bench", help="run a benchmark sweep to CSV")
    bench.add_argument("--width", type=int, required=True)
    bench.add_argument("--height", type=int, required=True)
    bench.add_argument("--densities", type=_float_list, required=True)
    bench.add_argument("--variants", type=_str_list, default=list(VARIANTS),
                       help=f"comma-separated, from {','.join(VARIANTS)}")
    bench.add_argument("--reps", type=int, default=3)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", required=True)
    bench.set_defaults(func=_cmd_bench)

    thresholds = sub.add_parser("thresholds", help="print density thresholds per p")
    thresholds.add_argument("--p-list", type=_int_list, required=True)
    thresholds.set_defaults(func=_cmd_thresholds)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for --verify
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (RankHullError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())
