"""Command-line entry point for the perf-trajectory harness.

Examples::

    # Quick benchmark of every experiment, written to BENCH.json:
    python -m repro.perf --quick -o BENCH.json

    # Compare against the committed baseline (CI perf-smoke job):
    python -m repro.perf --quick -o BENCH.json --backend reference \\
        --baseline benchmarks/BENCH_2_quick.json --max-regression 3.0

    # Profile one experiment's hot path:
    python -m repro.perf --quick --profile figure3.prof figure3
"""

from __future__ import annotations

import argparse
import sys

from repro.cache.store import DEFAULT_CACHE_DIR, ResultCache
from repro.experiments.runner import EXPERIMENTS
from repro.perf.harness import (
    compare_to_baseline,
    load_bench,
    run_harness,
    write_bench,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Benchmark the experiment pipeline and track the result.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help=f"experiments to measure (default: all of {sorted(EXPERIMENTS)})",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="use the shortened simulation windows (benchmark fidelity)",
    )
    parser.add_argument("--seed", type=int, default=1988)
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes per simulation grid (0 = one per CPU)",
    )
    parser.add_argument(
        "--backend",
        choices=["reference", "numpy"],
        default=None,
        help="force the simulation backend (recorded in the benchmark "
        "JSON; baselines from a different backend are refused).  Unset, "
        "the REPRO_BACKEND environment variable applies softly, else "
        "numpy wherever it is exact",
    )
    parser.add_argument(
        "-o",
        "--output",
        metavar="PATH",
        help="write the benchmark JSON here (e.g. BENCH.json)",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        help="compare wall times against this earlier benchmark file",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=3.0,
        help="fail when any experiment exceeds this multiple of its "
        "baseline wall time (default: 3.0)",
    )
    parser.add_argument(
        "--profile",
        metavar="PROF",
        help="run under cProfile and write stats to PROF "
        "(inspect with python -m pstats)",
    )
    parser.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="measure cold vs warm-cache wall time: the store is cleared, "
        "each experiment runs cold (populating it) and again warm "
        "(served from it); warm_* fields land in the benchmark JSON",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=DEFAULT_CACHE_DIR,
        help=f"cache directory for --cache (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="benchmark with full event tracing enabled (quantifies the "
        "telemetry overhead; artifacts land in TRACE_DIR)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="benchmark with metrics-only telemetry (counters, no ring)",
    )
    parser.add_argument(
        "--trace-dir",
        metavar="DIR",
        default="telemetry",
        help="export directory for --trace/--metrics (default: ./telemetry)",
    )
    args = parser.parse_args(argv)
    if args.trace or args.metrics:
        import os

        env_name = "REPRO_TRACE" if args.trace else "REPRO_METRICS"
        os.environ[env_name] = args.trace_dir

    experiment_ids = args.experiments or None
    cache = ResultCache(args.cache_dir) if args.cache else None

    def measure() -> dict:
        return run_harness(
            experiment_ids,
            quick=args.quick,
            seed=args.seed,
            jobs=args.jobs,
            cache=cache,
            backend=args.backend,
        )

    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        document = profiler.runcall(measure)
        profiler.dump_stats(args.profile)
        print(f"profile written to {args.profile}")
    else:
        document = measure()

    if args.output:
        path = write_bench(document, args.output)
        print(f"benchmark written to {path}")

    if args.baseline:
        failures = compare_to_baseline(
            document,
            load_bench(args.baseline),
            max_regression=args.max_regression,
        )
        if failures:
            for failure in failures:
                print(f"PERF REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(f"within {args.max_regression:.1f}x of {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
