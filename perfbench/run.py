"""Run one workload of the repository benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-blocking --seed 1988 \\
        --seconds 30 --trace 0

``--workload all`` runs every workload in turn, each in its own
process.  ``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced pass (``BENCHMARK.json`` names both
lists).  Every metric is printed as ``name value unit`` with its
quartiles; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
results document (provenance, medians, quartiles, sample counts) and, for
traced runs, the span trace are written to ``perfbench/out/``.

The program is imported from ``src/`` of the checkout; without it the
run exits with status 2 and prints no result.  See
``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("paper-blocking", "paper-discarding", "service-zipf")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=(*WORKLOADS, "all")
    )
    parser.add_argument("--seed", type=int, default=1988)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric_names(trace: bool) -> list[tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [
        (metric["name"], metric["unit"])
        for metric in spec["per_layer" if trace else "end_to_end"]
    ]


def _run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process; print one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        completed = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"),
                "--workload", workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if completed.returncode != 0 or not lines:
            return completed.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, entry in result["metrics"].items():
            combined["metrics"][f"{workload}:{name}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(SRC))
    # A terminated run unwinds like an interrupted one, so the service
    # workload still stops its worker and client processes.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    import common
    import pins

    common.confine_temporary_files()

    trace = bool(args.trace)
    pinned = pins.load()
    if args.workload == "service-zipf":
        import service_zipf

        outcome, tracer = service_zipf.run(
            args.seed, args.seconds, trace, pinned["service-zipf"]
        )
    else:
        import paper

        outcome, tracer = paper.run(
            args.workload,
            args.seed,
            args.seconds,
            trace,
            pins.expected(pinned, args.workload, args.seed),
        )
    outcome.set(
        "peak_rss_mb",
        "MB",
        common.peak_rss_mb(include_children=args.workload == "service-zipf"),
    )
    summary = common.summarize(outcome)
    error_rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0

    metrics = {}
    for name, unit in _metric_names(trace):
        entry = summary.get(name)
        if entry is None:
            if not trace:
                print(f"perfbench: {name} was not measured", file=sys.stderr)
                return 1
            entry = {"value": 0.0, "q1": 0.0, "q3": 0.0, "n": 0, "unit": unit}
        metrics[name] = {"value": entry["value"], "unit": unit}

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    document = {
        "workload": args.workload,
        "trace": trace,
        "seconds": args.seconds,
        "runs": outcome.passes,
        **common.provenance(args.seed),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "error_rate": error_rate,
        "failures": outcome.failures[:50],
        "notes": outcome.notes,
        "metrics": summary,
    }
    common.write_document(f"{label}.json", document)
    if tracer is not None:
        common.write_document(f"{label}-spans.json", {"roots": tracer.dump()})

    print(f"# {args.workload} seed={args.seed} passes={outcome.passes}")
    for name in sorted(summary):
        entry = summary[name]
        print(
            f"{name:40s} {entry['value']:.6g} {entry['unit']}"
            f"  [q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, n={entry['n']}]"
        )
    print(
        f"{'error_rate':40s} {error_rate:.6g} frac"
        f"  [{outcome.failed} failed of {outcome.attempted}]"
    )
    for key, value in sorted(outcome.notes.items()):
        print(f"# {key} = {value}")
    for failure in outcome.failures[:10]:
        print(f"# FAILED {failure}")
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
