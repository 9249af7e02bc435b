"""Performance-trajectory harness: time every experiment, track it per PR.

Each run measures, per experiment, the wall-clock time and the simulated
network-cycles-per-second throughput (cycle counts come from
:func:`repro.perf.parallel.simulated_cycles`, which every experiment's
simulation grid flows through).  Results are written to ``BENCH_<n>.json``
so each PR commits a baseline under ``benchmarks/`` and the next PR can be
compared against it — the perf trajectory of the repo over time.

The JSON schema (version 2)::

    {
      "schema": 2,
      "mode": "quick" | "full",
      "jobs": 1,
      "backend": "reference" | "numpy",
      "experiments": {
        "figure3": {"wall_s": 12.3, "cycles_per_s": 98000.0, "jobs": 1},
        ...
      }
    }

Version 1 files (no ``backend`` field) still load — they predate the
backend abstraction and implicitly measured the reference simulator.
Baseline comparisons refuse to diff documents from different backends:
a 10× kernel speedup is not a perf regression fix, and a regression
hidden behind a backend switch is not a pass.

``python -m repro.perf`` runs the harness from the command line; see
``--help`` for baseline comparison (used by CI's perf-smoke job) and
``--profile`` for a cProfile capture of the slowest experiment path.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.experiments.runner import EXPERIMENTS, run_experiment
from repro.perf.parallel import reset_simulated_cycles, simulated_cycles

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.store import ResultCache

__all__ = [
    "BENCH_SCHEMA",
    "measure_experiment",
    "run_harness",
    "write_bench",
    "load_bench",
    "compare_to_baseline",
]

#: Version tag written into every benchmark file.
BENCH_SCHEMA = 2

#: Schema versions :func:`load_bench` accepts (1 predates the backend
#: field and reads as an implicit reference-backend document).
_READABLE_SCHEMAS = (1, 2)


def measure_experiment(
    experiment_id: str,
    quick: bool = True,
    seed: int = 1988,
    jobs: int | None = 1,
    cache: "ResultCache | None" = None,
    backend: str | None = None,
) -> dict:
    """Run one experiment and return its timing record.

    Returns ``{"wall_s": ..., "cycles_per_s": ..., "jobs": ...}`` where
    ``cycles_per_s`` is simulated network cycles per wall-clock second —
    the harness's primary throughput figure, independent of how many
    simulations the experiment happens to contain.

    With ``cache`` set the experiment runs twice — a cold pass that
    populates the store (timed as ``wall_s``, so baselines stay
    comparable) and a warm pass served from it — and the record
    additionally carries ``warm_wall_s``, ``warm_cycles_simulated``
    (0 when every result was a cache hit) and ``warm_speedup``.
    """
    from repro.perf.parallel import resolve_jobs

    reset_simulated_cycles()
    start = time.perf_counter()
    run_experiment(
        experiment_id,
        quick=quick,
        seed=seed,
        jobs=jobs,
        cache=cache,
        backend=backend,
    )
    wall_s = time.perf_counter() - start
    cycles = simulated_cycles()
    record = {
        "wall_s": round(wall_s, 3),
        "cycles_per_s": round(cycles / wall_s, 1) if wall_s > 0 else 0.0,
        "jobs": resolve_jobs(jobs),
    }
    if cache is not None:
        reset_simulated_cycles()
        start = time.perf_counter()
        run_experiment(
            experiment_id,
            quick=quick,
            seed=seed,
            jobs=jobs,
            cache=cache,
            backend=backend,
        )
        warm_wall_s = time.perf_counter() - start
        record["warm_wall_s"] = round(warm_wall_s, 3)
        record["warm_cycles_simulated"] = simulated_cycles()
        record["warm_speedup"] = (
            round(wall_s / warm_wall_s, 1) if warm_wall_s > 0 else 0.0
        )
    return record


def run_harness(
    experiment_ids: list[str] | None = None,
    quick: bool = True,
    seed: int = 1988,
    jobs: int | None = 1,
    progress: bool = True,
    cache: "ResultCache | None" = None,
    backend: str | None = None,
) -> dict:
    """Measure every requested experiment; return the benchmark document.

    With ``cache`` set the store is cleared first, so each experiment's
    cold pass is genuinely cold and its warm pass (see
    :func:`measure_experiment`) is served entirely from the entries the
    cold pass just wrote.
    """
    if experiment_ids is None:
        experiment_ids = list(EXPERIMENTS)
    for experiment_id in experiment_ids:
        if experiment_id not in EXPERIMENTS:
            raise ConfigurationError(
                f"unknown experiment {experiment_id!r}; "
                f"choose from {sorted(EXPERIMENTS)}"
            )
    if cache is not None:
        cache.clear()
    from repro.kernel.base import DEFAULT_BACKEND, requested_backend

    effective_backend = backend or requested_backend() or DEFAULT_BACKEND
    records: dict[str, dict] = {}
    for experiment_id in experiment_ids:
        record = measure_experiment(
            experiment_id,
            quick=quick,
            seed=seed,
            jobs=jobs,
            cache=cache,
            backend=backend,
        )
        records[experiment_id] = record
        if progress:
            line = (
                f"  {experiment_id:<16} {record['wall_s']:>8.2f}s  "
                f"{record['cycles_per_s']:>12,.0f} cycles/s"
            )
            if "warm_wall_s" in record:
                line += (
                    f"  warm {record['warm_wall_s']:>7.2f}s "
                    f"({record['warm_speedup']:.0f}x)"
                )
            print(line)
    document = {
        "schema": BENCH_SCHEMA,
        "mode": "quick" if quick else "full",
        "jobs": records[next(iter(records))]["jobs"] if records else 1,
        "backend": effective_backend,
        "experiments": records,
    }
    if cache is not None:
        document["cached"] = True
    return document


def write_bench(document: dict, path: str | Path) -> Path:
    """Write a benchmark document as pretty-printed JSON."""
    path = Path(path)
    path.write_text(json.dumps(document, indent=2) + "\n")
    return path


def load_bench(path: str | Path) -> dict:
    """Read a benchmark document, validating the schema version.

    Accepts any of :data:`_READABLE_SCHEMAS`; version-1 documents carry
    no ``backend`` field and are interpreted as reference-backend runs.
    """
    try:
        document = json.loads(Path(path).read_text())
    except json.JSONDecodeError as error:
        raise ConfigurationError(
            f"benchmark file {path} is not a JSON document: {error}"
        ) from error
    if not isinstance(document, dict):
        raise ConfigurationError(f"benchmark file {path} is not a JSON object")
    if document.get("schema") not in _READABLE_SCHEMAS:
        raise ConfigurationError(
            f"benchmark file {path} has schema "
            f"{document.get('schema')!r}, expected one of "
            f"{_READABLE_SCHEMAS}"
        )
    return document


def compare_to_baseline(
    current: dict, baseline: dict, max_regression: float = 3.0
) -> list[str]:
    """Return a list of regression messages (empty = within budget).

    An experiment regresses when its wall time exceeds ``max_regression``
    times the baseline's.  Experiments present in only one document are
    skipped — the trajectory only compares like with like.  The generous
    default factor absorbs shared-machine noise; it exists to catch
    order-of-magnitude accidents, not 10% drifts.
    """
    if max_regression <= 0:
        raise ConfigurationError(
            f"max_regression must be positive, got {max_regression}"
        )
    if current.get("mode") != baseline.get("mode"):
        return [
            f"mode mismatch: current={current.get('mode')!r} "
            f"baseline={baseline.get('mode')!r}; not comparable"
        ]
    current_backend = current.get("backend", "reference")
    baseline_backend = baseline.get("backend", "reference")
    if current_backend != baseline_backend:
        return [
            f"backend mismatch: current={current_backend!r} "
            f"baseline={baseline_backend!r}; cross-backend wall times "
            "measure different kernels and are not comparable"
        ]
    failures = []
    for experiment_id, record in current.get("experiments", {}).items():
        base = baseline.get("experiments", {}).get(experiment_id)
        if base is None or base.get("wall_s", 0) <= 0:
            continue
        ratio = record["wall_s"] / base["wall_s"]
        if ratio > max_regression:
            failures.append(
                f"{experiment_id}: {record['wall_s']:.2f}s is "
                f"{ratio:.1f}x the baseline {base['wall_s']:.2f}s "
                f"(budget {max_regression:.1f}x)"
            )
    return failures
