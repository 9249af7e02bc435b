"""Performance layer: parallel experiment engine and trajectory harness.

The paper pipeline is a large grid of *independent* simulation runs —
every table cell and curve point is one :class:`~repro.network.simulator.
NetworkConfig` with its own root seed, so the grid is embarrassingly
parallel and bit-reproducible in any execution order.  This subpackage
provides:

* :func:`parallel_simulate` / :func:`parallel_map` — a process-pool map
  over independent runs (``jobs=1`` degrades to the plain serial loop, so
  serial and parallel results are byte-identical);
* :mod:`repro.perf.supervisor` — the one process pool those maps and
  the simulation service run on: heartbeats, deadlines and a bounded
  per-task retry budget;
* :mod:`repro.perf.harness` — wall-time and simulated-cycles/sec
  measurement per experiment, written to ``BENCH_<pr>.json`` so every PR
  can be tracked against the committed baseline.
"""

from repro.perf.parallel import (
    parallel_map,
    parallel_simulate,
    resolve_jobs,
    reset_simulated_cycles,
    simulated_cycles,
)

__all__ = [
    "parallel_map",
    "parallel_simulate",
    "resolve_jobs",
    "reset_simulated_cycles",
    "simulated_cycles",
]
