"""The two simulation workloads: the paper's blocking and discarding grids.

``paper-blocking`` is the figure 3 grid and ``paper-discarding`` the
table 3 grid, both as :func:`repro.kernel.bench.bench_grids` builds them
from the seed.  One *pass* runs every grid point on the reference kernel
(one kernel per configuration, driven through the ``SimKernel``
interface) and then on the numpy kernel (configurations fused by
``batch_group_key``), and checks every result digest.  A run repeats
passes until its time is up.  Each timed pass gives one sample of every
end-to-end metric, normalized to the nominal host speed by the
calibration slices interleaved with its steps (:mod:`hostspeed`); a
metric's value is the median over the run's passes.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterator
from contextlib import contextmanager
from time import perf_counter
from statistics import median
from typing import Any

from common import Outcome, percentile
from hostspeed import HostClock
from tracing import Root, Tracer, check_trace, layer_totals

from repro.errors import BufferFullError
from repro.kernel.base import make_kernel
from repro.kernel.bench import bench_grids
from repro.kernel.numpy_kernel import NumpyKernel, batch_group_key
from repro.network.simulator import NetworkConfig
from repro.utils.digest import digest_json

#: Simulated window of every grid point: warm-up and measured network
#: cycles.  Shorter than ``--quick`` (200 + 900) so that several whole
#: grid passes fit into one run; the seed-1988 pins are taken at it.
WARMUP = 100
MEASURE = 300

#: Window of the untimed first pass, which only lets imports, numpy's
#: lazy initialisation and the allocator settle.
WARM_PASS = (10, 20)

#: Numpy runs of the grid per timed pass.  One numpy run is under a
#: second, a seventh of the reference kernel's share of a pass, and its
#: speed varies more from run to run; its per-pass figure is the median
#: of these runs.
NUMPY_RUNS = 3

WORKLOADS = {"paper-blocking": "figure3", "paper-discarding": "table3"}


def grid(workload: str, seed: int) -> list[NetworkConfig]:
    """The workload's grid points, generated from ``seed``."""
    return bench_grids(quick=True, seed=seed)[WORKLOADS[workload]]


def label(config: NetworkConfig) -> str:
    return (
        f"{config.buffer_kind}/{config.protocol}/{config.arbiter_kind}"
        f"@{config.offered_load:g}"
    )


def result_digest(result: Any) -> str:
    return digest_json(result.to_state())


# ----------------------------------------------------------------------
# Instrumentation of one live reference simulator (traced passes only)
# ----------------------------------------------------------------------


def _grants(root: Root, args: tuple, result: Any, error: Any) -> None:
    if result is not None:
        root.count("switch.grants", len(result))
        if not result:
            root.count("switch.idle_arbitrations")


def _refusals(root: Root, args: tuple, result: Any, error: Any) -> None:
    if isinstance(error, BufferFullError):
        root.count("switch.refused")


def _blocks(root: Root, args: tuple, result: Any, error: Any) -> None:
    if result is False:
        root.count("core.blocked")


def instrument_reference(tracer: Tracer, simulator: Any) -> None:
    """Wrap the public layer methods of one ``OmegaNetworkSimulator``.

    Only the buffers of stages after the first are downstream of another
    switch, so wrapping their ``can_accept`` records exactly the calls
    the blocking predicate makes (stage-0 buffers are asked by
    injection through ``Switch.can_accept``, which is not wrapped).
    """
    tracer.wrap(simulator, "step", "network.step")
    for stage, row in enumerate(simulator.switches):
        for switch in row:
            tracer.wrap(
                switch, "plan_transmissions", "switch.arbitrate", _grants
            )
            tracer.wrap(switch, "execute", "switch.execute")
            tracer.wrap(switch, "receive", "switch.receive", _refusals)
            if stage == 0:
                continue
            for buffer in switch.buffers:
                tracer.wrap(buffer, "can_accept", "core.can_accept", _blocks)
                tracer.wrap(
                    buffer,
                    "can_accept_without_prerouting",
                    "core.can_accept",
                    _blocks,
                )
    for source in simulator.sources:
        tracer.wrap(source, "maybe_generate", "network.generate")
    for sink in simulator.sinks:
        tracer.wrap(sink, "deliver", "network.deliver")


# ----------------------------------------------------------------------
# One pass over the grid
# ----------------------------------------------------------------------


@contextmanager
def _timed_steps(
    kernel: Any, steps: list[float] | None, clock: HostClock, name: str
) -> Iterator[None]:
    """Time every ``step`` the kernel's own run loop makes.

    Each step's time goes into ``steps`` (if given) and is booked on
    ``clock`` under ``name``; the clock takes its calibration slices
    between steps, outside the timed span, so that they see the host
    speed the steps saw.  The wrapper is removed on exit: it refers to
    the kernel, and the reference cycle would keep every finished kernel
    alive until a full collection, inflating the peak RSS the benchmark
    reports.
    """
    step = kernel.step
    book = clock.add

    def timed() -> None:
        start = perf_counter()
        step()
        elapsed = perf_counter() - start
        if steps is not None:
            steps.append(elapsed)
        book(name, elapsed)

    kernel.step = timed
    try:
        yield
    finally:
        del kernel.step


class PassResult:
    """Timings of one grid pass."""

    def __init__(self) -> None:
        #: Set-up and step times, booked as ``setup``, ``reference`` and
        #: ``numpy<run>``, raw and normalized.
        self.clock = HostClock()
        self.numpy_batch_s = 0.0
        self.numpy_prepare_s = 0.0
        self.batches = 0
        self.wall_s = 0.0
        #: Host time of every reference network cycle.
        self.reference_steps: list[float] = []
        #: Independently timed walls of the traced roots.
        self.root_walls: list[float] = []


def run_pass(
    configs: list[NetworkConfig],
    outcome: Outcome,
    expected: dict[str, str] | None,
    window: tuple[int, int] = (WARMUP, MEASURE),
    tracer: Tracer | None = None,
    numpy_runs: int = 1,
) -> PassResult:
    """Run the grid once on both backends and gate every result.

    Each simulation counts as one attempted operation per backend run.
    It fails when it raises, when the two backends' digests differ, or
    when ``expected`` (the committed pins) names another digest for it.
    Untraced, every network cycle is timed and calibration slices are
    interleaved with them; traced, the wrapped layers are timed instead.
    The numpy grid runs ``numpy_runs`` times, the later runs after the
    pass's wall time is taken; the wall excludes calibration slices.
    """
    warmup, measure = window
    timing = PassResult()
    clock = timing.clock
    pass_start = perf_counter()
    reference: dict[str, str] = {}
    for config in configs:
        name = label(config)
        outcome.attempted += 1
        try:
            start = perf_counter()
            kernel = make_kernel(config, "reference")
            clock.add("setup", perf_counter() - start)
            if tracer is not None:
                instrument_reference(tracer, kernel.simulator)
                span = tracer.root("reference.run", f"reference:{name}")
            else:
                span = _timed_steps(
                    kernel, timing.reference_steps, clock, "reference"
                )
            start = perf_counter()
            with span:
                result = kernel.run(warmup, measure)
            elapsed = perf_counter() - start
        except Exception as exc:  # a failed simulation is counted, not fatal
            outcome.fail(f"reference {name}: {type(exc).__name__}: {exc}")
            continue
        timing.root_walls.append(elapsed)
        reference[name] = result_digest(result)
        if expected is not None and expected.get(name) != reference[name]:
            outcome.fail(f"reference {name}: digest differs from the pin")

    groups: dict[tuple[Any, ...], list[NetworkConfig]] = defaultdict(list)
    for config in configs:
        groups[batch_group_key(config)].append(config)
    for run in range(numpy_runs):
        if run == 1:
            timing.wall_s = perf_counter() - pass_start - clock.spent
        _run_numpy(groups, outcome, reference, window, tracer, timing, run)
    if numpy_runs == 1:
        timing.wall_s = perf_counter() - pass_start - clock.spent
    clock.close()
    return timing


def _run_numpy(
    groups: dict[tuple[Any, ...], list[NetworkConfig]],
    outcome: Outcome,
    reference: dict[str, str],
    window: tuple[int, int],
    tracer: Tracer | None,
    timing: PassResult,
    run: int,
) -> None:
    """Run the grid's numpy batches once and check them against
    ``reference``.  Steps are booked as ``numpy<run>``; set-up only for
    the first run, so that ``setup`` stays one pass's set-up."""
    warmup, measure = window
    clock = timing.clock
    for group, members in enumerate(groups.values()):
        outcome.attempted += len(members)
        try:
            start = perf_counter()
            kernel = NumpyKernel.batch(members)
            built = perf_counter()
            kernel.prepare(warmup + measure)
            prepared = perf_counter()
            if tracer is not None:
                tracer.wrap(kernel, "step", "kernel.numpy.step")
                span = tracer.root("numpy.run_batch", f"numpy:batch{group}")
            else:
                span = _timed_steps(kernel, None, clock, f"numpy{run}")
            with span:
                results = kernel.run_batch(warmup, measure)
            done = perf_counter()
        except Exception as exc:  # every member of a failed batch fails
            for config in members:
                outcome.fail(f"numpy {label(config)}: {type(exc).__name__}: {exc}")
            continue
        if run == 0:
            timing.numpy_batch_s += built - start
            timing.numpy_prepare_s += prepared - built
            timing.batches += 1
            timing.root_walls.append(done - prepared)
            clock.add("setup", prepared - start)
        for config, result in zip(members, results):
            name = label(config)
            if reference.get(name) != result_digest(result):
                outcome.fail(f"numpy {name}: digest differs from reference")


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------


def _layer_metrics(
    roots: list[Root], timing: PassResult, sim_cycles: int
) -> dict[str, tuple[str, float]]:
    """Per-layer metrics of one traced pass."""
    layers, counts = layer_totals(roots)

    def calls(name: str) -> int:
        return int(layers.get(name, [0, 0.0, 0.0])[0])

    def total(name: str) -> float:
        return float(layers.get(name, [0, 0.0, 0.0])[1])

    def frac(part: int, whole: int) -> float:
        return part / whole if whole else 0.0

    arbitrations = calls("switch.arbitrate")
    receives = calls("switch.receive")
    accepts = calls("core.can_accept")
    numpy_roots = [root for root in roots if root.name == "numpy.run_batch"]
    step_s = total("kernel.numpy.step")
    return {
        "switch.arbitrate_s": ("s", total("switch.arbitrate")),
        "switch.arbitrate_calls": ("count", arbitrations),
        "switch.grants": ("count", counts.get("switch.grants", 0)),
        "switch.idle_arbitrate_frac": (
            "frac",
            frac(counts.get("switch.idle_arbitrations", 0), arbitrations),
        ),
        "switch.execute_s": ("s", total("switch.execute")),
        "switch.execute_calls": ("count", calls("switch.execute")),
        "switch.receive_s": ("s", total("switch.receive")),
        "switch.receive_calls": ("count", receives),
        "switch.refused_frac": (
            "frac",
            frac(counts.get("switch.refused", 0), receives),
        ),
        "core.can_accept_s": ("s", total("core.can_accept")),
        "core.can_accept_calls": ("count", accepts),
        "core.blocked_frac": (
            "frac",
            frac(counts.get("core.blocked", 0), accepts),
        ),
        "network.generate_s": ("s", total("network.generate")),
        "network.generate_calls": ("count", calls("network.generate")),
        "network.deliver_s": ("s", total("network.deliver")),
        "network.deliver_calls": ("count", calls("network.deliver")),
        "network.step_self_s": (
            "s",
            float(layers.get("network.step", [0, 0.0, 0.0])[2]),
        ),
        "kernel.numpy.batch_s": ("s", timing.numpy_batch_s),
        "kernel.numpy.prepare_s": ("s", timing.numpy_prepare_s),
        "kernel.numpy.step_s": ("s", step_s),
        "kernel.numpy.step_us_per_sim_cycle": (
            "us",
            step_s / sim_cycles * 1e6 if sim_cycles else 0.0,
        ),
        "kernel.numpy.finish_s": (
            "s",
            sum(root.self_s for root in numpy_roots),
        ),
        "kernel.numpy.batches": ("count", timing.batches),
    }


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    pins: dict[str, str] | None,
) -> tuple[Outcome, Tracer | None]:
    """Measure one simulation workload for about ``seconds`` seconds.

    Untraced, every pass is timed.  Traced, passes alternate between
    untraced and traced, so that the overhead of tracing is the ratio of
    their median walls.
    """
    configs = grid(workload, seed)
    outcome = Outcome()
    warm = Outcome()
    run_pass(configs, warm, None, WARM_PASS)
    tracer = Tracer() if trace else None
    window = (WARMUP, MEASURE)
    sim_cycles = len(configs) * sum(window)
    # Every grid point is simulated once per backend.
    simulations = 2 * len(configs)
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    root_walls: list[float] = []
    traced_roots: list[Root] = []
    cycle_times: list[float] = []
    started = perf_counter()
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.tag = index
        timing = run_pass(
            configs,
            outcome,
            pins,
            window,
            tracer if traced else None,
            1 if traced else NUMPY_RUNS,
        )
        if traced:
            traced_walls.append(timing.wall_s)
            roots = tracer.tagged(index)
            traced_roots.extend(roots)
            root_walls.extend(timing.root_walls)
            for name, (unit, value) in _layer_metrics(
                roots, timing, sim_cycles
            ).items():
                outcome.add(name, unit, value)
        elif all(timing.clock.raw.get(name) for name in _TIMED):
            plain_walls.append(timing.wall_s)
            _add_pass(outcome, timing.clock, sim_cycles, simulations)
            slow = timing.clock.slowness("reference")
            cycle_times.extend(t / slow for t in timing.reference_steps)
        index += 1
        if perf_counter() - started >= seconds and (
            tracer is None or traced_walls
        ):
            break
    outcome.passes = index
    if cycle_times:
        p90 = percentile(cycle_times, 0.9)
        outcome.set("latency_p50_s", "s", percentile(cycle_times, 0.5))
        outcome.set("latency_p90_s", "s", p90)
        outcome.notes["latency_samples_beyond_p90"] = sum(
            1 for t in cycle_times if t > p90
        )
    outcome.notes["latency_samples"] = len(cycle_times)
    outcome.notes["timed_passes"] = len(plain_walls)
    outcome.notes["grid_points"] = len(configs)
    outcome.notes["window_cycles"] = list(window)
    if tracer is not None:
        check_trace(outcome, traced_walls, plain_walls, traced_roots, root_walls)
    return outcome, tracer


#: What a timed pass must have booked to give a sample: a pass with a
#: failed simulation or batch lacks some of it.
_TIMED = ("setup", "reference", *(f"numpy{run}" for run in range(NUMPY_RUNS)))


def _add_pass(
    outcome: Outcome, clock: HostClock, sim_cycles: int, simulations: int
) -> None:
    """One timed pass's sample of every end-to-end metric.

    The bounded metrics are normalized to the nominal host speed; the
    ``raw.`` ones are the same figures as the host delivered them.
    """
    for prefix, times in (("", clock.normalized), ("raw.", clock.raw)):
        setup_s = times["setup"]
        reference_s = times["reference"]
        numpy_s = median(times[f"numpy{run}"] for run in range(NUMPY_RUNS))
        outcome.add(f"{prefix}setup_s", "s", setup_s)
        outcome.add(
            f"{prefix}reference.cycles_per_s", "1/s", sim_cycles / reference_s
        )
        outcome.add(f"{prefix}numpy.cycles_per_s", "1/s", sim_cycles / numpy_s)
        outcome.add(
            f"{prefix}requests_per_s",
            "1/s",
            simulations / (reference_s + numpy_s + setup_s),
        )
    outcome.add("host.slowness", "ratio", clock.slowness("reference"))
