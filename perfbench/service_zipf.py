"""The service workload: a seeded Zipf request mix against ``repro.service``.

Each *epoch* starts a fresh in-process service (``serve_in_thread``, two
supervised workers, an empty data directory under ``perfbench/out``),
replays the next :data:`REQUESTS_PER_EPOCH` draws of the seeded Zipf
sequence from a closed loop of :data:`CLIENTS` clients, and stops the
service.  Because the caches start empty every epoch, each epoch pays
the fresh tail once (the Omega-network ``figure3`` job and the small
Markov/chip jobs) and answers everything after it from the service's
memory.  After each epoch the benchmark re-derives the ``figure3``
report in-process on the numpy kernel and checks it against the pin:
the service itself always simulates on the reference kernel, because
its checkpointing is implemented only there.

Every time is normalized to the nominal host speed by calibration
slices (:mod:`hostspeed`): service starts by slices taken right after
each, the numpy re-derivation by slices between its steps, and the
epoch's requests by slices that a sampler process takes while they run.
"""

from __future__ import annotations

import random
import shutil
import sys
import threading
from itertools import accumulate
from statistics import mean
from time import perf_counter
from typing import Any

from common import (
    OUT_DIR,
    HelperProcess,
    LineReader,
    Outcome,
    percentile,
    serve_lines,
)
from hostspeed import Calibrator, HostClock, SliceSampler, slowness
from tracing import Root, Tracer, check_trace, layer_totals

from repro.experiments.report import sim_cycles
from repro.experiments.runner import run_experiment
from repro.kernel.bench import bench_grids
from repro.kernel.numpy_kernel import NumpyKernel
from repro.network.simulator import NetworkConfig
from repro.service import ServiceClient, ServiceConfig, serve_in_thread
from repro.utils.digest import digest_text

#: The request catalog, most popular first.  ``figure3`` simulates the
#: 64x64 Omega network; ``table2`` is answered by ``repro.markov`` and
#: ``table1`` by ``repro.chip`` alone; ``ext-slotsize`` runs chip
#: simulations on the worker pool; ``figure1`` only drives ``repro.core``
#: buffers.  Every spec is quick, at seed 1988, so each report has a pin.
CATALOG = ("table2", "figure3", "ext-slotsize", "table1", "figure1")
SPEC_SEED = 1988

#: The experiment whose fresh answer is simulated on the Omega network.
OMEGA_EXPERIMENT = "figure3"

#: Zipf exponent of the popularity of the catalog's ranks.
ZIPF_EXPONENT = 1.0

#: Closed loop: each client sends its next request only after the last
#: one was answered.  Two clients keep the load within a 2-CPU host.
CLIENTS = 2
WORKERS = 2

#: Requests per epoch.  Only the first requests for each spec wait for a
#: fresh job (plus the few answered while it computes), under 1% of
#: 1000; that keeps p90 inside the answered-from-memory mode instead of
#: on the edge between it and the fresh tail, where it would jump run to
#: run.
REQUESTS_PER_EPOCH = 1000

#: Latency percentiles are taken per window of this many consecutive
#: answers (10 lie beyond each window's p90), and reported as the median
#: over the run's windows: host noise arrives in bursts that would
#: otherwise decide the percentiles of a whole epoch.
LATENCY_WINDOW = 100

#: Service starts (and stops) timed before each untraced epoch: one
#: start is about 15 ms of thread, process and socket set-up, too short
#: for a single reading per epoch to be steady.
SETUP_REPEATS = 8

#: Calibration slices taken right after each timed service start.
SETUP_SLICES = 2


class ZipfRequests:
    """Catalog draws, Zipf-distributed over popularity rank, from a seed."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        weights = [
            1.0 / rank**ZIPF_EXPONENT for rank in range(1, len(CATALOG) + 1)
        ]
        self._cumulative = list(accumulate(weights))

    def draw(self, count: int) -> list[str]:
        return self._rng.choices(CATALOG, cum_weights=self._cumulative, k=count)


def report_digest(document: dict[str, Any]) -> str | None:
    result = document.get("result")
    if not isinstance(result, dict) or not isinstance(result.get("report"), str):
        return None
    return digest_text(result["report"])


class _Epoch:
    """What one epoch measured."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.hits = 0
        #: job id -> (tasks executed, job seconds) of fresh Omega jobs.
        self.omega_jobs: dict[str, tuple[int, float]] = {}
        #: job id -> job seconds of every fresh job.
        self.fresh_jobs: dict[str, float] = {}
        #: (raw, normalized) times of the service starts timed before it.
        self.setups: list[tuple[float, float]] = []
        #: Step times of the numpy re-derivation after it, if it ran.
        self.numpy_clock: HostClock | None = None
        #: Calibration slices the sampler process took during the epoch.
        self.slices: list[float] = []
        self.wall_s = 0.0
        self.stats: dict[str, Any] = {}


#: One answered request: (experiment, HTTP status or ``None`` when the
#: request raised, submit-to-answer seconds, response document or error).
Answer = tuple[str, "int | None", float, Any]


def _replay(url: str, sequence: list[str]) -> tuple[list[Answer], float]:
    """The closed loop: :data:`CLIENTS` threads share ``sequence``."""
    client = ServiceClient(url)
    queue = list(reversed(sequence))
    lock = threading.Lock()
    answers: list[Answer] = []

    def loop() -> None:
        while True:
            with lock:
                if not queue:
                    return
                experiment = queue.pop()
            start = perf_counter()
            try:
                status, document = client.submit(
                    experiment, quick=True, seed=SPEC_SEED, wait=True
                )
            except Exception as exc:  # a failed request is counted, not fatal
                with lock:
                    answers.append(
                        (experiment, None, 0.0, f"{type(exc).__name__}: {exc}")
                    )
                continue
            elapsed = perf_counter() - start
            with lock:
                answers.append((experiment, status, elapsed, document))

    threads = [
        threading.Thread(target=loop, name=f"perfbench-client-{slot}")
        for slot in range(CLIENTS)
    ]
    start = perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return answers, perf_counter() - start


def _serve_replay(reader: LineReader, request: Any) -> tuple[list[Answer], float]:
    """Client process: replay each ``[url, sequence]`` it is sent."""
    return _replay(*request)


class ClientProcess:
    """The load generator, in a process of its own.

    Real clients do not share the server's interpreter; client threads in
    the benchmark process would contend with the service's threads for
    its interpreter lock and add waits no deployment has.
    """

    def __init__(self) -> None:
        self._helper = HelperProcess("service_zipf")

    def replay(self, url: str, sequence: list[str]) -> tuple[list[Answer], float]:
        self._helper.send([url, sequence])
        answers, wall_s = self._helper.receive()
        return [tuple(answer) for answer in answers], wall_s

    def close(self) -> None:
        self._helper.close()


def _record(
    answers: list[Answer],
    epoch: _Epoch,
    outcome: Outcome,
    pins: dict[str, str],
) -> None:
    """Gate every answer and keep what the metrics need."""
    for experiment, status, elapsed, document in answers:
        outcome.attempted += 1
        if status is None:
            outcome.fail(f"{experiment}: {document}")
            continue
        result = document.get("result") or {}
        if status != 200 or document.get("status") != "done":
            outcome.fail(f"{experiment}: answered {status} / {document.get('status')}")
            continue
        if result.get("degraded"):
            outcome.fail(f"{experiment}: degraded answer ({result.get('mode')})")
            continue
        if report_digest(document) != pins.get(experiment):
            outcome.fail(f"{experiment}: report differs from the pin")
            continue
        epoch.latencies.append(elapsed)
        if document.get("cache_hit"):
            epoch.hits += 1
        if document.get("source") == "fresh":
            job = document["id"]
            epoch.fresh_jobs[job] = float(document["job_seconds"])
            if experiment == OMEGA_EXPERIMENT:
                epoch.omega_jobs[job] = (
                    int(document["tasks_executed"]),
                    float(document["job_seconds"]),
                )


class _ServiceProbe:
    """Wrappers on one live service for a traced epoch."""

    def __init__(self, tracer: Tracer, service: Any) -> None:
        self.lock = threading.Lock()
        #: job id -> perf_counter as its admission began / at its first
        #: pool map.
        self.admitted: dict[str, float] = {}
        self.first_map: dict[str, float] = {}
        tracer.wrap(
            service,
            "submit",
            "service.admit",
            self._admitted,
            span_id=lambda args, response: (
                response.record.id
                if response is not None and response.record is not None
                else "unadmitted"
            ),
        )
        tracer.wrap(
            service,
            "_execute",
            "service.execute",
            span_id=lambda args, result: args[0].id,
        )
        pool = service.pool
        dispatch = pool.map

        def marked_map(fn: Any, items: list[Any]) -> list[Any]:
            root = tracer.current()
            if root is not None:
                with self.lock:
                    self.first_map.setdefault(root.span_id, perf_counter())
            return dispatch(fn, items)

        pool.map = marked_map
        tracer.wrap(pool, "map", "supervisor.map")
        for cache in (service._job_cache, service._sim_cache):  # noqa: SLF001
            tracer.wrap(cache, "get", "cache.get", _cache_hits)
            tracer.wrap(cache, "put", "cache.put")
            tracer.wrap(cache, "flush", "cache.flush")

    def _admitted(self, root: Root, args: tuple, response: Any, error: Any) -> None:
        if response is not None and response.status == 202:
            with self.lock:
                self.admitted[response.record.id] = root.start

    def queue_waits(self) -> list[float]:
        with self.lock:
            return [
                self.first_map[job] - admitted
                for job, admitted in self.admitted.items()
                if job in self.first_map
            ]


def _cache_hits(root: Root, args: tuple, result: Any, error: Any) -> None:
    if error is None:
        root.count("cache.lookups")
        if result is not None:
            root.count("cache.hits")


def run_epoch(
    index: int,
    sequence: list[str],
    clients: ClientProcess,
    outcome: Outcome,
    pins: dict[str, str],
    tracer: Tracer | None,
) -> tuple[_Epoch, _ServiceProbe | None]:
    """One fresh service, one slice of the request sequence."""
    epoch = _Epoch()
    data_dir = OUT_DIR / "work" / f"service-epoch-{index}"
    shutil.rmtree(data_dir, ignore_errors=True)
    handle = serve_in_thread(
        ServiceConfig(workers=WORKERS, data_dir=data_dir)
    )
    probe = None
    try:
        if tracer is not None:
            tracer.tag = index
            probe = _ServiceProbe(tracer, handle.service)
        answers, epoch.wall_s = clients.replay(handle.url, sequence)
        _record(answers, epoch, outcome, pins)
        epoch.stats = ServiceClient(handle.url).stats()
    finally:
        handle.close()
        shutil.rmtree(data_dir, ignore_errors=True)
    return epoch, probe


def time_setups(index: int, count: int) -> list[tuple[float, float]]:
    """Start and stop ``count`` fresh services.

    Returns each start's (raw, normalized) time.  The calibration slices
    run right after the start, while the new service idles.
    """
    calibrator = Calibrator()
    times = []
    for repeat in range(count):
        data_dir = OUT_DIR / "work" / f"service-setup-{index}-{repeat}"
        shutil.rmtree(data_dir, ignore_errors=True)
        start = perf_counter()
        handle = serve_in_thread(
            ServiceConfig(workers=WORKERS, data_dir=data_dir)
        )
        elapsed = perf_counter() - start
        calibrator.block(SETUP_SLICES)
        handle.close()
        shutil.rmtree(data_dir, ignore_errors=True)
        times.append((elapsed, elapsed / slowness(calibrator.take())))
    return times


def numpy_cross_check(
    outcome: Outcome, pins: dict[str, str]
) -> HostClock | None:
    """Re-derive the Omega report on the numpy kernel.

    Every ``NumpyKernel.step`` of the re-derivation is timed and booked
    on the returned clock, which takes its calibration slices between
    steps.  The class method is patched for the duration of the call
    only, because ``run_experiment`` builds its kernels itself.
    """
    outcome.attempted += 1
    clock = HostClock()
    step = NumpyKernel.step

    def timed(kernel: NumpyKernel) -> None:
        start = perf_counter()
        step(kernel)
        clock.add("numpy", perf_counter() - start)

    NumpyKernel.step = timed
    try:
        result = run_experiment(
            OMEGA_EXPERIMENT, quick=True, seed=SPEC_SEED, jobs=1, backend="numpy"
        )
    except Exception as exc:  # a failed re-derivation is counted, not fatal
        outcome.fail(f"{OMEGA_EXPERIMENT} on numpy: {type(exc).__name__}: {exc}")
        return None
    finally:
        NumpyKernel.step = step
    clock.close()
    if digest_text(result.render()) != pins.get(OMEGA_EXPERIMENT):
        outcome.fail(f"{OMEGA_EXPERIMENT} on numpy: report differs from the pin")
    return clock


def _task_cycles() -> int:
    """Network cycles one quick Omega simulation task runs."""
    warmup, measure = sim_cycles(True)
    return warmup + measure


def _layer_metrics(
    roots: list[Root], epoch: _Epoch, probe: _ServiceProbe, requests: int
) -> dict[str, tuple[str, float]]:
    layers, counts = layer_totals(roots)

    def per_call(name: str) -> float:
        calls, total, _own = layers.get(name, [0, 0.0, 0.0])
        return total / calls if calls else 0.0

    # Admission runs on the server's executor threads with no span open
    # above it, so each call is a root of its own.
    admissions = [root.wall_s for root in roots if root.name == "service.admit"]
    jobs = epoch.stats.get("jobs", {})
    pool = epoch.stats.get("pool", {})
    waits = probe.queue_waits()
    lookups = counts.get("cache.lookups", 0)
    return {
        "service.admit_s": ("s", mean(admissions) if admissions else 0.0),
        "service.queue_wait_s": ("s", mean(waits) if waits else 0.0),
        "service.hit_ratio": ("frac", epoch.hits / requests if requests else 0.0),
        "service.admitted": ("count", jobs.get("admitted", 0)),
        "service.coalesced": ("count", jobs.get("coalesced", 0)),
        "service.memory_hits": ("count", jobs.get("memory", 0)),
        "service.rejected": ("count", jobs.get("rejected", 0)),
        "supervisor.map_s": ("s", per_call("supervisor.map")),
        "supervisor.tasks": ("count", pool.get("tasks_completed", 0)),
        "supervisor.retries": ("count", pool.get("tasks_retried", 0)),
        "supervisor.restarts": ("count", pool.get("worker_restarts", 0)),
        "cache.get_s": ("s", per_call("cache.get")),
        "cache.put_s": ("s", per_call("cache.put")),
        "cache.flush_s": ("s", per_call("cache.flush")),
        "cache.hit_ratio": (
            "frac",
            counts.get("cache.hits", 0) / lookups if lookups else 0.0,
        ),
    }


def _add_epoch(outcome: Outcome, epoch: _Epoch) -> None:
    """One untraced epoch's samples of the end-to-end metrics.

    Every time is normalized to the nominal host speed; the throughputs
    and ``setup_s`` also keep their raw figures under ``raw.``.
    """
    slow = slowness(epoch.slices)
    for first in range(
        0, len(epoch.latencies) - LATENCY_WINDOW + 1, LATENCY_WINDOW
    ):
        window = epoch.latencies[first : first + LATENCY_WINDOW]
        outcome.add("latency_p50_s", "s", percentile(window, 0.5) / slow)
        outcome.add("latency_p90_s", "s", percentile(window, 0.9) / slow)
    omega_tasks = sum(tasks for tasks, _ in epoch.omega_jobs.values())
    omega_seconds = sum(s for _, s in epoch.omega_jobs.values())
    for prefix, scale in (("", slow), ("raw.", 1.0)):
        outcome.add(
            f"{prefix}requests_per_s",
            "1/s",
            len(epoch.latencies) * scale / epoch.wall_s,
        )
        if omega_seconds > 0:
            outcome.add(
                f"{prefix}reference.cycles_per_s",
                "1/s",
                omega_tasks * _task_cycles() * scale / omega_seconds,
            )
    outcome.add("host.slowness", "ratio", slow)
    for raw, normalized in epoch.setups:
        outcome.add("setup_s", "s", normalized)
        outcome.add("raw.setup_s", "s", raw)
    clock = epoch.numpy_clock
    if clock is not None:
        cycles = len(bench_grids(quick=True)[OMEGA_EXPERIMENT]) * _task_cycles()
        outcome.add(
            "numpy.cycles_per_s", "1/s", cycles / clock.normalized["numpy"]
        )
        outcome.add("raw.numpy.cycles_per_s", "1/s", cycles / clock.raw["numpy"])


def _warm_up() -> None:
    """Untimed: import the experiment suite and touch the numpy kernel."""
    kernel = NumpyKernel.batch([NetworkConfig(seed=SPEC_SEED)])
    kernel.run_batch(5, 5)


def run(
    seed: int,
    seconds: float,
    trace: bool,
    pins: dict[str, str],
) -> tuple[Outcome, Tracer | None]:
    """Run epochs for about ``seconds`` seconds; traced runs alternate."""
    _warm_up()
    outcome = Outcome()
    tracer = Tracer() if trace else None
    latency_samples = 0
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    execute_roots: list[Root] = []
    job_seconds: list[float] = []
    requests_source = ZipfRequests(seed)
    clients = ClientProcess()
    sampler = None
    started = perf_counter()
    index = 0
    try:
        sampler = SliceSampler()
        while True:
            traced = tracer is not None and index % 2 == 1
            setups = [] if traced else time_setups(index, SETUP_REPEATS)
            sequence = requests_source.draw(REQUESTS_PER_EPOCH)
            sampler.start()
            epoch, probe = run_epoch(
                index, sequence, clients, outcome, pins, tracer if traced else None
            )
            epoch.slices = sampler.stop()
            epoch.setups = setups
            epoch.numpy_clock = numpy_cross_check(outcome, pins)
            requests = len(sequence)
            if traced:
                traced_walls.append(epoch.wall_s)
                roots = tracer.tagged(index)
                for name, (unit, value) in _layer_metrics(
                    roots, epoch, probe, requests
                ).items():
                    outcome.add(name, unit, value)
                executed = [
                    root
                    for root in roots
                    if root.name == "service.execute"
                    and root.span_id in epoch.fresh_jobs
                ]
                execute_roots.extend(executed)
                job_seconds.extend(epoch.fresh_jobs[root.span_id] for root in executed)
            else:
                plain_walls.append(epoch.wall_s)
                _add_epoch(outcome, epoch)
                latency_samples += len(epoch.latencies)
            index += 1
            if perf_counter() - started >= seconds and (
                tracer is None or traced_walls
            ):
                break
    finally:
        if sampler is not None:
            sampler.close()
        clients.close()
    outcome.passes = index
    outcome.notes["latency_samples"] = latency_samples
    outcome.notes["latency_window"] = LATENCY_WINDOW
    outcome.notes["clients"] = CLIENTS
    outcome.notes["workers"] = WORKERS
    outcome.notes["requests_per_epoch"] = REQUESTS_PER_EPOCH
    if tracer is not None:
        check_trace(outcome, traced_walls, plain_walls, execute_roots, job_seconds)
    return outcome, tracer


if __name__ == "__main__" and sys.argv[1:] == ["--serve"]:
    serve_lines(_serve_replay)
