"""Process-pool map over independent simulation runs, with memoization.

Every cell of the paper's tables is one :class:`NetworkConfig` simulated
in isolation; all randomness derives from ``config.seed`` through named
substreams, so a run's result does not depend on which process executes
it, in what order, or which other configs share its batch.
:func:`parallel_simulate` exploits that with one route for both
simulation backends:

1. each config is looked up in the result cache (when a
   :mod:`repro.cache` context is active) — a warm re-run of an
   unchanged suite performs zero simulations;
2. the misses become :class:`SimTask` batch tasks.  Configs that
   resolve to the numpy backend and share a
   :func:`~repro.kernel.numpy_kernel.batch_group_key` form one group,
   split into at most ``jobs`` interleaved tasks (member ``k`` goes to
   task ``k % n``, which balances loads sorted along a sweep); each task
   runs as one fused :class:`~repro.kernel.numpy_kernel.NumpyKernel`
   batch.  Every reference config is a task of its own — a batch of
   one;
3. all tasks run on one kind of pool, the
   :class:`~repro.perf.supervisor.SupervisedPool`: the active context's
   ``dispatcher`` when it carries one (:mod:`repro.service` installs
   its long-lived pool this way), else a pool of ``min(jobs, tasks)``
   workers opened for the call — or a plain in-process loop for
   ``jobs=1`` or a single task.

Results come back in input order, byte-identical for any ``jobs`` value
and either backend.

A worker that dies (segfault, OOM kill, ``os._exit``) is detected by
the pool and its task retried on a fresh worker under
:data:`~repro.perf.supervisor.TASK_RETRY` (deterministic-jitter
backoff, bounded attempt budget).  When the active context has
checkpointing configured, every task checkpoints into the context's
directory (a reference task as a JSON snapshot, a numpy task as one
``.npz`` archive of its whole batch) and the retry resumes from the dead
worker's last on-disk checkpoint; without one the retry starts over,
which gives the same result because every config is seeded on its own.
When the budget runs out the task fails with a
:class:`~repro.errors.WorkerFailedError` naming the task, its attempt
count and the checkpoint a manual retry could resume from.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.cache import runtime
from repro.cache.keys import cache_key
from repro.errors import ConfigurationError
from repro.perf.supervisor import SupervisedPool, SupervisorConfig
from repro.utils.digest import digest_json

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.network.metrics import SimulationResult
    from repro.network.simulator import NetworkConfig

__all__ = [
    "SimTask",
    "parallel_map",
    "parallel_simulate",
    "resolve_jobs",
    "reset_simulated_cycles",
    "simulated_cycles",
    "task_simulations",
]

#: Network cycles simulated through this module since the last reset
#: (parent-process view; the perf harness reads this to report
#: simulated-cycles-per-second).  Cache hits perform no simulation and
#: are not counted.
_cycles_simulated = 0


def simulated_cycles() -> int:
    """Network cycles routed through :func:`parallel_simulate` so far."""
    return _cycles_simulated


def reset_simulated_cycles() -> None:
    """Zero the cycle counter (the harness calls this per experiment)."""
    global _cycles_simulated
    _cycles_simulated = 0


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a jobs request: ``None``/``0`` means one per CPU."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ConfigurationError(f"jobs must be positive, got {jobs}")
    return jobs


@dataclass(frozen=True)
class SimTask:
    """One unit of pool work: a batch of simulations on one backend.

    A numpy task fuses its configs into one
    :class:`~repro.kernel.numpy_kernel.NumpyKernel` batch; a reference
    task holds exactly one config.  ``checkpoint`` names the task's
    checkpoint file when checkpointing is configured: a task whose file
    already exists belonged to a worker that died mid-run, and its
    replacement resumes from the file instead of starting over.
    """

    backend: str
    configs: tuple["NetworkConfig", ...]
    warmup_cycles: int
    measure_cycles: int
    checkpoint_every: int | None = None
    checkpoint: str | None = None


def task_simulations(item: Any) -> int:
    """Simulations one pool work item runs: a batch task counts each
    member, any other item counts one."""
    return len(item.configs) if isinstance(item, SimTask) else 1


def _execute(
    fn: Callable[[Any], Any], items: list[Any], jobs: int
) -> list[Any]:
    """Run every item on the context's dispatcher, in-process for one
    job or one item, else on a :class:`SupervisedPool` opened for the
    call."""
    context = runtime.active()
    if context is not None and context.dispatcher is not None:
        return context.dispatcher(fn, items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    config = SupervisorConfig(workers=min(jobs, len(items)), task_deadline=None)
    with SupervisedPool(config) as pool:
        return pool.map(fn, items)


def _memo(
    codec: str | None, payloads: Sequence[Any]
) -> tuple[list[Any], Callable[[int, Any], None]]:
    """Cached results for ``payloads`` (``None`` marks a miss) and a
    function that stores the fresh result of payload ``index``.

    Without a codec or an active cache every payload misses and storing
    is a no-op.
    """
    context = runtime.active()
    if codec is None or context is None or context.cache is None:
        return [None] * len(payloads), lambda index, result: None
    cache, experiment = context.cache, context.experiment
    keys = [cache_key(experiment, codec, payload) for payload in payloads]

    def store(index: int, result: Any) -> None:
        cache.put(keys[index], experiment, codec, result)

    return [cache.get(key) for key in keys], store


def parallel_map(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    jobs: int | None = 1,
    *,
    codec: str | None = None,
    payloads: Sequence[Any] | None = None,
    on_executed: Callable[[int], None] | None = None,
) -> list[Any]:
    """``[fn(item) for item in items]``, memoized and optionally pooled.

    ``fn`` and every item must be picklable (``fn`` defined at module top
    level).  Results come back in input order.  Exceptions raised *inside*
    a worker propagate unchanged; a worker process that dies outright has
    its item retried with backoff on a fresh worker, and only an item
    that exhausts :data:`~repro.perf.supervisor.TASK_RETRY` is reported
    as :class:`~repro.errors.WorkerFailedError`.  A context carrying a
    ``dispatcher`` delegates all execution — pooling, retries and
    supervision included — to it.

    ``codec`` opts the call into the result cache: when a
    :mod:`repro.cache` context is active, each unit of work is keyed by
    the matching entry of ``payloads`` (a JSON-able description;
    defaults to the items themselves) and hits skip execution entirely.
    Cached results must never be ``None`` — ``None`` is the miss
    sentinel.  ``on_executed`` receives the number of items actually
    executed.
    """
    items = list(items)
    jobs = resolve_jobs(jobs)
    described = list(payloads) if payloads is not None else items
    if len(described) != len(items):
        raise ConfigurationError(
            f"parallel_map got {len(items)} items but "
            f"{len(described)} payloads"
        )
    results, store = _memo(codec, described)
    missed = [index for index, hit in enumerate(results) if hit is None]
    if on_executed is not None:
        on_executed(len(missed))
    if missed:
        fresh = _execute(fn, [items[i] for i in missed], jobs)
        for index, result in zip(missed, fresh):
            store(index, result)
            results[index] = result
    return results


def _simulate_task(task: SimTask) -> list["SimulationResult"]:
    """Pool worker: run one batch task, resumable when checkpointed.

    A task whose checkpoint file already exists belonged to a worker
    that died mid-run: the replacement resumes from the checkpoint — a
    bit-identical continuation — instead of starting over.  The file is
    removed once the batch completes.
    """
    # Imported here (cached after the first call) so this module can be
    # imported by repro.network.saturation without a circular import.
    from repro.network.simulator import resume_batch, simulate

    checkpoint = Path(task.checkpoint) if task.checkpoint is not None else None
    window = (task.warmup_cycles, task.measure_cycles)
    if checkpoint is not None and checkpoint.exists():
        results = resume_batch(checkpoint)
    elif task.backend == "numpy":
        from repro.kernel.numpy_kernel import NumpyKernel

        results = NumpyKernel.batch(list(task.configs)).run_batch(
            *window,
            checkpoint_every=task.checkpoint_every,
            checkpoint_path=checkpoint,
        )
    else:
        (config,) = task.configs
        results = [
            simulate(
                config,
                *window,
                checkpoint_every=task.checkpoint_every,
                checkpoint_path=checkpoint,
                backend=task.backend,
            )
        ]
    if checkpoint is not None:
        checkpoint.unlink(missing_ok=True)
    return results


def _resolve_backends(
    configs: Sequence["NetworkConfig"], backend: str | None
) -> list[str]:
    """Per-config backend resolution under the ambient instrumentation.

    The sanitizer and telemetry are enabled through the environment —
    exactly the signals each worker's
    :func:`~repro.network.simulator.simulate` call would see — so
    resolving here keeps the dispatch decision and the worker behaviour
    consistent.
    """
    from repro.analysis.sanitizer import sanitize_enabled
    from repro.kernel.base import resolve_backend
    from repro.telemetry.session import telemetry_enabled

    sanitize = sanitize_enabled()
    tracing = telemetry_enabled()
    return [
        resolve_backend(config, backend, sanitize=sanitize, trace=tracing)
        for config in configs
    ]


def _plan_tasks(
    configs: Sequence["NetworkConfig"],
    payloads: Sequence[dict[str, Any]],
    backends: Sequence[str],
    jobs: int,
    warmup_cycles: int,
    measure_cycles: int,
) -> list[tuple[SimTask, list[int]]]:
    """Group the configs into batch tasks (see the module docstring).

    ``configs[i]`` runs on ``backends[i]``; returns each task with the
    indices of its members, covering every config exactly once.  Under
    a checkpointing context each task's file is named after its backend
    and its members' payloads, so a retry of the same task finds the
    dead worker's file and no two tasks share one.
    """
    if "numpy" in backends:
        from repro.kernel.numpy_kernel import batch_group_key
    groups: dict[tuple[Any, ...], list[int]] = {}
    for index, (config, resolved) in enumerate(zip(configs, backends)):
        group = (
            (resolved, batch_group_key(config))
            if resolved == "numpy"
            else (resolved, index)
        )
        groups.setdefault(group, []).append(index)
    context = runtime.active()
    directory: Path | None = None
    every: int | None = None
    if context is not None and context.checkpointing:
        directory, every = context.checkpoint_dir, context.checkpoint_every
    tasks: list[tuple[SimTask, list[int]]] = []
    for (resolved, _), members in groups.items():
        count = min(jobs, len(members))
        for first in range(count):
            chunk = members[first::count]
            checkpoint = None
            if directory is not None:
                stamp = digest_json(
                    {"backend": resolved, "runs": [payloads[i] for i in chunk]}
                )
                checkpoint = str(directory / f"{stamp[:32]}.ckpt")
            task = SimTask(
                backend=resolved,
                configs=tuple(configs[i] for i in chunk),
                warmup_cycles=warmup_cycles,
                measure_cycles=measure_cycles,
                checkpoint_every=every,
                checkpoint=checkpoint,
            )
            tasks.append((task, chunk))
    return tasks


def parallel_simulate(
    configs: Sequence["NetworkConfig"],
    warmup_cycles: int = 2000,
    measure_cycles: int = 10000,
    jobs: int | None = 1,
    backend: str | None = None,
) -> list["SimulationResult"]:
    """Simulate every config, in input order, as batch tasks over ``jobs``.

    Per-config seeding makes the result list byte-identical for any
    ``jobs`` value and either backend.  Under an active cache context,
    previously computed configs are served from the store (and only
    cache misses count toward :func:`simulated_cycles`); with
    checkpointing configured, each task periodically checkpoints into
    the context's directory so a dead worker's replacement resumes
    instead of restarting.

    ``backend`` forces a simulation backend for the whole grid; ``None``
    takes the context's backend, else the ``REPRO_BACKEND`` preference,
    else the numpy kernel wherever it is exact (see
    :func:`repro.kernel.base.resolve_backend`).  Both backends produce
    byte-identical results and share one cache namespace: a result
    computed by either is a hit for both.
    """
    global _cycles_simulated
    configs = list(configs)
    jobs = resolve_jobs(jobs)
    payloads = [
        {
            "config": config.to_state(),
            "warmup": warmup_cycles,
            "measure": measure_cycles,
        }
        for config in configs
    ]
    context = runtime.active()
    if backend is None and context is not None:
        # The runner's --backend flag arrives ambiently, like the cache:
        # experiments stay backend-oblivious (see CacheContext.backend).
        backend = context.backend
    results, store = _memo("simulation-result", payloads)
    missed = [index for index, hit in enumerate(results) if hit is None]
    _cycles_simulated += (warmup_cycles + measure_cycles) * len(missed)
    if not missed:
        return results
    missed_configs = [configs[i] for i in missed]
    planned = _plan_tasks(
        missed_configs,
        [payloads[i] for i in missed],
        _resolve_backends(missed_configs, backend),
        jobs,
        warmup_cycles,
        measure_cycles,
    )
    fresh = _execute(_simulate_task, [task for task, _ in planned], jobs)
    for (_, members), batch in zip(planned, fresh):
        for member, result in zip(members, batch):
            store(missed[member], result)
            results[missed[member]] = result
    return results
