"""Fault-tolerant simulation job service.

An asyncio HTTP/JSON front end (:mod:`repro.service.server`) over a
supervised farm of simulation worker processes
(:class:`repro.perf.supervisor.SupervisedPool`, the pool that also runs
``--jobs N`` on the command line).  Experiment requests are
content-addressed and deduplicated against :mod:`repro.cache`; each
grid's simulations run as batch tasks on the pool — fused numpy batches
split one per worker wherever the numpy kernel is exact, single
reference simulations elsewhere; worker deaths are detected by
heartbeat and resumed from checkpoints (of either backend) under a
bounded, backed-off retry budget (:data:`repro.perf.supervisor
.TASK_RETRY`); a circuit breaker (:mod:`repro.service.breaker`)
degrades answers down a marked ladder (:mod:`repro.service.jobs`)
instead of refusing; and a seeded chaos mode (:mod:`repro.service.chaos`) makes all of that
testable deterministically.  ``python -m repro.service --help``.
"""

from repro.service.breaker import CircuitBreaker
from repro.service.chaos import ChaosPolicy
from repro.service.client import ServiceClient, run_bench
from repro.service.jobs import DEGRADATION_LADDER, JobRecord, JobSpec
from repro.service.server import (
    ServiceConfig,
    ServiceHandle,
    SimulationService,
    serve,
    serve_in_thread,
)
from repro.perf.supervisor import SupervisedPool, SupervisorConfig

__all__ = [
    "ChaosPolicy",
    "CircuitBreaker",
    "DEGRADATION_LADDER",
    "JobRecord",
    "JobSpec",
    "ServiceClient",
    "ServiceConfig",
    "ServiceHandle",
    "SimulationService",
    "SupervisedPool",
    "SupervisorConfig",
    "run_bench",
    "serve",
    "serve_in_thread",
]
