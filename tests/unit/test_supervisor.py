"""Supervisor state-machine tests: death, wedge, deadline, retry budget.

The worker functions are module-level (they cross a process boundary).
Deterministic failure scripts — "die on the first attempt, succeed on
the second" via a marker file — rather than probabilities, so every test
exercises exactly the transition it names.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, WorkerFailedError
from repro.perf.supervisor import SupervisedPool, SupervisorConfig
from repro.service.chaos import ChaosPolicy
from repro.utils.backoff import BackoffPolicy

#: Fast supervision for tests: tight ticks, tiny backoff, 4-attempt budget.
FAST_RETRY = BackoffPolicy(
    base=0.02, factor=2.0, cap_multiple=4.0, max_attempts=4, jitter=0.5
)


def fast_config(workers: int = 1, **overrides) -> SupervisorConfig:
    defaults = dict(
        workers=workers,
        heartbeat_interval=0.02,
        heartbeat_timeout=0.4,
        task_deadline=5.0,
        retry=FAST_RETRY,
        tick=0.01,
    )
    defaults.update(overrides)
    return SupervisorConfig(**defaults)


def square(x):
    return x * x


def raise_value_error(x):
    raise ValueError(f"deterministic failure {x}")


def die_always(_item):  # pragma: no cover - runs in the worker
    os._exit(1)


def die_once(item):  # pragma: no cover - runs in the worker
    """First attempt hard-exits; later attempts see the marker and work."""
    marker, value = item
    path = Path(marker)
    if not path.exists():
        path.write_text("died")
        os._exit(1)
    return value * 2


def wedge_once(item):  # pragma: no cover - runs in the worker
    """First attempt SIGSTOPs its own process (heartbeat goes stale)."""
    marker, value = item
    path = Path(marker)
    if not path.exists():
        path.write_text("wedged")
        os.kill(os.getpid(), signal.SIGSTOP)
    return value * 3


def sleep_long(_item):  # pragma: no cover - runs in the worker
    time.sleep(30.0)


def stall_once(item):  # pragma: no cover - runs in the worker
    """First attempt sleeps far past the task deadline."""
    marker, value = item
    path = Path(marker)
    if not path.exists():
        path.write_text("stalled")
        time.sleep(30.0)
    return value * 5


class TestHappyPath:
    def test_map_preserves_input_order(self):
        with SupervisedPool(fast_config(workers=2)) as pool:
            assert pool.map(square, list(range(10))) == [
                n * n for n in range(10)
            ]

    def test_map_before_start_rejected(self):
        pool = SupervisedPool(fast_config())
        with pytest.raises(ConfigurationError):
            pool.map(square, [1])

    def test_in_task_exception_propagates_without_retry(self):
        with SupervisedPool(fast_config()) as pool:
            with pytest.raises(ValueError, match="deterministic failure"):
                pool.map(raise_value_error, [1])
            stats = pool.stats()
            assert stats["tasks_failed"] == 1
            assert stats["tasks_retried"] == 0

    def test_pool_survives_failed_map(self):
        with SupervisedPool(fast_config()) as pool:
            with pytest.raises(ValueError):
                pool.map(raise_value_error, [1])
            assert pool.map(square, [4]) == [16]


class TestWorkerDeath:
    def test_dead_worker_retried_to_success(self, tmp_path):
        with SupervisedPool(fast_config()) as pool:
            result = pool.map(die_once, [(str(tmp_path / "m"), 21)])
            assert result == [42]
            stats = pool.stats()
            assert stats["tasks_retried"] >= 1
            assert stats["worker_restarts"] >= 1
            assert stats["recoveries"] == 1
            assert stats["mean_recovery_seconds"] > 0.0

    def test_budget_exhaustion_is_structured(self):
        with SupervisedPool(fast_config()) as pool:
            with pytest.raises(WorkerFailedError) as info:
                pool.map(die_always, [7])
            error = info.value
            assert error.attempts == FAST_RETRY.max_attempts
            assert error.task_id is not None
            stats = pool.stats()
            assert stats["tasks_failed"] == 1

    def test_exhaustion_error_names_the_checkpoint(self):
        # Checkpointed simulation tasks carry their checkpoint path; the
        # terminal error must surface it so a manual retry can resume.
        from repro.perf.parallel import SimTask

        item = SimTask(
            "numpy", (), 100, 300, 50, checkpoint="/tmp/resume-here.ckpt"
        )
        with SupervisedPool(fast_config()) as pool:
            with pytest.raises(WorkerFailedError) as info:
                pool.map(die_always, [item])
            assert info.value.checkpoint == "/tmp/resume-here.ckpt"

    def test_wedged_worker_detected_by_heartbeat(self, tmp_path):
        with SupervisedPool(fast_config()) as pool:
            result = pool.map(wedge_once, [(str(tmp_path / "m"), 9)])
            assert result == [27]
            restarts = pool.metrics.counter(
                "service_worker_restarts_total", reason="heartbeat"
            )
            assert restarts.value >= 1

    def test_deadline_expiry_kills_and_retries(self, tmp_path):
        config = fast_config(task_deadline=0.3)
        with SupervisedPool(config) as pool:
            result = pool.map(stall_once, [(str(tmp_path / "m"), 8)])
            assert result == [40]
            expiries = pool.metrics.value(
                "service_deadline_expirations_total"
            )
            assert expiries >= 1

    def test_admin_kill_worker_recovers(self, tmp_path):
        # Killing a busy worker from outside looks exactly like a crash:
        # detected, retried, recovered.
        marker = tmp_path / "m"
        with SupervisedPool(fast_config()) as pool:

            def _assassin():
                for _ in range(100):
                    if marker.exists():
                        pool.kill_worker()
                        return
                    time.sleep(0.01)

            killer = threading.Thread(target=_assassin, daemon=True)
            killer.start()
            result = pool.map(stall_once, [(str(marker), 4)])
            killer.join(timeout=5.0)
            assert result == [20]


class TestStop:
    def test_stop_fails_a_blocked_map(self):
        # stop() from another thread must release a caller blocked in
        # map(): each unfinished task fails with a structured error.
        pool = SupervisedPool(fast_config(task_deadline=None)).start()
        outcome: list[BaseException] = []

        def _map():
            try:
                pool.map(sleep_long, [1])
            except BaseException as exc:
                outcome.append(exc)

        caller = threading.Thread(target=_map, daemon=True)
        caller.start()
        time.sleep(0.2)
        pool.stop()
        caller.join(timeout=5.0)
        assert not caller.is_alive()
        (error,) = outcome
        assert isinstance(error, WorkerFailedError)
        assert error.task_id is not None
        assert "stopped" in str(error)

    def test_orphaned_workers_exit(self):
        # A pool process killed without stop() must not leave its
        # workers behind: each notices its parent is gone and exits.
        script = (
            "import os\n"
            "from repro.perf.supervisor import SupervisedPool\n"
            "pool = SupervisedPool().start()\n"
            "print(*(w.process.pid for w in pool._workers), flush=True)\n"
            "os._exit(0)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        child = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=60, check=True,
        )
        pids = [int(pid) for pid in child.stdout.split()]
        assert len(pids) == 2

        def alive(pid):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return False
            # An exited orphan lingers as a zombie until init reaps it.
            try:
                stat = Path(f"/proc/{pid}/stat").read_text()
            except OSError:
                return True
            return stat.rsplit(")", 1)[1].split()[0] != "Z"

        for _ in range(200):
            if not any(alive(pid) for pid in pids):
                break
            time.sleep(0.02)
        assert not any(alive(pid) for pid in pids)

    def test_map_after_stop_rejected(self):
        pool = SupervisedPool(fast_config()).start()
        pool.stop()
        with pytest.raises(ConfigurationError):
            pool.map(square, [1])


class TestChaosIntegration:
    def test_chaos_kills_bounded_so_work_completes(self):
        chaos = ChaosPolicy(
            kill_probability=1.0,
            kill_after_s=(0.0, 0.01),
            max_injections_per_task=2,
        )
        with SupervisedPool(fast_config(workers=2), chaos=chaos) as pool:
            assert pool.map(square, [2, 3, 4]) == [4, 9, 16]
            injections = pool.metrics.counter(
                "service_chaos_injections_total", kind="kill_after"
            )
            assert injections.value >= 1
