"""Kill/resume integration: interrupted runs finish bit-identically.

The simulator exposes a test-only kill switch: when the environment
variable ``REPRO_TEST_EXIT_AT_CHECKPOINT`` names a cycle, a run calls
``os._exit`` immediately after writing the checkpoint at that cycle —
the hardest kind of death (no cleanup, no atexit, mid-experiment).
These tests kill real processes with it, on both backends, and assert
the resumed runs reproduce the uninterrupted results bit for bit.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cache.runtime import CacheContext, activate
from repro.cache.store import ResultCache
from repro.errors import ConfigurationError
from repro.network.simulator import (
    CHECKPOINT_EXIT_CODE,
    CHECKPOINT_EXIT_ENV,
    NetworkConfig,
    load_checkpoint,
    resume_batch,
    resume_run,
    simulate,
)
from repro.perf.parallel import (
    parallel_simulate,
    reset_simulated_cycles,
    simulated_cycles,
)

WARMUP, MEASURE, EVERY, KILL_AT = 100, 300, 50, 200

#: The config the killed child process simulates (kept in lockstep with
#: _CHILD_SCRIPT below).
CHILD_CONFIG = dict(
    num_ports=16,
    radix=4,
    buffer_kind="DAMQ",
    offered_load=0.6,
    seed=42,
)

_CHILD_SCRIPT = """\
import sys
from repro.network.simulator import NetworkConfig, simulate

config = NetworkConfig(
    num_ports=16, radix=4, buffer_kind="DAMQ", offered_load=0.6, seed=42
)
simulate(
    config,
    warmup_cycles=100,
    measure_cycles=300,
    checkpoint_every=50,
    checkpoint_path=sys.argv[1],
    backend=sys.argv[2] if len(sys.argv) > 2 else None,
)
"""

#: A fused numpy batch of blocking FIFO and DAMQ members and a
#: discarding SAFC member (all share one batch group key).
BATCH = [
    dict(buffer_kind="FIFO", protocol="blocking", offered_load=0.5, seed=1),
    dict(buffer_kind="DAMQ", protocol="blocking", offered_load=0.8, seed=2),
    dict(buffer_kind="SAFC", protocol="discarding", offered_load=0.9, seed=3),
]

_BATCH_SCRIPT = """\
import sys
from repro.kernel.numpy_kernel import NumpyKernel
from repro.network.simulator import NetworkConfig
from repro.switch.flow_control import Protocol

members = %r
configs = [
    NetworkConfig(
        num_ports=16, radix=4,
        **{**member, "protocol": Protocol(member["protocol"])},
    )
    for member in members
]
NumpyKernel.batch(configs).run_batch(
    100, 300, checkpoint_every=50, checkpoint_path=sys.argv[1]
)
""" % (BATCH,)


def run_child(
    checkpoint: Path,
    *,
    sanitize: bool = False,
    backend: str | None = None,
    script: str = _CHILD_SCRIPT,
) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    env[CHECKPOINT_EXIT_ENV] = str(KILL_AT)
    env["REPRO_SANITIZE"] = "1" if sanitize else "0"
    argv = [str(checkpoint)] + ([backend] if backend is not None else [])
    process = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return process.returncode


def meters_of(result) -> dict:
    return result.meters.snapshot_state()


@pytest.fixture(scope="module")
def reference():
    """The uninterrupted run every kill/resume variant must reproduce."""
    return simulate(NetworkConfig(**CHILD_CONFIG), WARMUP, MEASURE)


def test_killed_process_resumes_bit_identically(tmp_path, reference):
    checkpoint = tmp_path / "killed.ckpt"
    assert run_child(checkpoint) == CHECKPOINT_EXIT_CODE
    assert load_checkpoint(checkpoint)["state"]["cycle"] == KILL_AT

    resumed = resume_run(checkpoint)
    assert meters_of(resumed) == meters_of(reference)


def test_killed_sanitized_process_resumes_bit_identically(tmp_path, reference):
    checkpoint = tmp_path / "killed-sanitized.ckpt"
    assert run_child(checkpoint, sanitize=True) == CHECKPOINT_EXIT_CODE

    resumed = resume_run(checkpoint, sanitize=True)
    assert meters_of(resumed) == meters_of(reference)


def test_plain_checkpoint_resumes_under_sanitizer(tmp_path, reference):
    """Reference snapshots are sanitizer-agnostic in both directions."""
    checkpoint = tmp_path / "killed-plain.ckpt"
    assert run_child(checkpoint, backend="reference") == CHECKPOINT_EXIT_CODE

    resumed = resume_run(checkpoint, sanitize=True)
    assert meters_of(resumed) == meters_of(reference)


def test_numpy_checkpoint_refuses_the_sanitizer(tmp_path):
    """The sanitizer cannot observe a numpy run; the error says how to
    get one it can."""
    pytest.importorskip("numpy")
    checkpoint = tmp_path / "killed-numpy.ckpt"
    assert run_child(checkpoint, backend="numpy") == CHECKPOINT_EXIT_CODE
    assert load_checkpoint(checkpoint)["backend"] == "numpy"

    with pytest.raises(ConfigurationError, match='backend="reference"'):
        resume_run(checkpoint, sanitize=True)


def test_killed_fused_batch_resumes_bit_identically(tmp_path):
    """A fused numpy batch killed at a checkpoint resumes every member
    byte-identically to its uninterrupted run."""
    pytest.importorskip("numpy")
    from repro.switch.flow_control import Protocol

    configs = [
        NetworkConfig(
            num_ports=16,
            radix=4,
            **{**member, "protocol": Protocol(member["protocol"])},
        )
        for member in BATCH
    ]
    checkpoint = tmp_path / "killed-batch.ckpt"
    assert run_child(checkpoint, script=_BATCH_SCRIPT) == CHECKPOINT_EXIT_CODE
    document = load_checkpoint(checkpoint)
    assert document["backend"] == "numpy"
    assert document["state"]["cycle"] == KILL_AT
    assert len(document["configs"]) == len(BATCH)

    resumed = resume_batch(checkpoint)
    uninterrupted = [
        simulate(config, WARMUP, MEASURE, backend="reference")
        for config in configs
    ]
    assert [r.to_state() for r in resumed] == [
        u.to_state() for u in uninterrupted
    ]
    with pytest.raises(ConfigurationError, match="resume_batch"):
        resume_run(checkpoint)


GRID = [
    NetworkConfig(num_ports=16, radix=4, offered_load=load, seed=seed)
    for load, seed in [(0.4, 1), (0.7, 2)]
]


def test_checkpointed_parallel_run_matches_plain(tmp_path):
    reference = [simulate(config, WARMUP, MEASURE) for config in GRID]
    context = CacheContext(
        None, "ckpt-test", checkpoint_every=EVERY, checkpoint_dir=tmp_path
    )
    with activate(context):
        results = parallel_simulate(GRID, WARMUP, MEASURE, jobs=2)
    for got, want in zip(results, reference):
        assert meters_of(got) == meters_of(want)
    # Checkpoints are scratch state; completed tasks remove theirs.
    assert list(tmp_path.glob("*.ckpt")) == []


def test_dead_workers_auto_resume_from_checkpoints(tmp_path, monkeypatch):
    reference = [simulate(config, WARMUP, MEASURE) for config in GRID]
    cache = ResultCache(tmp_path / "cache")
    context = CacheContext(
        cache,
        "kill-test",
        checkpoint_every=EVERY,
        checkpoint_dir=tmp_path / "checkpoints",
    )
    # Every worker kills itself at its first KILL_AT checkpoint; the
    # replacement pool resumes each task from the dead worker's file
    # (which is past KILL_AT, so the resumed run survives the env).
    monkeypatch.setenv(CHECKPOINT_EXIT_ENV, str(KILL_AT))
    reset_simulated_cycles()
    with activate(context):
        results = parallel_simulate(GRID, WARMUP, MEASURE, jobs=2)
    for got, want in zip(results, reference):
        assert meters_of(got) == meters_of(want)

    # The recovered results were cached; a warm pass runs no simulation.
    monkeypatch.delenv(CHECKPOINT_EXIT_ENV)
    reset_simulated_cycles()
    with activate(context):
        warm = parallel_simulate(GRID, WARMUP, MEASURE, jobs=2)
    assert simulated_cycles() == 0
    for got, want in zip(warm, reference):
        assert meters_of(got) == meters_of(want)
