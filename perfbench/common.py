"""Shared pieces of the benchmark: statistics, provenance, result documents
and helper processes.

Every workload returns a :class:`Outcome`: the per-pass samples of each
metric it measured, the operations it attempted and the ones that failed
its correctness gate.  :func:`summarize` turns the samples into medians
and quartiles, and :func:`write_document` records them beside the host
and source provenance in ``perfbench/out/``.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

#: Root of the checkout the benchmark runs in (``perfbench/..``).
ROOT = Path(__file__).resolve().parent.parent

#: Everything the benchmark writes: result documents, traces, the
#: service's data directories and the temporary directory of its process.
OUT_DIR = ROOT / "perfbench" / "out"


@dataclass
class Outcome:
    """What one workload run measured."""

    #: metric name -> unit.
    units: dict[str, str] = field(default_factory=dict)
    #: metric name -> samples: one value per grid pass or epoch, per
    #: service start for ``setup_s`` on the service workload, or per
    #: window of answers for its latency percentiles.
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: metric name -> (q1, median, q3) derived once for the whole run.
    values: dict[str, tuple[float, float, float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Human-readable description of each failed operation.
    failures: list[str] = field(default_factory=list)
    #: Grid passes or service epochs measured.
    passes: int = 0
    #: Free-form facts about the run (sample counts, tolerances, ...).
    notes: dict[str, Any] = field(default_factory=dict)

    def add(self, name: str, unit: str, value: float) -> None:
        self.units[name] = unit
        self.samples.setdefault(name, []).append(float(value))

    def set(
        self,
        name: str,
        unit: str,
        q1: float,
        value: float | None = None,
        q3: float | None = None,
    ) -> None:
        """Record a whole-run value, optionally as ``(q1, median, q3)``."""
        if value is None:
            value = q3 = q1
        self.units[name] = unit
        self.values[name] = (float(q1), float(value), float(q3))

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)


def confine_temporary_files() -> None:
    """Point this process's (and its children's) temporary files into
    :data:`OUT_DIR`, so that a run writes nothing outside its checkout."""
    scratch = OUT_DIR / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of ``values``."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q <= 1) of ``values``."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def summarize(outcome: Outcome) -> dict[str, dict[str, Any]]:
    """Median and quartiles of every metric, with its unit and count."""
    summary: dict[str, dict[str, Any]] = {}
    for name, values in outcome.samples.items():
        q1, median, q3 = quartiles(values)
        summary[name] = {
            "value": median,
            "q1": q1,
            "q3": q3,
            "n": len(values),
            "unit": outcome.units[name],
            "samples": values,
        }
    for name, (q1, median, q3) in outcome.values.items():
        summary[name] = {
            "value": median,
            "q1": q1,
            "q3": q3,
            "n": 1,
            "unit": outcome.units[name],
        }
    return summary


def peak_rss_mb(include_children: bool) -> float:
    """Peak resident set size of this process (plus its largest child).

    ``ru_maxrss`` is in KiB on Linux.  For children it is the peak of the
    largest reaped descendant, so the children must have been joined.
    """
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    """The checkout's commit, or ``None`` outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    commit = completed.stdout.strip()
    return commit or None


def provenance(seed: int) -> dict[str, Any]:
    """Host, interpreter and source identity of this run."""
    import numpy

    from repro.cache.keys import source_fingerprint

    return {
        "host": {
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
        "git_commit": _git_commit(),
        "source_fingerprint": source_fingerprint(),
        "seed": seed,
    }


class HelperProcess:
    """A helper process of the benchmark, spoken to in JSON lines.

    Runs ``perfbench/<module>.py --serve``, which answers requests with
    :func:`serve_lines`.  The helper is a plain child process, not a
    ``multiprocessing`` one: a spawned ``multiprocessing`` child also
    starts a resource-tracker process that outlives the benchmark.  The
    helper exits at the end of its input, so it ends with the benchmark
    even when the benchmark is killed; :meth:`close` waits until it has.
    """

    def __init__(self, module: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
        )
        self._process = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / f"{module}.py"), "--serve"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
        )

    def send(self, message: Any) -> None:
        self._process.stdin.write(json.dumps(message).encode() + b"\n")
        self._process.stdin.flush()

    def receive(self) -> Any:
        line = self._process.stdout.readline()
        if not line:
            raise RuntimeError(f"helper process exited ({self._process.wait()})")
        return json.loads(line)

    def close(self) -> None:
        try:
            self._process.stdin.close()
        except OSError:
            pass
        try:
            self._process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        self._process.stdout.close()


class LineReader:
    """Helper side of :class:`HelperProcess`: request lines from stdin.

    Reads the file descriptor directly, so that :meth:`ready` never
    misses a line that a buffered reader has already taken in.
    """

    def __init__(self) -> None:
        self._buffer = b""

    def ready(self, timeout: float) -> bool:
        """Whether a line (or the end of input) arrives within ``timeout``."""
        if b"\n" in self._buffer:
            return True
        return bool(select.select([0], [], [], timeout)[0])

    def read(self) -> Any:
        """The next request, or ``None`` at the end of input."""
        while b"\n" not in self._buffer:
            chunk = os.read(0, 1 << 16)
            if not chunk:
                return None
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return json.loads(line)


def serve_lines(handle: Any) -> None:
    """Helper main loop: ``handle(reader, request)`` returns each answer.

    Stray output of the helper goes to its standard error, so that its
    standard output carries only answers.
    """
    answers = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    reader = LineReader()
    while (request := reader.read()) is not None:
        answers.write(json.dumps(handle(reader, request)) + "\n")
        answers.flush()


def write_document(name: str, document: dict[str, Any]) -> Path:
    """Write one results document under :data:`OUT_DIR`."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / name
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path
