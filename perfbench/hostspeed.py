"""Host-speed calibration, so that host time measures the program.

The benchmark runs on shared virtual machines whose speed drifts: the
same simulation ran from 780 to 1320 network cycles per second within
one hour, in wall time and in thread CPU time alike, and the host's
speed changes within seconds.  A drift of that size between two sets of
runs would move every time the benchmark reports by more than its
bounds.

So the benchmark interleaves a fixed *calibration slice* with the work
it times: about a millisecond of pure-Python queue traffic that imports
nothing from the program, finely enough that the slices see the same
host speed as the work around them.  The *slowness* of a stretch of
work is the median time of the slices taken in it over
:data:`NOMINAL_SLICE_S`, to the power :data:`SPEED_EXPONENT`; the
work's time divided by it is its time at the nominal host speed, where
a slice takes exactly :data:`NOMINAL_SLICE_S`.

The slice allocates no object the garbage collector tracks (its queues
are allocated once and hold integers), so no collection of the
program's objects runs inside it and the program's collector settings
do not change it; and each timed slice runs warm (see
:meth:`Calibrator.block`).  Every results document keeps the raw
figures beside the normalized ones.
"""

from __future__ import annotations

import sys
from collections import defaultdict, deque
from statistics import median
from time import perf_counter
from typing import Any

from common import HelperProcess, LineReader, serve_lines

#: Slice time that defines the nominal host speed.
NOMINAL_SLICE_S = 0.001

#: How the program's speed follows the slice's.  The slice, small and
#: pure interpreter work, gains more than the simulators when the host
#: speeds up: over 112 grid passes on the development host, whose slice
#: times ranged over a factor of two, the reference kernel's speed went
#: as the 0.77th power of the slice's (correlation -0.98), the numpy
#: kernel's as the 0.82nd to 0.90th.  Dividing by the plain slice ratio
#: would read a host twice as fast as a 15% slower program.
SPEED_EXPONENT = 0.75

#: Seconds of timed work between two calibration slices: fine enough to
#: follow the host's changes of speed, which last seconds, at 7% extra
#: time for the slices.
SLICE_INTERVAL_S = 0.03

#: Slices per normalization segment of a :class:`HostClock`, about a
#: third of a second of work.
SEGMENT_SLICES = 12

#: Queues and rounds of one slice: a 64-queue, 4-slot network like a
#: small switch fabric, about a millisecond of interpreter work.
_QUEUES = 64
_SLOTS = 4
_ROUNDS = 20

#: The slice's queues, allocated once: a slice allocates no object the
#: garbage collector tracks, so collections never run inside it.
_QUEUE_POOL: list[deque[int]] = [deque() for _ in range(_QUEUES)]


def calibration_slice() -> int:
    """One fixed unit of interpreter work; returns the packets moved."""
    queues = _QUEUE_POOL
    for queue in queues:
        queue.clear()
    state = 0x2545F491
    moved = 0
    for cycle in range(_ROUNDS):
        for index in range(_QUEUES):
            # xorshift32: deterministic and free of library calls.
            state ^= (state << 13) & 0xFFFFFFFF
            state ^= state >> 17
            state ^= (state << 5) & 0xFFFFFFFF
            queue = queues[index]
            if state & 1 and len(queue) < _SLOTS:
                queue.append(cycle * _QUEUES + index)
            if queue:
                packet = queue.popleft()
                target = queues[(index * 5 + cycle) % _QUEUES]
                if len(target) < _SLOTS:
                    target.append(packet)
                    moved += 1
    return moved


class Calibrator:
    """Collects the times of calibration slices taken in blocks."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: Seconds spent in slices, warm-up runs included.
        self.spent = 0.0

    def block(self, slices: int) -> None:
        """Take ``slices`` slices back to back.

        Each timed slice follows an untimed one, which brings the slice's
        data and the interpreter's code for it back into the caches: the
        work the benchmark times between slices evicts them, and a cold
        slice would read the program's cache footprint as host speed
        (5% after reference steps, under 1% when warmed).
        """
        began = perf_counter()
        for _ in range(slices):
            calibration_slice()
            start = perf_counter()
            calibration_slice()
            self.samples.append(perf_counter() - start)
        self.spent += perf_counter() - began

    def take(self) -> list[float]:
        """The slice times collected so far; starts a new collection."""
        samples, self.samples = self.samples, []
        return samples


def slowness(samples: list[float]) -> float:
    """Host slowness: the median slice time over the nominal one, to the
    power :data:`SPEED_EXPONENT`."""
    if not samples:
        raise ValueError("no calibration slices")
    return (median(samples) / NOMINAL_SLICE_S) ** SPEED_EXPONENT


class HostClock:
    """Sums of timed work, normalized to the nominal host speed.

    :meth:`add` books ``elapsed`` seconds of work under a name and,
    once :data:`SLICE_INTERVAL_S` has passed since the last slice, takes
    a calibration slice.  Every :data:`SEGMENT_SLICES` slices close a
    segment: the work booked in it is divided by the slowness of its own
    slices.  The host's speed changes within
    seconds, so one slowness for a whole pass would not fit work done at
    its start and at its end alike.
    """

    def __init__(self) -> None:
        #: name -> seconds as measured / at the nominal host speed.
        self.raw: dict[str, float] = defaultdict(float)
        self.normalized: dict[str, float] = defaultdict(float)
        self._pending: dict[str, float] = defaultdict(float)
        self._calibrator = Calibrator()
        self._slices: list[float] = []
        self._due = 0.0

    def add(self, name: str, elapsed: float) -> None:
        self.raw[name] += elapsed
        self._pending[name] += elapsed
        if perf_counter() >= self._due:
            self._slice()
            self._due = perf_counter() + SLICE_INTERVAL_S
            if len(self._slices) >= SEGMENT_SLICES:
                self._close()

    def close(self) -> None:
        """Close the open segment; call before reading the sums."""
        if not self._pending:
            return
        if not self._slices:
            self._slice()
        self._close()

    @property
    def spent(self) -> float:
        """Seconds spent in calibration slices so far."""
        return self._calibrator.spent

    def slowness(self, name: str) -> float:
        """Raw over normalized time booked under ``name``."""
        return self.raw[name] / self.normalized[name]

    def _slice(self) -> None:
        self._calibrator.block(1)
        self._slices.extend(self._calibrator.take())

    def _close(self) -> None:
        slow = slowness(self._slices)
        for name, elapsed in self._pending.items():
            self.normalized[name] += elapsed / slow
        self._pending.clear()
        self._slices = []


def _sample(reader: LineReader, request: Any) -> list[float]:
    """Sampler process: after a start request, take one slice per
    :data:`SLICE_INTERVAL_S` until the stop request; answer with the
    slice times."""
    calibrator = Calibrator()
    while not reader.ready(SLICE_INTERVAL_S):
        calibrator.block(1)
    reader.read()
    return calibrator.take()


class SliceSampler:
    """Calibration slices from a process of their own.

    For work that runs on every CPU at once (a service and its worker
    processes), no slice can run beside it in the benchmark's own
    threads without holding up the service's.  A separate process that
    wakes for one slice every :data:`SLICE_INTERVAL_S` takes a sliver of
    CPU time instead, the same in every run, and its slices see the
    host's speed while the work runs.
    """

    def __init__(self) -> None:
        self._helper = HelperProcess("hostspeed")

    def start(self) -> None:
        self._helper.send("start")

    def stop(self) -> list[float]:
        """Stop sampling; return the slice times taken since :meth:`start`."""
        self._helper.send("stop")
        return self._helper.receive()

    def close(self) -> None:
        self._helper.close()


if __name__ == "__main__" and sys.argv[1:] == ["--serve"]:
    serve_lines(_sample)
