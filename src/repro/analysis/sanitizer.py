"""Runtime "hardware sanitizer" for the buffer models (ASan/TSan spirit).

The Section 3.1 micro-architecture constrains what the DAMQ buffer's
register file can physically do in one clock: the slot pool has **one
write port** and a bounded number of read ports (one for FIFO/SAMQ/DAMQ,
one per output for SAFC), and every slot is threaded on **exactly one**
linked list (a destination list, the free list, or — after a hard fault —
retired limbo).  A modeling bug that violates either constraint produces
results no chip could, while still looking statistically plausible.

:class:`HardwareSanitizer` is an :class:`~repro.observed.Observer` that
checks those constraints while a simulation runs:

* **Slot lifecycle** — a state machine per slot (free / in-use /
  retired), driven by the slot manager's free-list choke points, reports
  *use-after-free* (the free list handed out a slot still in use) and
  *double-free* (a slot already free appended to the free list again),
  each with the slot's recent operation trace.
* **Pointer RAM structure** — :meth:`HardwareSanitizer.scan` walks every
  head register through the pointer RAM and reports *pointer cycles*,
  *wild pointers* (out-of-range), *cross-links* (one slot on two lists)
  and *pointer leaks* (unreachable live slots).
* **Port bandwidth** — enqueues and dequeues are counted per simulated
  cycle, and *write-port-overrun* / *read-port-overrun* is reported the
  moment a buffer performs more RAM accesses in one network cycle than
  its port budget allows.  (At the packet granularity of the network
  model, the paper's 12-clock network cycle — 8 transmit + 4 route —
  admits at most one packet through the single write port and one per
  read port, which is the budget enforced here.)

The events come from the shared observed layer (:mod:`repro.observed`),
never from per-call branches: with the sanitizer off, the simulator
constructs the plain classes and the hot path is untouched.  The
sanitizer only *observes* — it draws nothing from any RNG and never
changes model behaviour, so sanitized runs stay bit-identical to plain
ones, alone or combined with telemetry.

Enable it with the environment variable ``REPRO_SANITIZE=1`` (honoured by
:func:`repro.network.simulator.simulate` and the experiment stack,
including parallel workers), with ``make_simulator(config,
sanitize=True)``, or by adopting components directly.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.core.buffer import SwitchBuffer
from repro.core.damq import DamqBuffer
from repro.core.linkedlist import NO_SLOT, SlotListManager
from repro.core.packet import Packet
from repro.errors import ConfigurationError, SanitizerError
from repro.observed import ObservedBuffer, ObservedSlotListManager, Observer, observe

__all__ = [
    "HardwareSanitizer",
    "Violation",
    "sanitize_enabled",
]

#: Environment variable that switches the sanitizer on for ``simulate()``.
SANITIZE_ENV = "REPRO_SANITIZE"

#: Write ports per buffer pool (Section 3.1: one write per clock).
WRITE_PORTS = 1

#: Recent operations kept per slot / per buffer for violation traces.
TRACE_DEPTH = 8

# Slot lifecycle states tracked per observed slot manager.
_FREE, _IN_USE, _RETIRED = 0, 1, 2
_STATE_NAMES = {_FREE: "free", _IN_USE: "in-use", _RETIRED: "retired"}


def sanitize_enabled(env: str | None = None) -> bool:
    """Whether ``REPRO_SANITIZE`` asks for a sanitized run.

    Any value other than empty/``0`` enables the sanitizer; ``env``
    overrides the environment for tests.
    """
    value = os.environ.get(SANITIZE_ENV, "") if env is None else env
    return value not in ("", "0")


@dataclass(frozen=True)
class Violation:
    """One detected hardware-model violation.

    ``trace`` holds the most recent operations on the offending slot or
    buffer (oldest first), each formatted as ``"cycle N: op"``.
    """

    kind: str
    buffer: str
    cycle: int
    message: str
    slot: int | None = None
    trace: tuple[str, ...] = ()

    def render(self) -> str:
        """One-line human-readable form."""
        where = f" slot {self.slot}" if self.slot is not None else ""
        text = (
            f"[{self.kind}] {self.buffer}{where} @cycle {self.cycle}: "
            f"{self.message}"
        )
        if self.trace:
            text += "\n    trace: " + "; ".join(self.trace)
        return text

    def as_dict(self) -> dict[str, Any]:
        """JSON-able representation."""
        return {
            "kind": self.kind,
            "buffer": self.buffer,
            "cycle": self.cycle,
            "slot": self.slot,
            "message": self.message,
            "trace": list(self.trace),
        }


def _slot_states(manager: SlotListManager) -> list[int]:
    """Lifecycle state of every slot, derived from the register file."""
    state = [_IN_USE] * manager.num_slots
    for slot in manager.free_slots():
        state[slot] = _FREE
    for slot in manager.retired_slots():
        state[slot] = _RETIRED
    return state


class _SlotRecord:
    """The sanitizer's view of one slot manager."""

    def __init__(self, manager: SlotListManager, label: str) -> None:
        self.label = label
        self.state = _slot_states(manager)
        self.history: list[deque[str]] = [
            deque(maxlen=TRACE_DEPTH) for _ in range(manager.num_slots)
        ]

    def note(self, slot: int, cycle: int, operation: str) -> None:
        self.history[slot].append(f"cycle {cycle}: {operation}")

    def trace(self, slot: int) -> tuple[str, ...]:
        return tuple(self.history[slot])


@dataclass
class _PortRecord:
    """Per-cycle port-bandwidth accounting of one buffer.

    The counters reset lazily on the first access of a new cycle, so
    idle buffers cost nothing.
    """

    label: str
    stamp: int = -1
    writes: int = 0
    reads: int = 0
    trace: deque[str] = field(default_factory=lambda: deque(maxlen=TRACE_DEPTH))


class HardwareSanitizer(Observer):
    """Collects violations from every component it observes in one run.

    The sanitizer never raises from inside the model — it records and
    keeps going, exactly like ASan's ``halt_on_error=0`` mode — so a
    single corruption produces a full report instead of a stack trace.
    Callers inspect :attr:`violations` (or :meth:`assert_clean`, which
    raises :class:`~repro.errors.SanitizerError` listing everything).
    """

    def __init__(self, max_violations: int = 1000) -> None:
        if max_violations < 1:
            raise ConfigurationError("sanitizer needs room for one violation")
        self.violations: list[Violation] = []
        #: Violations not recorded because ``max_violations`` was reached.
        self.dropped = 0
        self._max_violations = max_violations
        self._buffers: dict[SwitchBuffer, _PortRecord] = {}
        self._managers: dict[SlotListManager, _SlotRecord] = {}

    # -- recording -------------------------------------------------------

    def record(
        self,
        kind: str,
        buffer: str,
        message: str,
        slot: int | None = None,
        trace: tuple[str, ...] = (),
    ) -> None:
        """Record one violation (dropped beyond ``max_violations``)."""
        if len(self.violations) >= self._max_violations:
            self.dropped += 1
            return
        self.violations.append(
            Violation(
                kind=kind,
                buffer=buffer,
                cycle=self.cycle,
                message=message,
                slot=slot,
                trace=trace,
            )
        )

    # -- component adoption ----------------------------------------------

    def adopt_buffer(
        self, buffer: SwitchBuffer, label: str | None = None
    ) -> SwitchBuffer:
        """Check a buffer's port budget (and a DAMQ's slot manager).

        The buffer joins the observed layer in place (its live state is
        kept); adopting it again is a no-op.
        """
        if observe(buffer, self, ObservedBuffer, "sanitize buffer"):
            name = label or f"buffer{len(self._buffers)}"
            self._buffers[buffer] = _PortRecord(name)
            if isinstance(buffer, DamqBuffer):
                self.adopt_slot_manager(buffer._lists, name)
        return buffer

    def adopt_slot_manager(
        self, manager: SlotListManager, label: str
    ) -> SlotListManager:
        """Track a slot manager's lifecycle (e.g. the chip model's).

        Slot states are derived from the live register file; adopting an
        already adopted manager only relabels it.
        """
        if observe(manager, self, ObservedSlotListManager, "sanitize slot manager"):
            self._managers[manager] = _SlotRecord(manager, label)
        else:
            self._managers[manager].label = label
        return manager

    def set_label(self, buffer: SwitchBuffer, label: str) -> None:
        """Give an adopted buffer a descriptive label for reports."""
        self._buffers[buffer].label = label
        if isinstance(buffer, DamqBuffer):
            self._managers[buffer._lists].label = label

    # -- slot lifecycle ------------------------------------------------------

    def on_allocate(self, manager: SlotListManager, list_id: int, slot: int) -> None:
        record = self._managers[manager]
        if record.state[slot] != _FREE:
            record.note(slot, self.cycle, f"allocate(list={list_id}) [VIOLATION]")
            self.record(
                "use-after-free",
                record.label,
                f"free list handed out slot {slot} while it is "
                f"{_STATE_NAMES[record.state[slot]]}: the previous "
                f"owner's data would be clobbered",
                slot=slot,
                trace=record.trace(slot),
            )
        else:
            record.note(slot, self.cycle, f"allocate(list={list_id})")
        record.state[slot] = _IN_USE

    def on_free(self, manager: SlotListManager, slot: int) -> None:
        record = self._managers[manager]
        if not 0 <= slot < len(record.state):
            return
        if record.state[slot] == _FREE:
            record.note(slot, self.cycle, "free [VIOLATION]")
            self.record(
                "double-free",
                record.label,
                f"slot {slot} appended to the free list while already "
                f"free: the free list now aliases itself",
                slot=slot,
                trace=record.trace(slot),
            )
        else:
            record.note(slot, self.cycle, "free")
        record.state[slot] = _FREE

    def on_retire(self, manager: SlotListManager, slot: int) -> None:
        record = self._managers[manager]
        record.note(slot, self.cycle, "retire")
        record.state[slot] = _RETIRED

    def on_restore(self, manager: SlotListManager) -> None:
        # Checkpoints carry only the hardware registers, so the lifecycle
        # state machine is rebuilt exactly as adoption builds it.
        self._managers[manager].state = _slot_states(manager)

    # -- port bandwidth ------------------------------------------------------

    def _port(self, buffer: SwitchBuffer) -> _PortRecord:
        port = self._buffers[buffer]
        if port.stamp != self.cycle:
            port.stamp = self.cycle
            port.writes = 0
            port.reads = 0
        return port

    def on_push(self, buffer: SwitchBuffer, packet: Packet, destination: int) -> None:
        port = self._port(buffer)
        port.writes += 1
        port.trace.append(
            f"cycle {self.cycle}: push(dest={destination}, size={packet.size})"
        )
        if port.writes > WRITE_PORTS:
            self.record(
                "write-port-overrun",
                port.label,
                f"{port.writes} enqueues in one network cycle exceed "
                f"the buffer pool's single write port",
                trace=tuple(port.trace),
            )

    def on_pop(self, buffer: SwitchBuffer, packet: Packet, destination: int) -> None:
        port = self._port(buffer)
        port.reads += 1
        port.trace.append(
            f"cycle {self.cycle}: pop(dest={destination}, size={packet.size})"
        )
        budget = buffer.max_reads_per_cycle
        if port.reads > budget:
            self.record(
                "read-port-overrun",
                port.label,
                f"{port.reads} dequeues in one network cycle exceed "
                f"the buffer's {budget} read port(s)",
                trace=tuple(port.trace),
            )

    # -- structural scans --------------------------------------------------

    def scan(self) -> int:
        """Deep pointer-RAM scan of every adopted slot manager.

        Walks each head register through the pointer RAM looking for
        cycles, wild pointers, cross-links and leaks (a live slot no
        head reaches).  Read-only: the walk never mutates the register
        file.  Returns the number of new violations recorded.
        """
        before = len(self.violations) + self.dropped
        for manager, record in self._managers.items():
            reached: dict[int, str] = {}
            for list_id in range(manager.num_lists):
                start = manager._head[list_id] if manager._length[list_id] else NO_SLOT
                self._walk(manager, record, f"list {list_id}", start, reached)
            free_start = manager._free_head if manager._free_count else NO_SLOT
            self._walk(manager, record, "free list", free_start, reached)
            for slot in range(manager.num_slots):
                if slot not in reached and record.state[slot] != _RETIRED:
                    self.record(
                        "pointer-leak",
                        record.label,
                        f"slot {slot} ({_STATE_NAMES[record.state[slot]]}) "
                        f"is unreachable from every head register: its storage "
                        f"is lost to the pool",
                        slot=slot,
                        trace=record.trace(slot),
                    )
        return len(self.violations) + self.dropped - before

    def _walk(
        self,
        manager: SlotListManager,
        record: _SlotRecord,
        chain: str,
        start: int,
        reached: dict[int, str],
    ) -> None:
        seen: set[int] = set()
        slot = start
        while slot != NO_SLOT:
            if not 0 <= slot < manager.num_slots:
                self.record(
                    "wild-pointer",
                    record.label,
                    f"{chain} points at slot {slot}, outside the "
                    f"{manager.num_slots}-slot pool",
                    slot=None,
                )
                return
            if slot in seen:
                self.record(
                    "pointer-cycle",
                    record.label,
                    f"{chain} loops back to slot {slot}: a transmitter "
                    f"draining this list would never terminate",
                    slot=slot,
                    trace=record.trace(slot),
                )
                return
            if slot in reached:
                self.record(
                    "cross-link",
                    record.label,
                    f"slot {slot} is reachable from both {reached[slot]} "
                    f"and {chain}",
                    slot=slot,
                    trace=record.trace(slot),
                )
                return
            seen.add(slot)
            reached[slot] = chain
            slot = manager._next[slot]

    # -- reporting ---------------------------------------------------------

    @property
    def clean(self) -> bool:
        """True when no violation has been recorded."""
        return not self.violations and not self.dropped

    def report(self) -> dict[str, Any]:
        """JSON-able summary of the run's violations."""
        return {
            "clean": self.clean,
            "violations": [violation.as_dict() for violation in self.violations],
            "dropped": self.dropped,
            "buffers": len(self._buffers),
        }

    def render(self) -> str:
        """Human-readable report."""
        if self.clean:
            return (
                f"sanitizer clean: 0 violations across "
                f"{len(self._buffers)} buffer(s)"
            )
        lines = [violation.render() for violation in self.violations]
        lines.append(
            f"{len(self.violations)} violation(s)"
            + (f" (+{self.dropped} dropped)" if self.dropped else "")
        )
        return "\n".join(lines)

    def assert_clean(self) -> None:
        """Raise :class:`~repro.errors.SanitizerError` on any violation."""
        if not self.clean:
            raise SanitizerError(self.render())
