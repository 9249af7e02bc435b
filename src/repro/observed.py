"""The observed layer: one instrumented subclass per component.

Every slot movement in the Section 3.1 register file passes through the
same few choke points — allocate from the free list, append to the free
list, retire — and every buffer has one write port and a fixed number
of read ports.  This module hooks exactly those points once, for every
consumer: each component kind gets one *observed* subclass whose
overrides call the plain method and then hand the event to every
:class:`Observer` attached to that instance.

* :class:`ObservedSlotListManager` — ``allocate`` / ``_append_free`` /
  ``retire_slot`` (and ``restore_state``, so observers can re-derive
  their view after a checkpoint restore);
* :class:`ObservedBuffer` — ``push`` / ``pop``, mixed over each
  registered buffer kind;
* :class:`ObservedScheduler` — ``arbitrate``, mixed over the paper's
  arbiter and each zoo scheduler;
* the ComCoBB chip's port FSMs, in :mod:`repro.chip.observed`.

:func:`observe` installs the subclass with ``__class__`` reassignment:
the instance keeps its exact state, and with nothing observed the plain
classes run with zero instrumentation branches.  Attaching a second
observer to an already observed component extends its observer list.

The two observers the repo ships are
:class:`~repro.analysis.sanitizer.HardwareSanitizer` (slot lifecycle,
port budgets, pointer-RAM scan) and
:class:`~repro.telemetry.session.TraceSession` (events and metrics).
:class:`ObservedOmegaNetworkSimulator` attaches any combination of them
to a whole network.  Observers only read: they draw nothing from any
RNG, so observed runs are bit-identical to plain ones.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.core.buffer import SwitchBuffer
from repro.core.linkedlist import SlotListManager
from repro.core.packet import Packet
from repro.core.registry import BUFFER_TYPES, buffer_kinds
from repro.errors import ConfigurationError
from repro.network.metrics import SimulationResult
from repro.network.simulator import NetworkConfig, OmegaNetworkSimulator
from repro.switch.arbiter import CrossbarArbiter
from repro.switch.scheduler import BlockedPredicate, Grant, Scheduler

if TYPE_CHECKING:
    from repro.analysis.sanitizer import HardwareSanitizer
    from repro.chip.input_port import InputPort
    from repro.chip.output_port import OutputPort
    from repro.telemetry.session import TraceSession

__all__ = [
    "ObservedBuffer",
    "ObservedOmegaNetworkSimulator",
    "ObservedScheduler",
    "ObservedSlotListManager",
    "Observer",
    "observe",
]


class Observer:
    """A consumer of observed-component events.

    Every hook is a no-op here; an observer overrides the ones it
    watches.  Component hooks fire *after* the plain method returns.
    """

    #: Simulated cycle stamp; advanced by :meth:`begin_cycle`.
    cycle = 0

    def begin_cycle(self, cycle: int) -> None:
        """Advance the cycle stamp (call once per simulated cycle)."""
        self.cycle = cycle

    # -- adoption, driven by ObservedOmegaNetworkSimulator ----------------

    def adopt_buffer(
        self, buffer: SwitchBuffer, label: str | None = None
    ) -> SwitchBuffer:
        """Start observing a freshly built buffer."""
        return buffer

    def set_label(self, buffer: SwitchBuffer, label: str) -> None:
        """Give an adopted buffer its final label."""

    def adopt_network(self, simulator: OmegaNetworkSimulator) -> None:
        """Start observing a fully built network."""

    # -- slot manager --------------------------------------------------------

    def on_allocate(self, manager: SlotListManager, list_id: int, slot: int) -> None:
        """The free list handed ``slot`` to list ``list_id``."""

    def on_free(self, manager: SlotListManager, slot: int) -> None:
        """``slot`` was appended to the free list."""

    def on_retire(self, manager: SlotListManager, slot: int) -> None:
        """``slot`` was taken out of service."""

    def on_restore(self, manager: SlotListManager) -> None:
        """The register file was overwritten from a snapshot."""

    # -- buffers and schedulers ------------------------------------------------

    def on_push(self, buffer: SwitchBuffer, packet: Packet, destination: int) -> None:
        """``packet`` entered the queue for ``destination``."""

    def on_pop(self, buffer: SwitchBuffer, packet: Packet, destination: int) -> None:
        """``packet`` left the queue for ``destination``."""

    def on_arbitrate(
        self, scheduler: Scheduler, rows: Sequence[list[int]], grants: list[Grant]
    ) -> None:
        """One arbitration over queue-length ``rows`` produced ``grants``."""

    # -- chip ports --------------------------------------------------------------

    def on_receive(self, port: InputPort, cycle: int, count: int) -> None:
        """``count`` packets finished arriving at a chip input port."""

    def on_send(self, port: OutputPort, cycle: int) -> None:
        """A chip output port finished transmitting one packet."""

    # -- network links -----------------------------------------------------------

    def on_block(
        self, label: str, input_port: int, output_port: int, blocked: bool
    ) -> None:
        """Flow control started (or stopped) blocking an input→output pair."""

    def on_link(self, stage: int, label: str, output_port: int, packet: Packet) -> None:
        """``packet`` crossed an inter-stage link out of switch ``label``."""

    def on_loss(
        self, label: str, output_port: int, packet: Packet, measured: bool
    ) -> None:
        """A link fault destroyed ``packet``."""

    def on_deliver(self, stage: int, port: int, packet: Packet, measured: bool) -> None:
        """``packet`` reached the sink of network output ``port``."""

    def on_drop(self, packet: Packet, measured: bool) -> None:
        """A full downstream buffer discarded ``packet``."""


class ObservedSlotListManager(SlotListManager):
    """Slot manager reporting its free-list choke points."""

    _observers: list[Observer]

    def allocate(self, list_id: int) -> int:
        slot = super().allocate(list_id)
        for observer in self._observers:
            observer.on_allocate(self, list_id, slot)
        return slot

    def _append_free(self, slot: int) -> None:
        super()._append_free(slot)
        for observer in self._observers:
            observer.on_free(self, slot)

    def retire_slot(self, slot: int | None = None) -> int:
        retired = super().retire_slot(slot)
        for observer in self._observers:
            observer.on_retire(self, retired)
        return retired

    def restore_state(self, state: dict[str, Any]) -> None:
        super().restore_state(state)
        for observer in self._observers:
            observer.on_restore(self)


class ObservedBuffer(SwitchBuffer):
    """Write- and read-port hooks, mixed over each registered buffer kind."""

    _observers: list[Observer]

    def push(self, packet: Packet, destination: int) -> None:
        super().push(packet, destination)  # type: ignore[safe-super]
        for observer in self._observers:
            observer.on_push(self, packet, destination)

    def pop(self, destination: int) -> Packet:
        packet = super().pop(destination)  # type: ignore[safe-super]
        for observer in self._observers:
            observer.on_pop(self, packet, destination)
        return packet


class ObservedScheduler(Scheduler):
    """Arbitration hook, mixed over each scheduling discipline.

    Observers get the same queue-length rows the scheduler used (buffer
    state is constant during arbitration; pops happen at execution).
    """

    _observers: list[Observer]

    def arbitrate(
        self,
        buffers: Sequence[SwitchBuffer],
        blocked: BlockedPredicate,
        lengths: Sequence[list[int]] | None = None,
    ) -> list[Grant]:
        rows = (
            lengths
            if lengths is not None
            else [buffer.queue_lengths() for buffer in buffers]
        )
        grants = super().arbitrate(buffers, blocked, rows)  # type: ignore[safe-super]
        for observer in self._observers:
            observer.on_arbitrate(self, rows, grants)
        return grants


def _plain_classes(family: type) -> tuple[type, ...]:
    """The registered plain classes ``family`` may be installed over."""
    if family is ObservedBuffer:
        buffer_kinds()  # loads the architecture zoo's registrations
        return tuple(BUFFER_TYPES.values())
    if family is ObservedScheduler:
        from repro.arch.schedulers import CrosspointScheduler, IterativeScheduler

        return (CrossbarArbiter, CrosspointScheduler, IterativeScheduler)
    return family.__bases__


#: Plain class -> its observed subclass, built on first adoption.
_OBSERVED_CLASSES: dict[type, type] = {}


def observe(component: Any, observer: Observer, family: type, action: str) -> bool:
    """Attach ``observer`` to ``component``; False if it already was.

    The first attachment installs the component's observed subclass by
    ``__class__`` reassignment: ``family`` mixed over the plain class.
    ``family`` derives from the plain classes' common base, which keeps
    the instance layout CPython requires for the reassignment.  Later
    attachments extend the observer list.  ``action`` names the request
    in the :class:`~repro.errors.ConfigurationError` raised for an
    unregistered component type.
    """
    if isinstance(component, family):
        if observer in component._observers:
            return False
        component._observers.append(observer)
        return True
    plain = type(component)
    allowed = _plain_classes(family)
    if plain not in allowed:
        raise ConfigurationError(
            f"cannot {action} of type {plain.__name__}; expected one of "
            f"{sorted(cls.__name__ for cls in allowed)}"
        )
    observed = _OBSERVED_CLASSES.get(plain)
    if observed is None:
        observed = (
            family
            if plain in family.__bases__
            else type(f"Observed{plain.__name__}", (family, plain), {})
        )
        _OBSERVED_CLASSES[plain] = observed
    component.__class__ = observed
    component._observers = [observer]
    return True


class ObservedOmegaNetworkSimulator(OmegaNetworkSimulator):
    """Omega-network simulator whose components report to observers.

    A drop-in replacement for :class:`OmegaNetworkSimulator` with
    identical configuration and results.  ``sanitizer`` and ``session``
    (either or both) become the observers of every input buffer, slot
    manager and link; the session also observes every arbiter.  When
    :meth:`run` finishes, the sanitizer performs its deep pointer-RAM
    scan and, if ``export_dir`` is set, the session's VCD, Chrome trace
    and metrics files are written there.
    """

    def __init__(
        self,
        config: NetworkConfig,
        sanitizer: HardwareSanitizer | None = None,
        session: TraceSession | None = None,
        export_dir: str | Path | None = None,
    ) -> None:
        # Assigned before super().__init__: the construction hooks below
        # (buffer factory, flow-control predicates) fan out to them.
        self.sanitizer = sanitizer
        self.session = session
        self.observers: list[Observer] = [
            observer for observer in (sanitizer, session) if observer is not None
        ]
        self._drops = 0
        super().__init__(config)
        self._export_dir = Path(export_dir) if export_dir is not None else None
        for stage, row in enumerate(self.switches):
            for index, switch in enumerate(row):
                for port, buffer in enumerate(switch.buffers):
                    for observer in self.observers:
                        observer.set_label(
                            buffer, f"stage{stage}.switch{index}.in{port}"
                        )
        for observer in self.observers:
            observer.adopt_network(self)

    # -- construction hooks ------------------------------------------------

    def _make_buffer_factory(
        self, config: NetworkConfig
    ) -> Callable[[int], SwitchBuffer]:
        plain = super()._make_buffer_factory(config)

        def observed_factory(num_outputs: int) -> SwitchBuffer:
            buffer = plain(num_outputs)
            for observer in self.observers:
                observer.adopt_buffer(buffer)
            return buffer

        return observed_factory

    def _make_blocked(self, stage: int, index: int) -> BlockedPredicate:
        base = super()._make_blocked(stage, index)
        observers = self.observers
        label = f"stage{stage}.switch{index}"
        # Last-observed blocked state per (input, output) pair: observers
        # see *transitions*, not every probe, so an output blocked for 50
        # cycles shows as one block/unblock pair.
        state: dict[tuple[int, int], bool] = {}

        def observed_blocked(
            input_port: int, output_port: int, packet: Packet
        ) -> bool:
            result = base(input_port, output_port, packet)
            key = (input_port, output_port)
            if result != state.get(key, False):
                state[key] = result
                for observer in observers:
                    observer.on_block(label, input_port, output_port, result)
            return result

        return observed_blocked

    # -- per-cycle observation ---------------------------------------------
    #
    # Packet movement is observed by diffing the plain code's own side
    # effects (stage slot counts, sink counters, meters), so the datapath
    # stays byte-for-byte the inherited implementation.

    def step(self) -> None:
        for observer in self.observers:
            observer.begin_cycle(self.cycle)
        super().step()

    def _forward(
        self, stage: int, index: int, output_port: int, packet: Packet
    ) -> None:
        slots_before = self._stage_slots[stage + 1]
        lost_before = self.meters.lost
        drops_before = self._drops
        super()._forward(stage, index, output_port, packet)
        label = f"stage{stage}.switch{index}"
        if self._stage_slots[stage + 1] != slots_before:
            for observer in self.observers:
                observer.on_link(stage, label, output_port, packet)
        elif self._drops == drops_before:
            # Neither delivered downstream nor discarded: a link fault
            # destroyed it.
            measured = self.meters.lost != lost_before
            for observer in self.observers:
                observer.on_loss(label, output_port, packet, measured)

    def _deliver(self, index: int, output_port: int, packet: Packet) -> None:
        sink = self._exit_sinks[index][output_port]
        received_before = sink.received
        delivered_before = self.meters.delivered
        lost_before = self.meters.lost
        super()._deliver(index, output_port, packet)
        stage = self._last_stage
        if sink.received != received_before:
            measured = self.meters.delivered != delivered_before
            for observer in self.observers:
                observer.on_deliver(stage, sink.port, packet, measured)
        else:
            # Destroyed on the exit link by fault injection.
            measured = self.meters.lost != lost_before
            label = f"stage{stage}.switch{index}"
            for observer in self.observers:
                observer.on_loss(label, output_port, packet, measured)

    def _count_discard(self, packet: Packet) -> None:
        discarded_before = self.meters.discarded
        super()._count_discard(packet)
        self._drops += 1
        measured = self.meters.discarded != discarded_before
        for observer in self.observers:
            observer.on_drop(packet, measured)

    # -- checkpoint composition --------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Inherited snapshot plus the session's exact metrics state.

        The extra key is ignored by a plain simulator's ``restore`` (it
        reads only the keys it knows), so observed and plain checkpoints
        stay mutually compatible.  The sanitizer holds no simulation
        state: it re-derives its slot states when the register files
        are restored.
        """
        state = super().snapshot()
        if self.session is not None:
            state["telemetry"] = self.session.metrics.snapshot_state()
        return state

    def restore(self, state: dict[str, Any]) -> None:
        super().restore(state)
        saved = state.get("telemetry")
        if saved is not None and self.session is not None:
            self.session.metrics.restore_state(saved)

    # -- runs and export ---------------------------------------------------

    def run(
        self,
        warmup_cycles: int = 2000,
        measure_cycles: int = 10000,
        checkpoint_every: int | None = None,
        checkpoint_path: str | Path | None = None,
    ) -> SimulationResult:
        result = super().run(
            warmup_cycles,
            measure_cycles,
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
        )
        if self.sanitizer is not None:
            self.sanitizer.scan()
        if self._export_dir is not None:
            self.export(self._export_dir)
        return result

    def export(self, directory: str | Path) -> list[Path]:
        """Write the session's VCD, Chrome trace and metrics files."""
        if self.session is None:
            raise ConfigurationError("export needs a trace session")
        return self.session.export(directory, self.config, self.cycle)
