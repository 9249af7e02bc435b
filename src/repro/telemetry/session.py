"""The trace session: one run's telemetry observer.

A :class:`TraceSession` holds the bounded event ring, the metrics
registry and the current network-cycle stamp.  It is an
:class:`~repro.observed.Observer`: its ``adopt_*`` methods attach it to
live components through the shared observed layer
(:mod:`repro.observed`), whose zero-overhead ``__class__`` adoption the
hardware sanitizer uses too.  With telemetry off the plain classes are
constructed directly — the hot path carries zero instrumentation
branches.

The session only *observes*: it draws nothing from any RNG and never
changes model behaviour, so traced runs are bit-identical to plain
ones (pinned by ``tests/integration/test_determinism_regression.py``).

Events and metrics recorded here:

* buffers of every registered kind (``push``/``pop`` → enqueue/dequeue
  events, per-buffer counters, occupancy histograms);
* :class:`~repro.core.linkedlist.SlotListManager` (slot alloc/free/retire
  events and retire counters);
* every scheduling discipline (``arbitrate`` → grant/deny events and
  per-input fairness counters);
* the ComCoBB chip's input/output port FSMs (packet completion →
  link-transfer events and per-port counters);
* the Omega network's links (:class:`~repro.observed.
  ObservedOmegaNetworkSimulator` → link transfers, delivery/loss/discard
  accounting, flow-control block transitions).

The network-level counters reconcile exactly with the simulator's
meters: ``packets_delivered_measured`` equals ``meters.delivered``,
``packets_lost_measured`` equals ``meters.lost``, and
``packets_delivered_total`` equals the sum of every sink's ``received``
counter (warm-up deliveries included).
"""

from __future__ import annotations

import json
import os
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.buffer import SwitchBuffer
from repro.core.damq import DamqBuffer
from repro.core.linkedlist import SlotListManager
from repro.core.packet import Packet
from repro.observed import (
    ObservedBuffer,
    ObservedScheduler,
    ObservedSlotListManager,
    Observer,
    observe,
)
from repro.switch.scheduler import Grant, Scheduler
from repro.telemetry.chrome import write_chrome_trace
from repro.telemetry.events import DEFAULT_RING_CAPACITY, EventRing, TraceEvent
from repro.telemetry.metrics import (
    METRICS_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.vcd import write_vcd

if TYPE_CHECKING:
    from repro.chip.comcobb import ComCoBBChip
    from repro.chip.input_port import InputPort
    from repro.chip.output_port import OutputPort
    from repro.network.simulator import NetworkConfig, OmegaNetworkSimulator

__all__ = [
    "METRICS_ENV",
    "TRACE_ENV",
    "TraceSession",
    "config_tag",
    "metrics_directory",
    "telemetry_enabled",
    "trace_directory",
]

#: Environment variable enabling full tracing (events + metrics + file
#: export).  The value is the export directory; ``""``/``"0"`` disable,
#: ``"1"`` enables without file export (in-process inspection only).
TRACE_ENV = "REPRO_TRACE"

#: Environment variable enabling metrics-only mode (no event retention).
#: Same value convention as :data:`TRACE_ENV`; ignored when full tracing
#: is also requested.
METRICS_ENV = "REPRO_METRICS"

#: The per-buffer metrics, as ``(type, name)`` pairs.
_BUFFER_METRICS = (
    ("counter", "buffer_enqueues_total"),
    ("counter", "buffer_dequeues_total"),
    ("histogram", "buffer_occupancy"),
    ("gauge", "buffer_free_slots"),
)


def _directory_from(variable: str, env: str | None) -> str | None:
    """Decode a dir-valued env switch: off, on-without-export, or a dir."""
    value = os.environ.get(variable, "") if env is None else env
    if value in ("", "0"):
        return None
    return "" if value == "1" else value


def trace_directory(env: str | None = None) -> str | None:
    """Export dir from ``REPRO_TRACE`` (``""`` = on, no export; ``None`` = off)."""
    return _directory_from(TRACE_ENV, env)


def metrics_directory(env: str | None = None) -> str | None:
    """Export dir from ``REPRO_METRICS`` (same convention)."""
    return _directory_from(METRICS_ENV, env)


def telemetry_enabled() -> bool:
    """Whether ``REPRO_TRACE`` or ``REPRO_METRICS`` asks for telemetry."""
    return trace_directory() is not None or metrics_directory() is not None


def config_tag(config: NetworkConfig) -> str:
    """Deterministic file-name stem identifying one config's exports."""
    load = f"{config.offered_load:g}".replace(".", "p")
    return (
        f"{config.buffer_kind.lower()}_{config.protocol}"
        f"_{config.traffic_kind}_n{config.num_ports}_r{config.radix}"
        f"_s{config.slots_per_buffer}_load{load}_seed{config.seed}"
    )


@dataclass
class _BufferMetrics:
    label: str
    enqueues: Counter
    dequeues: Counter
    occupancy: Histogram
    free: Gauge


@dataclass
class _SlotMetrics:
    label: str
    retires: Counter


@dataclass
class _ArbiterMetrics:
    label: str
    grants: list[Counter]
    denies: list[Counter]


class TraceSession(Observer):
    """One run's telemetry sink: event ring + metrics + cycle stamp.

    ``capacity=0`` puts the session in metrics-only mode: every emission
    is counted but none retained, so the waveform exporters have nothing
    to write while the counters stay complete.
    """

    # Network counters, bound by adopt_network.
    _blocks: dict[str, Counter]
    _links: list[Counter]
    _delivered: tuple[Counter, Counter]
    _lost: tuple[Counter, Counter]
    _discarded: tuple[Counter, Counter]

    def __init__(
        self,
        capacity: int = DEFAULT_RING_CAPACITY,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.ring = EventRing(capacity)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._buffers: dict[SwitchBuffer, _BufferMetrics] = {}
        self._managers: dict[SlotListManager, _SlotMetrics] = {}
        self._arbiters: dict[Scheduler, _ArbiterMetrics] = {}
        self._ports: dict[InputPort | OutputPort, Counter] = {}

    def emit(
        self, kind: str, component: str, port: int, value: int, extra: int = 0
    ) -> None:
        """Append one cycle-stamped event to the ring."""
        self.ring.append(
            TraceEvent(self.cycle, kind, component, port, value, extra)
        )

    # -- component adoption ------------------------------------------------

    def adopt_buffer(
        self, buffer: SwitchBuffer, label: str | None = None
    ) -> SwitchBuffer:
        """Trace a buffer's enqueues and dequeues.

        The buffer joins the observed layer in place (its live state is
        kept).  DAMQ buffers additionally get their slot manager adopted,
        so slot alloc/free/retire events carry the same label.
        """
        if observe(buffer, self, ObservedBuffer, "trace buffer"):
            name = label or f"buffer{len(self._buffers)}"
            self._buffers[buffer] = self._buffer_metrics(name)
            if isinstance(buffer, DamqBuffer):
                self.adopt_slot_manager(buffer._lists, name)
        return buffer

    def _buffer_metrics(self, label: str) -> _BufferMetrics:
        return _BufferMetrics(
            label,
            self.metrics.counter("buffer_enqueues_total", buffer=label),
            self.metrics.counter("buffer_dequeues_total", buffer=label),
            self.metrics.histogram("buffer_occupancy", buffer=label),
            self.metrics.gauge("buffer_free_slots", buffer=label),
        )

    def set_label(self, buffer: SwitchBuffer, label: str) -> None:
        """Relabel a buffer (and its slot manager) for reports.

        Only valid before the buffer has seen traffic: the zero-valued
        metrics registered under the placeholder label are dropped and
        re-created under the new one, keeping the registry free of
        stale construction-time entries.
        """
        old = self._buffers[buffer].label
        for type_name, name in _BUFFER_METRICS:
            self.metrics.drop(type_name, name, buffer=old)
        self._buffers[buffer] = self._buffer_metrics(label)
        if isinstance(buffer, DamqBuffer):
            self.adopt_slot_manager(buffer._lists, label)

    def adopt_slot_manager(
        self, manager: SlotListManager, label: str
    ) -> SlotListManager:
        """Trace a slot manager (e.g. the chip model's).

        Adopting an already adopted manager relabels it, dropping the
        counter registered under the old label.
        """
        if observe(manager, self, ObservedSlotListManager, "trace slot manager"):
            self._managers[manager] = _SlotMetrics(
                label, self.metrics.counter("slot_retires_total", buffer=label)
            )
            return manager
        record = self._managers[manager]
        if label != record.label:
            self.metrics.drop("counter", "slot_retires_total", buffer=record.label)
            record.label = label
            record.retires = self.metrics.counter("slot_retires_total", buffer=label)
        return manager

    def adopt_arbiter(self, arbiter: Scheduler, label: str) -> Scheduler:
        """Trace a scheduler's grants and denies.

        Works for the paper's :class:`~repro.switch.arbiter.CrossbarArbiter`
        and for every scheduling discipline in the architecture zoo;
        adopting it again is a no-op.
        """
        if observe(arbiter, self, ObservedScheduler, "trace arbiter"):
            self._arbiters[arbiter] = _ArbiterMetrics(
                label,
                [
                    self.metrics.counter("arbiter_grants_total", switch=label, input=i)
                    for i in range(arbiter.num_inputs)
                ],
                [
                    self.metrics.counter("arbiter_denies_total", switch=label, input=i)
                    for i in range(arbiter.num_inputs)
                ],
            )
        return arbiter

    def adopt_chip(self, chip: ComCoBBChip) -> ComCoBBChip:
        """Instrument a ComCoBB chip: slot managers and both port FSMs.

        The chip drives its own clock (its phase methods receive the
        cycle), so port events stamp the session's cycle themselves
        rather than relying on a simulator calling :meth:`begin_cycle`.
        """
        from repro.chip.observed import ObservedInputPort, ObservedOutputPort

        for port, buffer in enumerate(chip.buffers):
            self.adopt_slot_manager(buffer.lists, f"{chip.name}.in{port}")
        for input_port in chip.input_ports:
            if observe(input_port, self, ObservedInputPort, "trace input port"):
                self._ports[input_port] = self.metrics.counter(
                    "chip_packets_received_total", port=input_port.name
                )
        for output_port in chip.output_ports:
            if observe(output_port, self, ObservedOutputPort, "trace output port"):
                self._ports[output_port] = self.metrics.counter(
                    "chip_packets_sent_total", port=output_port.name
                )
        return chip

    def adopt_network(self, simulator: OmegaNetworkSimulator) -> None:
        """Trace every arbiter and link of an observed Omega network."""
        metrics = self.metrics
        self._blocks = {}
        for stage, row in enumerate(simulator.switches):
            for index, switch in enumerate(row):
                label = f"stage{stage}.switch{index}"
                self.adopt_arbiter(switch.arbiter, label)
                self._blocks[label] = metrics.counter(
                    "flow_control_blocks_total", switch=label
                )
        self._links = [
            metrics.counter("link_transfers_total", stage=stage)
            for stage in range(len(simulator.switches))
        ]
        self._delivered = _pair(metrics, "delivered")
        self._lost = _pair(metrics, "lost")
        self._discarded = _pair(metrics, "discarded")

    # -- component events --------------------------------------------------

    def on_allocate(self, manager: SlotListManager, list_id: int, slot: int) -> None:
        label = self._managers[manager].label
        self.emit("alloc", label, list_id, slot, manager.free_count)

    def on_free(self, manager: SlotListManager, slot: int) -> None:
        self.emit("free", self._managers[manager].label, -1, slot, manager.free_count)

    def on_retire(self, manager: SlotListManager, slot: int) -> None:
        record = self._managers[manager]
        record.retires.inc()
        self.emit("retire", record.label, -1, slot, manager.free_count)

    def on_push(self, buffer: SwitchBuffer, packet: Packet, destination: int) -> None:
        record = self._buffers[buffer]
        record.enqueues.value += 1
        occupancy = buffer.occupancy
        record.occupancy.stats.add(occupancy)
        free = buffer.effective_capacity - occupancy
        record.free.set(free)
        self.emit(
            "enqueue", record.label, destination, buffer.queue_length(destination), free
        )

    def on_pop(self, buffer: SwitchBuffer, packet: Packet, destination: int) -> None:
        record = self._buffers[buffer]
        record.dequeues.value += 1
        free = buffer.effective_capacity - buffer.occupancy
        record.free.set(free)
        self.emit(
            "dequeue", record.label, destination, buffer.queue_length(destination), free
        )

    def on_arbitrate(
        self, scheduler: Scheduler, rows: Sequence[list[int]], grants: list[Grant]
    ) -> None:
        """Record grants, and a *deny* for every waiting input left unserved.

        A deny is the quantity the paper's fairness discussion reasons
        about: an input holding at least one buffered packet this cycle
        that received no grant.
        """
        record = self._arbiters[scheduler]
        served = [False] * scheduler.num_inputs
        for grant in grants:
            served[grant.input_port] = True
            record.grants[grant.input_port].value += 1
            self.emit(
                "grant", record.label, grant.input_port, grant.output_port,
                grant.packet.size,
            )
        for input_port, row in enumerate(rows):
            if served[input_port]:
                continue
            longest = max(row)
            if longest > 0:
                record.denies[input_port].value += 1
                self.emit("deny", record.label, input_port, longest)

    def on_receive(self, port: InputPort, cycle: int, count: int) -> None:
        self.cycle = cycle
        self._ports[port].value += count
        self.emit("link", port.name, port.port_id, count)

    def on_send(self, port: OutputPort, cycle: int) -> None:
        self.cycle = cycle
        self._ports[port].value += 1
        self.emit("link", port.name, port.port_id, 1)

    # -- network events ----------------------------------------------------

    def on_block(
        self, label: str, input_port: int, output_port: int, blocked: bool
    ) -> None:
        if blocked:
            self._blocks[label].value += 1
        self.emit(
            "block" if blocked else "unblock",
            f"{label}.in{input_port}",
            output_port,
            int(blocked),
        )

    def on_link(self, stage: int, label: str, output_port: int, packet: Packet) -> None:
        self._links[stage].value += 1
        self.emit("link", label, output_port, packet.size, packet.packet_id)

    def on_loss(
        self, label: str, output_port: int, packet: Packet, measured: bool
    ) -> None:
        _tally(self._lost, measured)
        self.emit("loss", label, output_port, packet.size, packet.packet_id)

    def on_deliver(self, stage: int, port: int, packet: Packet, measured: bool) -> None:
        self._links[stage].value += 1
        _tally(self._delivered, measured)
        self.emit("deliver", "network", port, packet.size, packet.packet_id)

    def on_drop(self, packet: Packet, measured: bool) -> None:
        _tally(self._discarded, measured)
        self.emit("drop", "network", -1, packet.size, packet.packet_id)

    # -- export --------------------------------------------------------------

    def export(
        self, directory: str | Path, config: NetworkConfig, cycles: int
    ) -> list[Path]:
        """Write the VCD, Chrome trace and metrics files of one run.

        File names derive deterministically from the config
        (:func:`config_tag`); re-exporting the same run overwrites the
        same files.  In metrics-only mode (ring capacity 0) only the
        metrics document is written.
        """
        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        tag = config_tag(config)
        written: list[Path] = []
        events = self.ring.events()
        if self.ring.capacity > 0:
            written.append(
                write_vcd(
                    events,
                    target / f"{tag}.vcd",
                    cycle_clocks=config.cycle_clocks,
                )
            )
            written.append(
                write_chrome_trace(
                    events,
                    target / f"{tag}.trace.json",
                    cycle_clocks=config.cycle_clocks,
                )
            )
        document = {
            "format": METRICS_VERSION,
            "tag": tag,
            "config": config.to_state(),
            "cycles": cycles,
            "events_emitted": self.ring.emitted,
            "events_dropped": self.ring.dropped,
            "metrics": self.metrics.snapshot_state(),
        }
        metrics_path = target / f"{tag}.metrics.json"
        scratch = metrics_path.with_name(
            f"{metrics_path.name}.tmp{os.getpid()}"
        )
        scratch.write_text(json.dumps(document))
        os.replace(scratch, metrics_path)
        written.append(metrics_path)
        return written


def _pair(metrics: MetricsRegistry, name: str) -> tuple[Counter, Counter]:
    """The (total, measured-window) counters of one packet fate."""
    return (
        metrics.counter(f"packets_{name}_total"),
        metrics.counter(f"packets_{name}_measured"),
    )


def _tally(pair: tuple[Counter, Counter], measured: bool) -> None:
    """Count one packet in a (total, measured-window) counter pair."""
    pair[0].value += 1
    if measured:
        pair[1].value += 1
