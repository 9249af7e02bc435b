"""Observed subclasses of the ComCoBB chip's port FSMs.

The chip counterpart of :mod:`repro.observed`, kept apart so that only
a chip adoption loads the chip package.  The receive FSM increments
``packets_received`` deep inside its state handlers; rather than
shadowing those, the observed input port diffs the counter around
``sample``, the single per-cycle entry point.  The send FSM completes
exactly one packet per ``_disconnect``.
"""

from __future__ import annotations

from repro.chip.input_port import InputPort
from repro.chip.output_port import OutputPort
from repro.observed import Observer

__all__ = ["ObservedInputPort", "ObservedOutputPort"]


class ObservedInputPort(InputPort):
    """Input port reporting completed packet arrivals."""

    _observers: list[Observer]

    def sample(self, cycle: int) -> None:
        before = self.packets_received
        super().sample(cycle)
        arrived = self.packets_received - before
        if arrived:
            for observer in self._observers:
                observer.on_receive(self, cycle, arrived)


class ObservedOutputPort(OutputPort):
    """Output port reporting completed transmissions."""

    _observers: list[Observer]

    def _disconnect(self, cycle: int) -> None:
        super()._disconnect(cycle)
        for observer in self._observers:
            observer.on_send(self, cycle)
