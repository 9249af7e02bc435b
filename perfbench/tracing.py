"""Aggregating span recorder for the benchmark's traced pass.

The program has no spans of its own yet, so the benchmark records them
from outside: :meth:`Tracer.wrap` replaces a public method *on one live
instance* (an instance attribute shadows the class method, so the
program's own ``obj.method(...)`` calls go through the wrapper) and
times every call.

Spans nest per thread.  The outermost span on a thread is a *root*: one
simulation, one grid batch, one admission, one service job.  Every call
beneath a root is summed into that root by layer name — call count,
total seconds and self seconds (total minus the wrapped calls nested in
it) — so memory grows with the number of roots, not with the number of
calls.  A layer's self time therefore excludes every other wrapped layer
it calls, and the self times of a root's layers plus the root's own self
time add up to the root's wall time; :func:`reconcile_error` checks
that.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter
from typing import Any

#: Largest relative gap between the traced roots' self times and their
#: independently timed walls that a traced run accepts.
RECONCILE_TOLERANCE = 0.02

#: ``observe(root, args, result, error)`` adds derived counts to a root.
Observer = Callable[["Root", tuple, Any, "BaseException | None"], None]


@dataclass
class Root:
    """One root span and everything recorded beneath it."""

    name: str
    span_id: str
    tag: Any = None
    start: float = 0.0
    wall_s: float = 0.0
    self_s: float = 0.0
    #: layer name -> [calls, total seconds, self seconds].
    layers: dict[str, list[float]] = field(default_factory=dict)
    #: derived counters (grants, refusals, ...) by name.
    counts: dict[str, int] = field(default_factory=dict)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "id": self.span_id,
            "tag": self.tag,
            "wall_s": self.wall_s,
            "self_s": self.self_s,
            "layers": {
                name: {"calls": int(calls), "total_s": total, "self_s": own}
                for name, (calls, total, own) in sorted(self.layers.items())
            },
            "counts": dict(sorted(self.counts.items())),
        }


class Tracer:
    """Per-thread span stacks feeding a list of aggregated roots."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.roots: list[Root] = []
        #: The tag new roots receive (the benchmark sets the pass index).
        self.tag: Any = None

    @contextmanager
    def root(self, name: str, span_id: str) -> Iterator[Root]:
        """Open a root span on this thread around the ``with`` body."""
        local = self._local
        root = Root(name=name, span_id=span_id, tag=self.tag)
        frame = [0.0]
        local.stack = [frame]
        local.root = root
        root.start = perf_counter()
        try:
            yield root
        finally:
            root.wall_s = perf_counter() - root.start
            root.self_s = root.wall_s - frame[0]
            local.stack = None
            local.root = None
            with self._lock:
                self.roots.append(root)

    def wrap(
        self,
        obj: Any,
        attr: str,
        layer: str,
        observe: Observer | None = None,
        span_id: Callable[[tuple, Any], str] | None = None,
    ) -> None:
        """Time every call of ``obj.attr`` as a span of ``layer``.

        Called beneath an open root, the call is summed into that root.
        Called with no root open on its thread, the call becomes a root
        itself, identified by ``span_id(args, result)`` when given: once
        with ``result=None`` as the call starts, so that spans beneath it
        can read the id, and again with the result once it returns.
        """
        original = getattr(obj, attr)
        local = self._local

        def wrapped(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if not stack:
                return self._root_call(
                    layer, original, args, kwargs, observe, span_id
                )
            frame = [0.0]
            stack.append(frame)
            result = error = None
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stack[-1][0] += elapsed
                root = local.root
                entry = root.layers.get(layer)
                if entry is None:
                    entry = root.layers[layer] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[0]
                if observe is not None:
                    observe(root, args, result, error)

        setattr(obj, attr, wrapped)

    def _root_call(
        self,
        layer: str,
        original: Callable[..., Any],
        args: tuple,
        kwargs: dict[str, Any],
        observe: Observer | None,
        span_id: Callable[[tuple, Any], str] | None,
    ) -> Any:
        result = error = None
        with self.root(layer, layer) as root:
            if span_id is not None:
                root.span_id = span_id(args, None)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                if span_id is not None and error is None:
                    root.span_id = span_id(args, result)
                if observe is not None:
                    observe(root, args, result, error)
        return result

    def current(self) -> Root | None:
        """The root open on the calling thread, if any."""
        return getattr(self._local, "root", None)

    def tagged(self, tag: Any) -> list[Root]:
        with self._lock:
            return [root for root in self.roots if root.tag == tag]

    def dump(self) -> list[dict[str, Any]]:
        with self._lock:
            return [root.to_json() for root in self.roots]


def layer_totals(roots: list[Root]) -> tuple[dict[str, list[float]], dict[str, int]]:
    """Sum layers ([calls, total, self]) and counts over ``roots``."""
    layers: dict[str, list[float]] = {}
    counts: dict[str, int] = {}
    for root in roots:
        for name, (calls, total, own) in root.layers.items():
            entry = layers.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        for name, amount in root.counts.items():
            counts[name] = counts.get(name, 0) + amount
    return layers, counts


def reconcile_error(roots: list[Root], walls: list[float]) -> float:
    """How far the recorded self times miss the independently timed walls.

    ``walls`` are readings of another clock around the same root calls.
    The self times of every layer under a root plus the root's self time
    must add up to that wall; the result is the relative gap over all
    roots.

    Within one root the self times telescope to the root's own wall by
    construction, so where ``walls`` is the caller's stopwatch around
    the root (the simulation workloads) this checks only that the
    stopwatch and the spans agree: that no wrapped call escaped its root
    into a stray root of its own, and that no span was left open.  Only
    a clock outside the benchmark (the service's own ``job_seconds``)
    tests the attribution itself.
    """
    wall = sum(walls)
    if wall <= 0.0:
        return 0.0
    attributed = sum(
        root.self_s + sum(own for _calls, _total, own in root.layers.values())
        for root in roots
    )
    return abs(attributed - wall) / wall


def check_trace(
    outcome: Any,
    traced_walls: list[float],
    plain_walls: list[float],
    roots: list[Root],
    walls: list[float],
) -> None:
    """Record the tracing overhead and gate the reconciliation.

    The overhead is the median traced pass (or epoch) over the median
    untraced one, minus 1.  A reconciliation beyond
    :data:`RECONCILE_TOLERANCE` counts as a failed operation.
    """
    outcome.set(
        "trace.overhead_frac",
        "frac",
        median(traced_walls) / median(plain_walls) - 1.0,
    )
    error = reconcile_error(roots, walls)
    outcome.set("trace.reconcile_err", "frac", error)
    outcome.notes["reconcile_tolerance"] = RECONCILE_TOLERANCE
    outcome.attempted += 1
    if error > RECONCILE_TOLERANCE:
        outcome.fail(
            f"traced self times miss the independently timed walls by "
            f"{error:.4f} (tolerance {RECONCILE_TOLERANCE})"
        )
