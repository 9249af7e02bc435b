"""Service-tuned client retry and backpressure schedules.

The delays the service hands to its clients, derived from the shared
:class:`repro.utils.backoff.BackoffPolicy` (the same machinery
:mod:`repro.faults.transport` uses for link-level retransmits and
:mod:`repro.perf.supervisor` for worker-task retries — one backoff idiom
across the repo, tuned per layer):

* :data:`CLIENT_RETRY` — what a well-behaved client should do between
  attempts after a 429/503; the bench client follows it.
* :func:`retry_after` — the ``Retry-After`` value the server attaches to
  a rejection, scaled by how deep the admission queue already is.
"""

from __future__ import annotations

from repro.utils.backoff import BackoffPolicy

__all__ = ["CLIENT_RETRY", "retry_after"]

#: Client-side schedule after a 429/503: 0.2 s base, ×2, capped at 3.2 s,
#: up to 6 attempts.  Jitter here desynchronizes *clients*, the one place
#: where everyone backing off identically would defeat the purpose.
CLIENT_RETRY = BackoffPolicy(
    base=0.2, factor=2.0, cap_multiple=16.0, max_attempts=6, jitter=0.5
)

#: Base Retry-After of an admission rejection, seconds.
_ADMISSION_BASE = 0.5


def retry_after(queue_depth: int, queue_limit: int) -> float:
    """Retry-After (seconds) for a 429, scaled by queue pressure.

    An empty-ish queue suggests a transient spike (come back soon); a
    queue at its limit means sustained overload (back off harder).  The
    value is deterministic — per-client jitter is the client's job
    (:data:`CLIENT_RETRY`), not the server's.
    """
    if queue_limit <= 0:
        return _ADMISSION_BASE
    pressure = min(1.0, max(0.0, queue_depth / queue_limit))
    return round(_ADMISSION_BASE * (1.0 + 3.0 * pressure), 3)
