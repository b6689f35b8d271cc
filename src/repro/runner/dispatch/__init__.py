"""Fault-tolerant multi-host sweep dispatch.

This package is the fleet half of the sweep-scaling story: a
:class:`~repro.runner.dispatch.backend.DispatchBackend` implementing the
:class:`~repro.runner.backends.base.SweepBackend` protocol that shards
sweep points across N worker *processes* speaking a length-prefixed
JSON frame protocol over sockets (:mod:`~repro.runner.dispatch.frames`).
Workers are launched locally for tests and CI; a host-list config with a
spawn-command template (:mod:`~repro.runner.dispatch.hosts`) keeps the
same seam open for real SSH fleets — only ``experiment_id`` and pickled
params/points cross the wire, exactly the boundary contract the process
backends already honor.

Robustness is the headline, mirroring how T-RACKs argues for recovery
that tolerates loss without global coordination — recover locally,
never stall the fleet on one sick participant:

* **Leases with heartbeat expiry** — every assigned point is a lease
  with a deadline; a worker that stops heartbeating (silent death,
  ``SIGSTOP``, network partition) forfeits the lease and the point is
  re-enqueued on another worker.
* **Error-classified retry** (:mod:`~repro.runner.dispatch.retry`) —
  a shared :class:`RetryPolicy` with exponential backoff, deterministic
  seeded jitter, a delay cap, and an attempt budget classifies failures
  into *transient* (worker crash, lease expiry, connection reset →
  retry on another worker), *timeout* (speculative duplicate execution,
  earliest-submission-wins), and *deterministic* (same exception from
  two distinct workers → quarantine).
* **Quarantine** — a deterministically failing point is recorded in a
  ``quarantine.jsonl`` sidecar with both tracebacks and the sweep keeps
  going; one poisoned point never stalls the fleet.
* **Per-host circuit breakers** (:mod:`~repro.runner.dispatch.breaker`)
  — K consecutive failures drain a host; after a cooldown a half-open
  probe decides whether it rejoins.
* **Crash-safe merge/resume** — results flow through the ordinary
  ``repro-sweep-journal/1`` checkpoint, so a dispatch run killed with
  ``kill -9`` resumes under ``--backend serial`` (and vice versa)
  byte-identically; the chaos harness
  (:mod:`~repro.runner.dispatch.chaos`) proves it in CI.

Importing this package stays light: :mod:`repro.runner` re-exports the
retry policy and its exceptions from here, so the socket machinery in
:mod:`~repro.runner.dispatch.backend` and
:mod:`~repro.runner.dispatch.frames` is imported only by
``create_backend("dispatch")`` (or an explicit import of those
modules).
"""

from repro.runner.dispatch.breaker import CircuitBreaker
from repro.runner.dispatch.hosts import HostSpec, default_hosts, parse_hosts
from repro.runner.dispatch.retry import (
    DETERMINISTIC,
    TIMEOUT,
    TRANSIENT,
    BackoffSchedule,
    DispatchError,
    LeaseExpired,
    QuarantinedPoint,
    RetryPolicy,
    WorkerLost,
    classify_failure,
)

__all__ = [
    "DETERMINISTIC",
    "TIMEOUT",
    "TRANSIENT",
    "BackoffSchedule",
    "CircuitBreaker",
    "DispatchError",
    "HostSpec",
    "LeaseExpired",
    "QuarantinedPoint",
    "RetryPolicy",
    "WorkerLost",
    "classify_failure",
    "default_hosts",
    "parse_hosts",
]
