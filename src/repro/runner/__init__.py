"""Parallel sweep execution for experiments.

The runner fans the independent points of an :class:`~repro.experiments.base.Experiment`
out to a pluggable execution backend, with:

* deterministic per-point seeds (results are identical for any worker
  count and any backend — see :func:`repro.sim.randomness.derive_seed`);
* first-class backends (:mod:`repro.runner.backends`): ``serial``
  (inline, the ``jobs=1`` default), ``process``
  (:class:`~concurrent.futures.ProcessPoolExecutor` fan-out), and
  ``shm`` (process pool whose bulk result payloads travel through
  shared memory instead of the pickle pipe);
* cost-aware scheduling: the cache's :class:`~repro.runner.cache.CostModel`
  remembers per-point runtimes and the runner submits predicted-longest
  points first, shrinking pool makespan without changing results;
* a content-addressed on-disk result cache keyed on package version,
  experiment id, params, point, and seed, so re-runs of unchanged
  points are free;
* per-point timeout and retry with graceful degradation to a partial
  result set, governed by a shared
  :class:`~repro.runner.dispatch.retry.RetryPolicy` that classifies
  failures (transient / timeout / deterministic) and backs off with
  deterministic seeded jitter;
* a fault-tolerant multi-host backend (``dispatch``,
  :mod:`repro.runner.dispatch`): socket workers with heartbeat leases,
  error-classified retry, per-host circuit breakers, speculative
  re-execution of stragglers, and quarantine of deterministically
  failing points;
* crash-safe checkpointing: an append-only, fsynced JSONL journal of
  completed points (:class:`~repro.runner.checkpoint.SweepCheckpoint`)
  that ``resume=True`` replays after a crash or Ctrl-C — under any
  backend, not just the one that wrote it;
* a progress/ETA reporter.

Typical use::

    from repro.experiments import registry
    from repro.runner import ResultCache, SweepRunner

    experiment = registry.get("fig8")
    params = experiment.make_params("quick", "trim")
    runner = SweepRunner(jobs=4, cache=ResultCache("~/.cache/repro-experiments"),
                         backend="shm")
    payload = runner.run(experiment, params, seed=1)
"""

from repro.runner.backends import (
    PointSpec,
    ProcessPoolBackend,
    SerialBackend,
    SharedMemoryBackend,
    SweepBackend,
    create_backend,
)
from repro.runner.cache import CostModel, ResultCache
from repro.runner.checkpoint import SweepCheckpoint

# Light imports by design: the exceptions and policy live in
# repro.runner.dispatch.retry, which pulls no sockets or subprocesses.
# The DispatchBackend itself is loaded lazily via create_backend.
from repro.runner.dispatch.retry import (
    DispatchError,
    QuarantinedPoint,
    RetryPolicy,
    WorkerLost,
)
from repro.runner.engine import (
    PointFailure,
    SweepInterrupted,
    SweepRunner,
    SweepStats,
)
from repro.runner.progress import ProgressReporter

__all__ = [
    "CostModel",
    "DispatchError",
    "PointFailure",
    "PointSpec",
    "ProcessPoolBackend",
    "ProgressReporter",
    "QuarantinedPoint",
    "ResultCache",
    "RetryPolicy",
    "SerialBackend",
    "SharedMemoryBackend",
    "SweepBackend",
    "SweepCheckpoint",
    "SweepInterrupted",
    "SweepRunner",
    "SweepStats",
    "WorkerLost",
    "create_backend",
]
