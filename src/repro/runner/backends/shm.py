"""Process pool with shared-memory result transport.

The pickle pipe between a pool worker and the parent copies every
result several times: worker-side pickle, chunked writes into the
result pipe, the parent's reader thread reassembling them, and a final
unpickle.  For the small dataclass payloads most figures return that is
noise; for trace-heavy payloads (``repro.obs`` captures, raw per-point
series, megabyte result blobs) the pipe dominates the sweep's wall
clock.

:class:`SharedMemoryBackend` keeps the pool but moves the bulk bytes
out of band: the worker pickles its result once, and when the blob
exceeds ``threshold_bytes`` it lands in a
:class:`multiprocessing.shared_memory.SharedMemory` segment — one
``memcpy`` in, and the parent unpickles straight out of the mapped
buffer, then unlinks the segment.  Only a tiny ``_ShmHandle`` crosses
the pipe.  Results are byte-identical to every other backend; the only
difference is how the bytes travel.

Caveats (documented in EXPERIMENTS.md):

* segments live in ``/dev/shm`` — a sweep needs transient headroom of
  roughly ``jobs`` × the largest point payload;
* if shared-memory creation fails (``/dev/shm`` full, exotic
  platforms) the worker silently falls back to the pickle pipe for
  that point — correctness never depends on the fast path;
* a sweep killed with ``SIGKILL`` can strand segments from points that
  completed but were never collected; they are small, vanish on
  reboot, and a ``--resume`` does not need them.
"""

from __future__ import annotations

import concurrent.futures
import pickle
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Callable

from repro.runner.backends.base import PointSpec, _timed_execute, resolve_experiment
from repro.runner.backends.pool import ProcessPoolBackend

__all__ = ["SharedMemoryBackend"]

#: payloads whose pickle is smaller than this ride the ordinary result
#: pipe; the shm segment + syscall overhead only pays off for bulk.
DEFAULT_THRESHOLD_BYTES = 256 * 1024


@dataclass
class _ShmHandle:
    """What crosses the pipe instead of the payload: a segment address."""

    name: str
    size: int


@dataclass
class _PipeFallback:
    """A bulk payload that *should* have traveled via shm but could not.

    Wraps the value for the trip through the ordinary pickle pipe so
    the parent can tell an intentional small-payload pipe ride from a
    degraded one and count the latter (:attr:`SharedMemoryBackend.fallbacks`)
    — the fallback is silent for correctness but must not be invisible
    to operators benchmarking the fast path.
    """

    value: Any


def _untrack(tracker_name: str) -> None:
    """Detach a segment from the worker's resource tracker.

    The parent owns the segment from the moment the handle is returned
    (it attaches, reads, and unlinks).  Without this, the fork-shared
    resource tracker would see the worker's registration outlive the
    parent's unlink and complain about — or double-unlink — a segment
    that was cleaned up correctly.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(tracker_name, "shared_memory")
    except Exception:  # pragma: no cover - tracker API drift is non-fatal
        pass


def _shm_worker(
    experiment_id: str,
    params: Any,
    point: Any,
    seed: int,
    threshold_bytes: int,
) -> tuple[float, Any]:
    """Run one point; export bulk results through a shm segment."""
    experiment = resolve_experiment(experiment_id)
    seconds, value = _timed_execute(experiment, params, point, seed)
    blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    if len(blob) < threshold_bytes:
        return seconds, value
    try:
        segment = shared_memory.SharedMemory(create=True, size=len(blob))
    except OSError:
        # /dev/shm unavailable or full: the pickle pipe still works.
        # The wrapper lets the parent count the degradation.
        return seconds, _PipeFallback(value)
    segment.buf[: len(blob)] = blob
    _untrack(segment._name)  # type: ignore[attr-defined]
    handle = _ShmHandle(segment.name, len(blob))
    segment.close()
    return seconds, handle


def _decode(outcome: tuple[float, Any]) -> tuple[tuple[float, Any], bool]:
    """Rehydrate a worker outcome, consuming its shm segment if any.

    Returns ``(outcome, fell_back)`` — the second element is True when
    the worker wanted a segment but had to ride the pipe.
    """
    seconds, value = outcome
    if isinstance(value, _PipeFallback):
        return (seconds, value.value), True
    if not isinstance(value, _ShmHandle):
        return outcome, False
    segment = shared_memory.SharedMemory(name=value.name)
    try:
        decoded = pickle.loads(segment.buf[: value.size])
    finally:
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - double-consume race
            pass
    return (seconds, decoded), False


class _ShmFuture(concurrent.futures.Future):
    """A future that rehydrates shm handles before exposing the result.

    Wraps the pool's inner future; the transfer callback runs as soon
    as the worker outcome lands, so by the time the runner's ``drain``
    sees this future as done, the payload is already decoded and the
    segment released.  Decoding happens even for futures the runner has
    cancelled or will discard as straggler duplicates — consuming the
    segment is what prevents leaks.
    """

    def __init__(
        self,
        inner: concurrent.futures.Future,
        on_fallback: "Callable[[], None] | None" = None,
    ) -> None:
        super().__init__()
        self._inner = inner
        self._on_fallback = on_fallback
        inner.add_done_callback(self._transfer)

    def cancel(self) -> bool:
        self._inner.cancel()
        return super().cancel()

    def _transfer(self, inner: concurrent.futures.Future) -> None:
        if inner.cancelled():
            super().cancel()
            return
        exc = inner.exception()
        if exc is None:
            try:
                outcome, fell_back = _decode(inner.result())
            except BaseException as decode_exc:  # noqa: BLE001
                exc = decode_exc
            else:
                if fell_back and self._on_fallback is not None:
                    self._on_fallback()
                if not self.cancelled():
                    self.set_result(outcome)
                return
        if not self.cancelled():
            self.set_exception(exc)


class SharedMemoryBackend(ProcessPoolBackend):
    """Process pool whose bulk result bytes bypass the pickle pipe."""

    name = "shm"

    def __init__(
        self,
        threshold_bytes: int = DEFAULT_THRESHOLD_BYTES,
        mp_context: Any = None,
    ) -> None:
        super().__init__(mp_context=mp_context)
        if threshold_bytes < 0:
            raise ValueError("threshold_bytes must be >= 0")
        self.threshold_bytes = int(threshold_bytes)
        #: bulk payloads that degraded to the pickle pipe because a
        #: segment could not be created (/dev/shm full or unavailable).
        self.fallbacks = 0

    def _note_fallback(self) -> None:
        self.fallbacks += 1

    def submit(
        self, spec: PointSpec
    ) -> "concurrent.futures.Future[tuple[float, Any]]":
        if self._pool is None:
            raise RuntimeError(f"{self.name} backend is not open")
        inner = self._pool.submit(
            _shm_worker,
            spec.experiment_id,
            spec.params,
            spec.point,
            spec.seed,
            self.threshold_bytes,
        )
        return _ShmFuture(inner, self._note_fallback)
