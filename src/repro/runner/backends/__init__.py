"""Pluggable execution backends for :class:`~repro.runner.engine.SweepRunner`.

Four first-class implementations ship with the runner:

============ =================================================================
``serial``    in-process, zero overhead, no registry requirement — the
              debugging default under ``--jobs 1``
``process``   :class:`~concurrent.futures.ProcessPoolExecutor` fan-out with
              pickle result transport — the parallel default
``shm``       process pool whose bulk result payloads travel through
              ``multiprocessing.shared_memory`` segments instead of the
              pickle pipe — for trace-heavy sweeps
``dispatch``  fault-tolerant multi-host fleet over a socket frame
              protocol: worker leases, error-classified retry,
              quarantine, per-host circuit breakers
              (:mod:`repro.runner.dispatch`)
============ =================================================================

All backends honor the same determinism contract: byte-identical
merged payloads for any backend and any ``--jobs``.  See
:class:`~repro.runner.backends.base.SweepBackend` for the protocol and
CONTRIBUTING.md for how to implement one.

``dispatch`` is registered lazily: naming it in :func:`create_backend`
(or ``--backend dispatch``) imports the fleet machinery on demand, so
single-process sweeps never pay for sockets and subprocess plumbing —
and the import graph stays acyclic (the dispatch package itself builds
on :mod:`repro.runner.backends.base`).
"""

from repro.runner.backends.base import (
    PointSpec,
    SweepBackend,
    execute_point,
    resolve_experiment,
)
from repro.runner.backends.pool import ProcessPoolBackend
from repro.runner.backends.serial import SerialBackend
from repro.runner.backends.shm import SharedMemoryBackend

__all__ = [
    "BACKENDS",
    "LAZY_BACKENDS",
    "PointSpec",
    "ProcessPoolBackend",
    "SerialBackend",
    "SharedMemoryBackend",
    "SweepBackend",
    "create_backend",
    "execute_point",
    "resolve_experiment",
]

#: name -> class, the CLI's ``--backend`` choices.
BACKENDS: dict[str, type[SweepBackend]] = {
    SerialBackend.name: SerialBackend,
    ProcessPoolBackend.name: ProcessPoolBackend,
    SharedMemoryBackend.name: SharedMemoryBackend,
}

#: backends resolved by import on first use (see module docstring).
LAZY_BACKENDS: tuple[str, ...] = ("dispatch",)


def create_backend(name: str, **kwargs: object) -> SweepBackend:
    """Instantiate a named backend (``serial``/``process``/``shm``/``dispatch``)."""
    if name in LAZY_BACKENDS:
        from repro.runner.dispatch.backend import DispatchBackend

        return DispatchBackend(**kwargs)  # type: ignore[arg-type]
    try:
        cls = BACKENDS[name]
    except KeyError:
        known = ", ".join(sorted((*BACKENDS, *LAZY_BACKENDS)))
        raise ValueError(f"unknown sweep backend {name!r} (known: {known})") from None
    return cls(**kwargs)  # type: ignore[arg-type]
