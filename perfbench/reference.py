"""The fixed yardstick every host-time metric is normalized against.

Raw CPU time on a shared host drifts by tens of percent over tens of
seconds as neighbours come and go, but it does not jump between two
adjacent few-millisecond intervals.  So each measured interval is
bracketed by this loop — heap pushes and pops, dict stores and
``__slots__`` allocations, the same kinds of work the simulator does —
and divided by the loop's bracketing time, then scaled by
:data:`NOMINAL_S`.  The result reads as "CPU seconds on a host where the
loop takes exactly ``NOMINAL_S``".

This module imports only the standard library and must never import
``repro``: a program speed-up that also sped up the yardstick would
cancel itself out.  :data:`PINNED_SHA256` fixes the loop's definition;
``run.py`` refuses to run when the loop no longer matches it.
"""

from __future__ import annotations

import hashlib
import heapq
import inspect
import time

#: nominal duration of one loop, in seconds.
NOMINAL_S = 0.005
#: iterations of the loop body per measurement.
ITERATIONS = 4500
#: sha256 of the loop's source, ``ITERATIONS`` and ``NOMINAL_S``.
PINNED_SHA256 = "c95fc788edbd95f10bcafefe8981fdc9b39107395e465ea14daf1858a436d988"


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def _loop(iterations: int) -> int:
    heap: list[tuple[int, int]] = []
    table: dict[int, _Cell] = {}
    x = 12345
    for i in range(iterations):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x, i))
        table[x & 1023] = _Cell(i, x)
        if len(heap) > 64:
            heapq.heappop(heap)
    return len(table) + len(heap)


def measure() -> float:
    """CPU seconds one run of the loop takes right now."""
    start = time.process_time()
    _loop(ITERATIONS)
    return time.process_time() - start


def definition_sha256() -> str:
    """Hash of what the loop does, to compare with :data:`PINNED_SHA256`."""
    text = inspect.getsource(_Cell) + inspect.getsource(_loop)
    text += f"ITERATIONS={ITERATIONS} NOMINAL_S={NOMINAL_S!r}"
    return hashlib.sha256(text.encode()).hexdigest()
