"""The benchmark's three workloads, cut into units of simulated work.

A *unit* is one independent simulation: one topology, one set of
connections, one input schedule, run to completion.  A workload is a
fixed list of units generated from the seed; ``run.py`` runs the list
once for the simulated outcomes and then again and again to time it.

Each unit drives the layers through their public entry points only —
``build_star``/``build_fat_tree`` (net), ``ConnectionSet``/
``create_source`` (tcp, and core for TRIM), ``compile_schedule`` and
``OpenLoopDriver.play`` (http), ``Simulator.run`` via ``run_until``
(sim) — and wraps each call in a span (build, connect, compile, play,
run) so per-layer time can be attributed from outside the program.
"""

from __future__ import annotations

import hashlib
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional, Sequence

from repro.experiments.scenarios import (
    ConnectionSet,
    packets_per_second,
    path_base_rtt,
    run_until,
)
from repro.http.openloop import (
    FanoutSpec,
    OpenLoopDriver,
    PoissonArrivals,
    SessionConfig,
    compile_schedule,
)
from repro.http.workload import gap_sampler, pt_size_sampler
from repro.net.topology import Network, build_fat_tree, build_star
from repro.sim.kernel import Simulator
from repro.sim.randomness import seeded_rng
from repro.tcp.base import Message, TcpSource
from repro.tcp.factory import default_config

__all__ = ["WORKLOADS", "Spans", "UnitResult", "make_units", "run_unit"]

WORKLOADS = ("incast_waves", "web_openloop", "fattree_shuffle")

#: simulated p99 latency limit that defines ``sim_capacity_rps``.
P99_LIMIT_S = 0.015


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------

@dataclass
class Span:
    """One timed call into a layer: CPU seconds from ``start`` to ``end``."""

    unit: int
    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0


class Spans:
    """In-memory span recorder keyed by unit id, with parent links.

    Always on: a unit opens six spans, so recording costs a dozen clock
    reads against a unit's tens of milliseconds.
    """

    def __init__(self) -> None:
        self.records: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, unit: int, name: str) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        record = Span(unit, name, parent, time.process_time())
        self.records.append(record)
        self._open.append(len(self.records) - 1)
        try:
            yield
        finally:
            self._open.pop()
            record.end = time.process_time()

    def self_time(self, index: int) -> float:
        """Span duration minus the time its child spans cover."""
        record = self.records[index]
        children = sum(
            r.end - r.start for r in self.records if r.parent == index
        )
        return record.end - record.start - children


# ----------------------------------------------------------------------
# Unit results
# ----------------------------------------------------------------------

@dataclass
class UnitResult:
    """What one unit did, in simulated terms, plus its set-up CPU time."""

    fcts: list[float] = field(default_factory=list)
    payload_bytes: int = 0
    #: simulated seconds from the first transfer's start to the last end
    sim_span: float = 0.0
    attempted: int = 0
    failed: int = 0
    events: int = 0
    segments_sent: int = 0
    retransmits: int = 0
    timeouts: int = 0
    fast_retransmits: int = 0
    drops: int = 0
    offered_pkts: int = 0
    queue_peak: int = 0
    link_tx: int = 0
    bottleneck_busy: float = 0.0
    probes_completed: int = 0
    probes_timed_out: int = 0
    delay_backoffs: int = 0
    conns_opened: int = 0
    leases: int = 0
    reused: int = 0
    #: web_openloop's load factor; 0 for the closed loops
    load_factor: float = 0.0
    #: CPU seconds from unit start to the first simulated event
    setup_cpu: float = 0.0
    digest: str = ""
    violations: list[str] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return len(self.fcts)


def _finish(
    result: UnitResult,
    sim: Simulator,
    network: Network,
    sources: Sequence[TcpSource],
    bottleneck_busy: float,
) -> UnitResult:
    """Fill counters from the public stats objects and hash the outcome."""
    result.events = sim.events_executed
    result.bottleneck_busy = bottleneck_busy
    digest = hashlib.sha256()
    for fct in result.fcts:
        digest.update(repr(fct).encode())
    for link in network.links:
        q = link.queue
        st = q.stats
        if st.enqueued != st.dequeued + st.evicted + len(q):
            result.violations.append(
                f"queue {link.name}: enqueued {st.enqueued} != dequeued "
                f"{st.dequeued} + evicted {st.evicted} + resident {len(q)}"
            )
        result.drops += st.dropped
        result.offered_pkts += st.enqueued + st.dropped
        result.queue_peak = max(result.queue_peak, st.peak_length)
        result.link_tx += link.stats.tx_packets
        digest.update(f"q{st.dropped}".encode())
    for source in sources:
        s = source.stats
        result.segments_sent += s.segments_sent
        result.retransmits += s.retransmits
        result.timeouts += s.timeouts
        result.fast_retransmits += s.fast_retransmits
        digest.update(f"r{s.retransmits}".encode())
        if hasattr(source, "probes_completed"):
            probes = (source.probes_completed, source.probes_timed_out)
            result.probes_completed += probes[0]
            result.probes_timed_out += probes[1]
            result.delay_backoffs += source.delay_decreases
            digest.update(f"p{probes[0]}/{probes[1]}".encode())
    result.digest = digest.hexdigest()
    if result.completed + result.failed != result.attempted:
        result.violations.append(
            f"completed {result.completed} + failed {result.failed} != "
            f"attempted {result.attempted}"
        )
    return result


# ----------------------------------------------------------------------
# incast_waves
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class IncastUnit:
    uid: int
    replica: int
    seed: int
    protocol: str
    n_senders: int
    jitter_s: float


INCAST_WAVES = 3
INCAST_START = 0.001
INCAST_BLOCK_BYTES = 64 * 1024
INCAST_BANDWIDTH_BPS = 1e9
INCAST_DELAY_S = 50e-6
INCAST_BUFFER_PKTS = 64
INCAST_MIN_RTO = 0.01
INCAST_DEADLINE = 30.0
INCAST_REPLICAS = 4


def _incast_units(seed: int) -> list[IncastUnit]:
    """Fan-ins stratified over 8..64 so every seed covers the same range;
    each stratum runs once with Reno and once with TRIM."""
    rng = seeded_rng(seed, 1)
    units: list[IncastUnit] = []
    edges = [8 + 7 * i for i in range(9)]  # 8, 15, ..., 64
    edges[-1] += 1
    for replica in range(INCAST_REPLICAS):
        for lo, hi in zip(edges, edges[1:]):
            n = int(rng.integers(lo, hi))
            jitter = float(rng.uniform(0.0, 100e-6))
            for protocol in ("reno", "trim"):
                units.append(
                    IncastUnit(len(units), replica, seed, protocol, n, jitter)
                )
    return units


def _run_incast(unit: IncastUnit, spans: Spans, simulate: bool) -> UnitResult:
    t0 = time.process_time()
    uid = unit.uid
    with spans.span(uid, "build"):
        sim = Simulator()
        star = build_star(
            sim,
            unit.n_senders,
            bandwidth_bps=INCAST_BANDWIDTH_BPS,
            delay_s=INCAST_DELAY_S,
            buffer_pkts=INCAST_BUFFER_PKTS,
        )
    with spans.span(uid, "connect"):
        connections = ConnectionSet(
            sim,
            unit.protocol,
            config=default_config(
                unit.protocol, min_rto=INCAST_MIN_RTO, initial_rto=INCAST_MIN_RTO
            ),
            capacity_pps=packets_per_second(INCAST_BANDWIDTH_BPS),
            base_rtt=path_base_rtt([(INCAST_DELAY_S, INCAST_BANDWIDTH_BPS)] * 2),
        )
        sources = connections.connect_many(star.servers, star.frontend)
    with spans.span(uid, "compile"):
        rng = seeded_rng(unit.seed, 2, uid)
        offsets = rng.uniform(0.0, unit.jitter_s, (INCAST_WAVES, unit.n_senders))
        # OFF gaps between waves follow the paper's Fig. 2(b) distribution.
        gaps = gap_sampler().sample(rng, INCAST_WAVES - 1)

    result = UnitResult(attempted=INCAST_WAVES * unit.n_senders)
    blocks: list[Message] = []
    pending = [0]

    def landed(_msg: Message) -> None:
        pending[0] -= 1
        wave = len(blocks) // unit.n_senders - 1
        if pending[0] == 0 and wave + 1 < INCAST_WAVES:
            sim.schedule(float(gaps[wave]), launch, wave + 1)

    def launch(wave: int) -> None:
        pending[0] = unit.n_senders
        for i, source in enumerate(sources):
            sim.schedule(float(offsets[wave, i]), send, source)

    def send(source: TcpSource) -> None:
        blocks.append(source.send_bytes(INCAST_BLOCK_BYTES, on_complete=landed))

    with spans.span(uid, "play"):
        sim.schedule_at(INCAST_START, launch, 0)
    result.setup_cpu = time.process_time() - t0
    if not simulate:
        return result
    with spans.span(uid, "run"):
        run_until(
            sim,
            lambda: len(blocks) == result.attempted and pending[0] == 0,
            INCAST_DEADLINE,
        )
    done = [m for m in blocks if m.finish_time is not None]
    result.fcts = [m.completion_time for m in done]
    result.failed = result.attempted - len(done)
    result.payload_bytes = len(done) * INCAST_BLOCK_BYTES
    if done:
        result.sim_span = max(m.finish_time for m in done) - INCAST_START  # type: ignore[type-var]
    return _finish(
        result, sim, star.network, sources, star.bottleneck.stats.busy_time
    )


# ----------------------------------------------------------------------
# web_openloop
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class OpenLoopUnit:
    uid: int
    replica: int
    seed: int
    factor: float


WEB_BASE_RATE = 120.0  # session arrivals per second at load factor 1
WEB_FACTORS = (1.0, 2.0, 4.0, 6.0)
WEB_REPLICAS = 24
WEB_HORIZON = 0.15
WEB_DRAIN = 1.0
WEB_SERVERS = 4
WEB_BANDWIDTH_BPS = 1e9
WEB_DELAY_S = 50e-6
WEB_BUFFER_PKTS = 16
WEB_MIN_RTO = 0.01
WEB_SESSIONS = SessionConfig(
    mean_requests=3.0, think_time_s=0.05, fanout=FanoutSpec(aggregators=1, leaves=2)
)


def _openloop_units(seed: int) -> list[OpenLoopUnit]:
    units: list[OpenLoopUnit] = []
    for replica in range(WEB_REPLICAS):
        for factor in WEB_FACTORS:
            units.append(OpenLoopUnit(len(units), replica, seed, factor))
    return units


def _run_openloop(unit: OpenLoopUnit, spans: Spans, simulate: bool) -> UnitResult:
    t0 = time.process_time()
    uid = unit.uid
    with spans.span(uid, "build"):
        sim = Simulator()
        star = build_star(
            sim,
            WEB_SERVERS,
            bandwidth_bps=WEB_BANDWIDTH_BPS,
            delay_s=WEB_DELAY_S,
            buffer_pkts=WEB_BUFFER_PKTS,
        )
    with spans.span(uid, "connect"):
        driver = OpenLoopDriver(
            sim,
            star.frontend,
            star.servers,
            "trim",
            config=default_config("trim", min_rto=WEB_MIN_RTO, initial_rto=WEB_MIN_RTO),
            capacity_pps=packets_per_second(WEB_BANDWIDTH_BPS),
            base_rtt=path_base_rtt([(WEB_DELAY_S, WEB_BANDWIDTH_BPS)] * 2),
        )
    with spans.span(uid, "compile"):
        schedule = compile_schedule(
            PoissonArrivals(rate=WEB_BASE_RATE * unit.factor),
            WEB_SESSIONS,
            seed=seeded_rng(unit.seed, 3, uid).integers(2**31).item(),
            horizon=WEB_HORIZON,
        )
    with spans.span(uid, "play"):
        run = driver.play(schedule)
    result = UnitResult(attempted=run.offered)
    result.setup_cpu = time.process_time() - t0
    if not simulate:
        return result
    with spans.span(uid, "run"):
        run_until(
            sim, lambda: run.completed >= run.offered, WEB_HORIZON + WEB_DRAIN
        )
    try:
        driver.check_conservation()
    except AssertionError as exc:
        result.violations.append(f"pool conservation: {exc}")
    if run.issued != run.offered:
        result.violations.append(f"issued {run.issued} != offered {run.offered}")
    result.fcts = list(run.latencies)
    result.failed = run.offered - run.completed
    result.payload_bytes = run.bytes_completed
    result.sim_span = schedule.horizon
    result.load_factor = unit.factor
    pools = driver.pool_stats()
    result.conns_opened = pools.opened
    result.leases = pools.leases
    result.reused = pools.reused
    sources: list[TcpSource] = []
    for session in driver.sessions:
        for source in (session.request_source, session.response_source):
            if source is not None:
                sources.append(source)
    return _finish(
        result, sim, star.network, sources, star.bottleneck.stats.busy_time
    )


# ----------------------------------------------------------------------
# fattree_shuffle
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FatTreeUnit:
    uid: int
    replica: int
    seed: int
    protocol: str
    k: int


FT_BANDWIDTH_BPS = 10e9
FT_DELAY_S = 10e-6
FT_BUFFER_PKTS = 64
FT_N_SMALL = 3
FT_BIG_BYTES = 128 * 1024
FT_SMALL_START = 0.1
FT_BIG_START = 0.5
FT_MIN_RTO = 0.05
FT_DEADLINE = 5.0
FT_REPLICAS = 5


def _fattree_units(seed: int) -> list[FatTreeUnit]:
    """The largest build runs first, so it is the one ``setup_s`` times."""
    units: list[FatTreeUnit] = []
    for replica in range(FT_REPLICAS):
        for k in (6, 4):
            for protocol in ("reno", "trim"):
                units.append(FatTreeUnit(len(units), replica, seed, protocol, k))
    return units


def _run_fattree(unit: FatTreeUnit, spans: Spans, simulate: bool) -> UnitResult:
    t0 = time.process_time()
    uid = unit.uid
    with spans.span(uid, "build"):
        sim = Simulator()
        topo = build_fat_tree(
            sim,
            unit.k,
            bandwidth_bps=FT_BANDWIDTH_BPS,
            delay_s=FT_DELAY_S,
            buffer_pkts=FT_BUFFER_PKTS,
        )
    hosts = topo.hosts
    n = len(hosts)
    with spans.span(uid, "compile"):
        rng = seeded_rng(unit.seed, 4, uid)
        # A random peer per host, never itself: shift by 1..n-1.
        peers = [(i + int(rng.integers(1, n))) % n for i in range(n)]
        smalls = pt_size_sampler().sample(rng, n * FT_N_SMALL).reshape(n, FT_N_SMALL)
        gaps = gap_sampler().sample(rng, n * FT_N_SMALL).reshape(n, FT_N_SMALL)
    with spans.span(uid, "connect"):
        connections = ConnectionSet(
            sim,
            unit.protocol,
            config=default_config(
                unit.protocol, min_rto=FT_MIN_RTO, initial_rto=FT_MIN_RTO
            ),
            capacity_pps=packets_per_second(FT_BANDWIDTH_BPS),
            base_rtt=path_base_rtt([(FT_DELAY_S, FT_BANDWIDTH_BPS)] * 6),
        )
        sources = [connections.connect(h, hosts[peers[i]])[0] for i, h in enumerate(hosts)]

    messages: list[tuple[Message, int]] = []

    def send(source: TcpSource, size: int) -> None:
        messages.append((source.send_bytes(size), size))

    result = UnitResult(attempted=n * (FT_N_SMALL + 1))
    with spans.span(uid, "play"):
        for i, source in enumerate(sources):
            t = FT_SMALL_START
            for j in range(FT_N_SMALL):
                sim.schedule_at(t, send, source, max(1, int(smalls[i, j])))
                t += float(gaps[i, j])
            sim.schedule_at(FT_BIG_START, send, source, FT_BIG_BYTES)
    result.setup_cpu = time.process_time() - t0
    if not simulate:
        return result
    with spans.span(uid, "run"):
        run_until(
            sim,
            lambda: len(messages) == result.attempted
            and all(m.finish_time is not None for m, _ in messages),
            FT_DEADLINE,
        )
    done = [m for m, _ in messages if m.finish_time is not None]
    result.fcts = [m.completion_time for m in done]
    result.failed = result.attempted - len(done)
    result.payload_bytes = sum(b for m, b in messages if m.finish_time is not None)
    if done:
        result.sim_span = max(m.finish_time for m in done) - FT_SMALL_START  # type: ignore[type-var]
    busiest = max(link.stats.busy_time for link in topo.network.links)
    return _finish(result, sim, topo.network, sources, busiest)


# ----------------------------------------------------------------------

_UNITS: dict[str, Callable[[int], list[Any]]] = {
    "incast_waves": _incast_units,
    "web_openloop": _openloop_units,
    "fattree_shuffle": _fattree_units,
}
_RUNNERS: dict[type, Callable[[Any, Spans, bool], UnitResult]] = {
    IncastUnit: _run_incast,
    OpenLoopUnit: _run_openloop,
    FatTreeUnit: _run_fattree,
}


def make_units(workload: str, seed: int) -> list[Any]:
    """The workload's unit list; the same seed gives the same list."""
    return _UNITS[workload](seed)


def run_unit(unit: Any, spans: Spans, simulate: bool = True) -> UnitResult:
    """Run one unit inside a root span named ``unit``.

    With ``simulate=False`` the unit stops after set-up, just before its
    first simulated event; only ``setup_cpu`` is then meaningful.
    """
    with spans.span(unit.uid, "unit"):
        return _RUNNERS[type(unit)](unit, spans, simulate)


def combined_digest(results: Sequence[UnitResult]) -> str:
    """One hash over every unit's simulated-outcome digest, in unit order."""
    digest = hashlib.sha256()
    for result in results:
        digest.update(result.digest.encode())
    return digest.hexdigest()


def capacity_rps(results: Sequence[UnitResult]) -> float:
    """Simulated capacity in requests (transfers) per simulated second.

    Open loop: the offered rate at which pooled p99 latency reaches
    :data:`P99_LIMIT_S`, read off the p99-versus-rate curve of the load
    factors by linear interpolation, so that it moves smoothly with the
    inputs instead of jumping between factors.  A factor that left a
    request unfinished ends the curve.  A closed loop runs at its
    capacity by construction, so there it is the completed transfers
    over the simulated time they took.
    """
    if not any(r.load_factor for r in results):
        return sum(r.completed for r in results) / sum(r.sim_span for r in results)
    curve = []
    for factor in sorted({r.load_factor for r in results}):
        group = [r for r in results if r.load_factor == factor]
        fcts = [f for r in group for f in r.fcts]
        offered = sum(r.attempted for r in group)
        rate = offered / sum(r.sim_span for r in group)
        p99 = percentile(fcts, 0.99) if len(fcts) == offered else math.inf
        curve.append((rate, p99))
    best = 0.0
    previous: Optional[tuple[float, float]] = None
    for rate, p99 in curve:
        if p99 <= P99_LIMIT_S:
            best = rate
        else:
            if previous is not None and math.isfinite(p99):
                r0, p0 = previous
                best = r0 + (rate - r0) * (P99_LIMIT_S - p0) / (p99 - p0)
            break
        previous = (rate, p99)
    return best


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated quantile of ``values``, ``q`` in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
