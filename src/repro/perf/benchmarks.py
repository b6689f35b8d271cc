"""Named microbenchmarks over the simulation hot path.

Every benchmark is a deterministic, self-contained function of a single
integer ``scale`` knob: it builds a fresh simulation, drives it, and
returns the executed-event count plus a behavior checksum.  Determinism
matters twice — repeats must measure the same work, and the checksum
lets the harness assert that a timing run did not silently change
behavior between repeats.

The four benchmarks target the layers every paper figure funnels
through:

``kernel_churn``
    Pure :class:`~repro.sim.kernel.Simulator` scheduling: many flows
    each re-arming a long retransmission-style timer per tick, so most
    scheduled events are cancelled before firing — the workload that
    dominates TCP simulations and the one the timer wheel exists for.
``link_saturation``
    One Reno flow saturating a single link: the
    ``Link.transmit``/``TcpSource`` send/ACK pipeline with no loss.
``incast_quick``
    A 16-to-1 synchronized burst into a shallow buffer: loss recovery,
    RTO back-off, and go-back-N — the retransmission-heavy path.
``trim_probe``
    A TCP-TRIM connection sending trains separated by OFF gaps: the
    probe cycle (suspend, probe pair, deadline, window inheritance).
``telemetry_trace``
    The ``trim_probe`` workload with a full-capture flight-recorder bus
    attached: the enabled-path cost of :mod:`repro.obs`.  (The
    *disabled* path is covered by gating ``kernel_churn`` — every other
    benchmark runs with telemetry off, so any overhead leak shows up
    there.)
``session_arrivals``
    Open-loop schedule compilation (:mod:`repro.http.openloop`): MMPP
    arrival sampling, geometric session chains, size draws, fan-out,
    and the final sort — the pure-Python precompute every offered-load
    sweep point runs before its simulation.
``lint_cold`` / ``lint_incremental``
    The static-analysis toolchain itself: whole-program simlint over a
    synthetic import-chained tree, cold versus a warm incremental cache
    with a single-module edit.  ``events`` counts modules covered, so
    the pair reads directly as modules-per-second and their ratio is
    the speedup the content-hash cache buys an editor loop.
``sweep_fanout`` / ``sweep_fanout_shm``
    The sweep dispatch path itself rather than a simulation: a
    synthetic experiment whose points return multi-megabyte payloads,
    fanned out through :class:`~repro.runner.SweepRunner` on the
    ``process`` and ``shm`` backends respectively.  The pair
    A/B-measures result transport — pickle pipe versus shared-memory
    segments — on identical work; their relative throughput is the
    number the shm backend exists for.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.experiments.base import Experiment, Point
from repro.net.topology import build_star
from repro.obs import Telemetry, TraceSpec
from repro.sim.kernel import Event, Simulator
from repro.tcp.base import TcpSink, TcpSource
from repro.tcp.factory import create_source, default_config

__all__ = ["BENCHMARKS", "BenchmarkSpec", "BenchRun"]


@dataclass
class BenchRun:
    """What one benchmark execution did (identical across repeats)."""

    events: int
    sim_seconds: float
    checksum: int


class _ChurnFlow:
    """One synthetic flow: every tick re-arms a long timeout timer.

    This mirrors what a TCP sender does on every ACK — cancel the
    pending RTO, schedule a new one ~400 ticks in the future — so the
    overwhelming majority of scheduled timers are cancelled long before
    they fire.
    """

    __slots__ = ("sim", "interval", "timeout", "remaining", "timer", "fired")

    def __init__(
        self, sim: Simulator, interval: float, timeout: float, ticks: int
    ) -> None:
        self.sim = sim
        self.interval = interval
        self.timeout = timeout
        self.remaining = ticks
        self.timer: Optional[Event] = None
        self.fired = 0

    def start(self) -> None:
        self.sim.schedule(self.interval, self.on_tick)

    def on_tick(self) -> None:
        if self.timer is not None:
            self.timer.cancel()
        self.timer = self.sim.schedule(self.timeout, self.on_timeout)
        self.remaining -= 1
        if self.remaining > 0:
            self.sim.schedule(self.interval, self.on_tick)

    def on_timeout(self) -> None:
        self.timer = None
        self.fired += 1


def bench_kernel_churn(scale: int) -> BenchRun:
    """Pure kernel event churn: schedule/cancel/pop, no network."""
    sim = Simulator(check_invariants=False)
    n_flows = 50
    ticks = 40 * scale
    flows = []
    for i in range(n_flows):
        # Slightly different periods per flow so the heap stays mixed.
        flow = _ChurnFlow(
            sim, interval=5e-4 + i * 1e-6, timeout=0.2, ticks=ticks
        )
        flow.start()
        flows.append(flow)
    sim.run()
    checksum = sim.events_executed * 31 + sum(f.fired for f in flows)
    return BenchRun(sim.events_executed, sim.now, checksum)


def _star_flow(
    protocol: str,
    n_servers: int,
    buffer_pkts: int,
    max_cwnd: float = 1e12,
    telemetry: Optional[Telemetry] = None,
    **extras: object,
) -> tuple[Simulator, list[TcpSource]]:
    sim = Simulator(check_invariants=False, telemetry=telemetry)
    star = build_star(
        sim,
        n_servers,
        bandwidth_bps=1e9,
        delay_s=50e-6,
        buffer_pkts=buffer_pkts,
    )
    config = default_config(
        protocol, min_rto=0.01, initial_rto=0.01, max_cwnd=max_cwnd
    )
    sources = []
    for i, server in enumerate(star.servers):
        source = create_source(
            protocol,
            sim,
            server,
            star.frontend.node_id,
            flow_id=i,
            config=config,
            **extras,  # type: ignore[arg-type]
        )
        TcpSink(sim, star.frontend, flow_id=i)
        sources.append(source)
    return sim, sources


def bench_link_saturation(scale: int) -> BenchRun:
    """One lossless Reno flow pushing a long message through one link.

    ``max_cwnd`` is pinned just above the path BDP so the flow reaches a
    steady saturated pipeline: without the cap, validation-free Reno
    slow-starts its window (and the queue, and every RTT-scaled cost)
    without bound and the benchmark measures a pathology instead of the
    per-packet pipeline.
    """
    sim, (source,) = _star_flow(
        "reno", n_servers=1, buffer_pkts=256, max_cwnd=64.0
    )
    segments = 800 * scale
    source.send_message(segments)
    sim.run(until=30.0)
    if not source.all_acked:  # pragma: no cover - sizing bug guard
        raise RuntimeError("link_saturation did not drain; resize the benchmark")
    checksum = sim.events_executed * 31 + source.stats.segments_sent
    return BenchRun(sim.events_executed, sim.now, checksum)


def bench_incast_quick(scale: int) -> BenchRun:
    """16-to-1 synchronized bursts into a shallow buffer (loss recovery)."""
    sim, sources = _star_flow("reno", n_servers=16, buffer_pkts=32)
    segments = 3 * scale
    for source in sources:
        sim.schedule_at(0.001, source.send_message, segments)
    sim.run(until=60.0)
    done = sum(1 for s in sources if s.all_acked)
    if done != len(sources):  # pragma: no cover - sizing bug guard
        raise RuntimeError("incast_quick did not complete; resize the benchmark")
    retx = sum(s.stats.retransmits for s in sources)
    checksum = sim.events_executed * 31 + retx
    return BenchRun(sim.events_executed, sim.now, checksum)


def bench_trim_probe(scale: int) -> BenchRun:
    """TCP-TRIM trains separated by OFF gaps: repeated probe cycles."""
    sim, (source,) = _star_flow(
        "trim",
        n_servers=1,
        buffer_pkts=100,
        capacity_pps=1e9 / (8.0 * 1460),
        base_rtt=2 * 50e-6 + 1500 * 8 / 1e9,
    )
    trains = 6 * scale
    for k in range(trains):
        sim.schedule_at(0.001 + k * 0.02, source.send_message, 40)
    sim.run(until=0.001 + trains * 0.02 + 1.0)
    cycles = source.probes_completed + source.probes_timed_out  # type: ignore[attr-defined]
    if cycles == 0:  # pragma: no cover - sizing bug guard
        raise RuntimeError("trim_probe never probed; resize the benchmark")
    checksum = sim.events_executed * 31 + cycles
    return BenchRun(sim.events_executed, sim.now, checksum)


def bench_telemetry_trace(scale: int) -> BenchRun:
    """The trim_probe workload with every trace channel recording.

    Measures the enabled flight recorder end to end: emit-point guards,
    record construction, ring-buffer pushes, and queue taps.  The
    checksum folds in the captured record count so a silently broken
    emit point fails the behavior check rather than flattering the
    timing.
    """
    telemetry = Telemetry(TraceSpec.parse("all"))
    sim, (source,) = _star_flow(
        "trim",
        n_servers=1,
        buffer_pkts=100,
        capacity_pps=1e9 / (8.0 * 1460),
        base_rtt=2 * 50e-6 + 1500 * 8 / 1e9,
        telemetry=telemetry,
    )
    trains = 6 * scale
    for k in range(trains):
        sim.schedule_at(0.001 + k * 0.02, source.send_message, 40)
    sim.run(until=0.001 + trains * 0.02 + 1.0)
    captured = telemetry.total_records() + sum(telemetry.overflow.values())
    if captured == 0:  # pragma: no cover - sizing bug guard
        raise RuntimeError("telemetry_trace captured nothing; emit points broken?")
    checksum = sim.events_executed * 31 + captured
    return BenchRun(sim.events_executed, sim.now, checksum)


@dataclass
class _FanoutParams:
    """Params of the synthetic payload experiment (picklable)."""

    #: sized so result transport dominates pool startup and dispatch —
    #: small payloads measure fork overhead, not the pipe-versus-shm
    #: difference this pair exists for.
    n_points: int = 4
    payload_bytes: int = 16 * 1024 * 1024


class _SweepPayloadExperiment(Experiment):
    """Points that cost nothing to compute and megabytes to return.

    Construction is a single ``bytes`` repeat (no per-byte Python work),
    so a sweep over these points measures the dispatch path — worker
    round-trip and, above all, result transport — rather than the
    payload's creation.  Deterministic in (point, seed) alone, like any
    real experiment.
    """

    # Resolved in workers by module:attribute path, not the figure
    # registry — benchmarks must not pollute the CLI's experiment list.
    id = "repro.perf.benchmarks:SWEEP_PAYLOAD"
    title = "synthetic bulk-payload sweep (benchmark only)"
    params_cls = _FanoutParams
    uses_protocols = False

    def points(self, params: _FanoutParams) -> list[Point]:
        return [Point(f"p{i}", {"i": i}) for i in range(params.n_points)]

    def run_point(self, params: _FanoutParams, point: Point, seed: int) -> bytes:
        i = point.kwargs["i"]
        fill = (seed ^ i) % 251
        return i.to_bytes(8, "little") + bytes([fill]) * params.payload_bytes

    def reduce(self, params: Any, points: Sequence[Point], results: Sequence[Any]) -> Any:
        return list(results)


#: the instance workers import (see ``_SweepPayloadExperiment.id``).
SWEEP_PAYLOAD = _SweepPayloadExperiment()


def _run_fanout(scale: int, backend: str) -> BenchRun:
    """Fan ``scale`` bulk points through a SweepRunner on ``backend``."""
    from repro.runner import SweepRunner, create_backend

    params = _FanoutParams(n_points=scale)
    # No cache, so no cost history: submission order is the same on
    # every backend (A/B fairness).
    runner = SweepRunner(jobs=2, cache=None, backend=create_backend(backend))
    payloads = runner.run(SWEEP_PAYLOAD, params, seed=1)
    stats = runner.last_stats
    if stats is None or stats.failures:  # pragma: no cover - sizing bug guard
        raise RuntimeError(f"sweep_fanout[{backend}] had failing points")
    checksum = 0
    total = 0
    for blob in payloads:
        checksum = zlib.crc32(blob, checksum)
        total += len(blob)
    # "events" = bytes moved, so events_per_sec reads as transport
    # bandwidth and the process/shm pair compares directly.
    return BenchRun(total, 0.0, checksum)


def bench_sweep_fanout(scale: int) -> BenchRun:
    """Bulk-payload sweep on the ``process`` backend (pickle pipe)."""
    return _run_fanout(scale, "process")


def bench_sweep_fanout_shm(scale: int) -> BenchRun:
    """The identical sweep on ``shm`` (shared-memory result transport)."""
    return _run_fanout(scale, "shm")


def bench_dispatch_fanout(scale: int) -> BenchRun:
    """Framed-socket sweep dispatch: protocol overhead, not bandwidth.

    Fans ``scale`` quarter-megabyte points through the ``dispatch``
    backend's length-prefixed frame protocol (task out, pickle-b64
    result back, heartbeats throughout).  ``events`` counts frames
    crossing the dispatcher, so ``events_per_sec`` reads as frame
    throughput; wall-clock — which includes the fleet spawn, the price
    a real multi-host sweep pays once — compares against
    ``sweep_fanout`` to show what the fault-tolerance machinery costs
    over a bare process pool.  Payloads are deliberately ~256 KiB: big
    enough that frames carry real weight, small enough that the
    protocol (not loopback bandwidth) dominates.
    """
    from repro.runner import SweepRunner, create_backend

    backend = create_backend("dispatch")
    params = _FanoutParams(n_points=scale, payload_bytes=256 * 1024)
    runner = SweepRunner(jobs=2, cache=None, backend=backend)
    payloads = runner.run(SWEEP_PAYLOAD, params, seed=1)
    stats = runner.last_stats
    if stats is None or stats.failures:  # pragma: no cover - sizing bug guard
        raise RuntimeError("dispatch_fanout had failing points")
    checksum = 0
    for blob in payloads:
        checksum = zlib.crc32(blob, checksum)
    frames = backend.frames_sent + backend.frames_received
    if frames < scale * 2:  # pragma: no cover - sizing bug guard
        raise RuntimeError("dispatch_fanout moved fewer frames than points")
    return BenchRun(frames, 0.0, checksum)


def bench_session_arrivals(scale: int) -> BenchRun:
    """Open-loop schedule compilation: MMPP arrivals through sessions.

    Measures the pure compile path of :mod:`repro.http.openloop` —
    vectorized arrival sampling, geometric chain expansion, size draws
    from the paper CDF, fan-out, and the final sort — which every
    offered-load sweep point pays before its simulation starts.  The
    checksum folds the canonical trace encoding, so a change in the
    draw sequence (not just the count) fails the behavior check.
    """
    from repro.http.openloop import (
        FanoutSpec,
        MmppArrivals,
        SessionConfig,
        compile_schedule,
        trace_rows,
    )
    from repro.obs.export import dump_row

    arrivals = MmppArrivals(
        rate_on=600.0, rate_off=40.0, mean_on=0.05, mean_off=0.15
    )
    config = SessionConfig(
        mean_requests=3.0,
        think_time_s=0.02,
        fanout=FanoutSpec(aggregators=1, leaves=2),
    )
    schedule = compile_schedule(
        arrivals, config, seed=1, horizon=0.25 * scale
    )
    if len(schedule) == 0:  # pragma: no cover - sizing bug guard
        raise RuntimeError("session_arrivals compiled an empty schedule")
    checksum = 0
    for row in trace_rows(schedule):
        checksum = zlib.crc32(dump_row(row).encode("utf-8"), checksum)
    return BenchRun(len(schedule), schedule.horizon, checksum)


# ---------------------------------------------------------------------------
# simlint whole-program analysis benchmarks
# ---------------------------------------------------------------------------


def _lint_module_source(i: int) -> str:
    """Deterministic source for synthetic module ``i`` of the lint tree.

    An import chain (module *i* imports module *i-1*) gives the
    cross-module rules real resolution work, unit-suffixed arithmetic
    exercises SIM014's hot path, and every fourth module carries one
    mutable-default finding so the finding pipeline is measured too.
    """
    lines = [
        '"""Synthetic lint workload module."""',
        "",
        "from __future__ import annotations",
        "",
    ]
    if i > 0:
        lines.append(f"from linttree.mod{i - 1:03d} import helper{i - 1:03d}")
        lines.append("")
    lines += [
        f"def helper{i:03d}(delay_s: float, size_bytes: int) -> float:",
        "    total_s = delay_s + delay_s",
        "    return total_s * size_bytes",
        "",
    ]
    if i > 0:
        lines += [
            f"def chain{i:03d}(x: float) -> float:",
            f"    return helper{i - 1:03d}(x, 8) + {i}.0",
            "",
        ]
    if i % 4 == 1:
        lines += [
            f"def sweep{i:03d}(acc=[]):",
            "    return acc",
            "",
        ]
    return "\n".join(lines)


def _lint_findings_checksum(findings: Sequence[Any], extra: int) -> int:
    blob = "\n".join(f.render() for f in sorted(findings)).encode("utf-8")
    return zlib.crc32(blob) * 31 + extra


def bench_lint_cold(scale: int) -> BenchRun:
    """Whole-program simlint over ``scale`` synthetic modules, no cache.

    Measures the full pipeline — parsing, import-graph construction,
    taint-summary fixpoints, and every per-file and cross-module rule —
    exactly as an uncached CI lint run pays it.  ``events`` counts
    modules analyzed so the cold/incremental pair compares directly as
    modules-per-second.
    """
    from repro.lint.core import lint_module_in_project
    from repro.lint.project import ProjectContext

    sources = {
        f"linttree.mod{i:03d}": _lint_module_source(i) for i in range(scale)
    }
    project = ProjectContext.from_sources(sources)
    findings = []
    for info in project.modules_in_path_order():
        findings.extend(lint_module_in_project(project, info.context))
    if not findings:  # pragma: no cover - sizing bug guard
        raise RuntimeError("lint_cold fixture produced no findings")
    checksum = _lint_findings_checksum(findings, len(project.modules))
    return BenchRun(len(project.modules), 0.0, checksum)


#: scale -> (package dir, cache file, flip bit) for the incremental
#: benchmark; the tree and warm cache persist across repeats on purpose
#: (the cold pass is exactly what bench_lint_cold measures).
_LINT_TREES: dict[int, dict[str, Any]] = {}


def bench_lint_incremental(scale: int) -> BenchRun:
    """One-module edit re-linted through the incremental cache.

    First call per scale materializes the synthetic tree on disk and
    warms the cache (untimed in practice: the harness's warm-up repeat
    absorbs it).  Every timed repeat then rewrites the leaf module —
    whose reverse-import closure is itself alone — and re-lints, so the
    measurement is hash checking plus a single module's analysis plus
    finding replay for the rest: the editor-loop cost the cache exists
    to minimize.
    """
    import tempfile
    from pathlib import Path

    from repro.lint.cache import lint_paths_cached

    state = _LINT_TREES.get(scale)
    if state is None:
        root = Path(tempfile.mkdtemp(prefix="repro-lint-bench-"))
        pkg = root / "linttree"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("", encoding="utf-8")
        for i in range(scale):
            (pkg / f"mod{i:03d}.py").write_text(
                _lint_module_source(i), encoding="utf-8"
            )
        cache = root / "lint-cache.json"
        lint_paths_cached([str(pkg)], cache)  # cold pass warms the cache
        state = {"pkg": pkg, "cache": cache, "flip": 0}
        _LINT_TREES[scale] = state
    state["flip"] ^= 1
    leaf = state["pkg"] / f"mod{scale - 1:03d}.py"
    suffix = "# edited\n" if state["flip"] else "# reverted\n"
    leaf.write_text(
        _lint_module_source(scale - 1) + suffix, encoding="utf-8"
    )
    findings, journal = lint_paths_cached([str(state["pkg"])], state["cache"])
    if len(journal.analyzed) != 1:  # pragma: no cover - sizing bug guard
        raise RuntimeError(
            f"lint_incremental expected 1 dirty module, got {journal.analyzed}"
        )
    covered = len(journal.analyzed) + len(journal.reused)
    checksum = _lint_findings_checksum(findings, covered)
    return BenchRun(covered, 0.0, checksum)


@dataclass
class BenchmarkSpec:
    """A named benchmark plus its quick/full work sizes."""

    name: str
    description: str
    fn: Callable[[int], BenchRun]
    quick_scale: int
    full_scale: int

    def scale_for(self, quick: bool) -> int:
        return self.quick_scale if quick else self.full_scale


#: registry, in display order.  Scales are sized so a quick run takes
#: well under a second per repeat on commodity hardware and a full run
#: a few seconds — long enough to dominate timer jitter.
BENCHMARKS: tuple[BenchmarkSpec, ...] = (
    BenchmarkSpec(
        "kernel_churn",
        "pure event-loop schedule/cancel churn (RTO-timer pattern)",
        bench_kernel_churn,
        quick_scale=25,
        full_scale=150,
    ),
    BenchmarkSpec(
        "link_saturation",
        "single Reno flow saturating one link, no loss",
        bench_link_saturation,
        quick_scale=10,
        full_scale=60,
    ),
    BenchmarkSpec(
        "incast_quick",
        "16-to-1 synchronized burst with loss recovery",
        bench_incast_quick,
        quick_scale=12,
        full_scale=60,
    ),
    BenchmarkSpec(
        "trim_probe",
        "TCP-TRIM ON/OFF trains driving probe cycles",
        bench_trim_probe,
        quick_scale=8,
        full_scale=40,
    ),
    BenchmarkSpec(
        "telemetry_trace",
        "trim_probe workload with the full flight recorder attached",
        bench_telemetry_trace,
        quick_scale=8,
        full_scale=40,
    ),
    BenchmarkSpec(
        "session_arrivals",
        "open-loop MMPP schedule compilation (arrivals through sessions)",
        bench_session_arrivals,
        quick_scale=8,
        full_scale=40,
    ),
    BenchmarkSpec(
        "lint_cold",
        "whole-program simlint over a synthetic tree, no cache",
        bench_lint_cold,
        quick_scale=24,
        full_scale=96,
    ),
    BenchmarkSpec(
        "lint_incremental",
        "one-module edit re-linted through the incremental cache",
        bench_lint_incremental,
        quick_scale=24,
        full_scale=96,
    ),
    BenchmarkSpec(
        "sweep_fanout",
        "bulk-payload sweep dispatch on the process backend (pickle pipe)",
        bench_sweep_fanout,
        quick_scale=8,
        full_scale=16,
    ),
    BenchmarkSpec(
        "sweep_fanout_shm",
        "the identical sweep on the shm backend (shared-memory transport)",
        bench_sweep_fanout_shm,
        quick_scale=8,
        full_scale=16,
    ),
    BenchmarkSpec(
        "dispatch_fanout",
        "quarter-MiB sweep through the dispatch backend's frame protocol",
        bench_dispatch_fanout,
        quick_scale=8,
        full_scale=16,
    ),
)
