"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload incast_waves --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones, from a profiled pass over one replica of
the workload.  Lines before it are informational: the simulated-outcome
digest, the transfer count and the normalization audit.  See
``perfbench/README.md`` for what each workload and metric means.

Everything runs in this one process, with no threads.  The exit code is
0 when every output check passed, 1 when one failed and 2 when the
program could not be imported or the reference loop no longer matches
its pin.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pstats
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402  (stdlib only; see its docstring)

#: the same names as ``workloads.WORKLOADS``, which can only be imported
#: once the timed import starts.
WORKLOADS = ("incast_waves", "web_openloop", "fattree_shuffle")
#: unit-0 set-ups repeated after the timed runs, for the set-up median.
SETUP_REPEATS = 5
#: where ``--trace 1`` writes its spans, relative to the repository root.
TRACE_DIR = ".perfbench-out"
LAYERS = ("sim", "net", "tcp", "core", "http")


def _parse(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _bracket() -> float:
    """Median of five reference loops: a steadier bracket for the one
    interval (start-up and import) that happens only once per process."""
    return statistics.median(reference.measure() for _ in range(5))


class Timer:
    """Times units between reference-loop brackets.

    Each unit's CPU seconds are scaled by ``NOMINAL_S`` over the mean of
    the loop measured just before and just after it; the after-loop of
    one unit is the before-loop of the next.
    """

    def __init__(self) -> None:
        self.refs: list[float] = [reference.measure()]

    def close(self) -> float:
        """Measure the after-loop; the scale for the interval it closes."""
        self.refs.append(reference.measure())
        return reference.NOMINAL_S / ((self.refs[-2] + self.refs[-1]) / 2.0)


def _reimport(times: int) -> tuple[Any, list[float]]:
    """Import the program ``times`` more times; normalized CPU of each.

    Every ``repro`` module is dropped from ``sys.modules`` and executed
    again.  Third-party modules stay loaded: a process can load a C
    extension only once, so their cost is only in the first import.
    """
    costs = []
    module = None
    for _ in range(times):
        for name in [n for n in sys.modules if n == "workloads" or n == "repro"
                     or n.startswith("repro.")]:
            del sys.modules[name]
        gc.collect()
        before = reference.measure()
        start = time.process_time()
        import workloads as module
        cpu = time.process_time() - start
        costs.append(cpu * reference.NOMINAL_S / ((before + reference.measure()) / 2))
    return module, costs


def _layer_of(filename: str) -> str:
    parts = Path(filename).parts
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro" and parts[i + 1] in LAYERS:
            return parts[i + 1]
    return "other"


def _profile_layers(profile: cProfile.Profile) -> dict[str, list[float]]:
    """Self time and call count per ``repro.<layer>`` package."""
    totals = {layer: [0.0, 0.0] for layer in LAYERS}
    stats: dict[Any, Any] = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    for (filename, _line, _name), (_cc, calls, self_s, _cum, _callers) in stats.items():
        layer = _layer_of(filename)
        if layer in totals:
            totals[layer][0] += self_s
            totals[layer][1] += calls
    return totals


def main(argv: Optional[list[str]] = None) -> int:
    args = _parse(argv)
    wall_start = time.perf_counter()

    # --- start-up and import: measured once, bracketed by reference loops
    bracket_start = time.process_time()
    ref_before = _bracket()
    bracket_cpu = time.process_time() - bracket_start
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"error: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    try:
        import workloads as wl
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import_cpu = time.process_time() - bracket_cpu
    import_s = import_cpu * reference.NOMINAL_S / ((ref_before + _bracket()) / 2)
    if reference.definition_sha256() != reference.PINNED_SHA256:
        print("error: the reference loop no longer matches its pinned "
              "definition (reference.PINNED_SHA256)", file=sys.stderr)
        return 2
    wl, imports = _reimport(SETUP_REPEATS)

    units = wl.make_units(args.workload, args.seed)
    spans = wl.Spans()
    first: dict[int, Any] = {}
    samples: dict[int, list[float]] = {u.uid: [] for u in units}
    raw: dict[int, list[float]] = {u.uid: [] for u in units}
    walls: dict[int, list[float]] = {u.uid: [] for u in units}
    setups: list[float] = []
    violations: list[str] = []
    raised = 0

    # --- timed runs: every unit once, then again until time is up -----
    deadline = wall_start + args.seconds
    timer = Timer()
    runs = 0
    while runs < len(units) or (
        time.perf_counter() < deadline and runs < 50 * len(units)
    ):
        unit = units[runs % len(units)]
        runs += 1
        w0 = time.perf_counter()
        c0 = time.process_time()
        try:
            result = wl.run_unit(unit, spans)
            # The simulation is a web of reference cycles: freeing it is
            # part of the unit's cost, and must not land in the next
            # reference loop.
            gc.collect()
        except Exception:  # a unit that raises is a failed output check
            traceback.print_exc()
            raised += 1
            violations.append(f"unit {unit.uid} raised")
            timer.close()
            continue
        cpu = time.process_time() - c0
        wall = time.perf_counter() - w0
        scale = timer.close()
        samples[unit.uid].append(cpu * scale)
        raw[unit.uid].append(cpu)
        walls[unit.uid].append(wall)
        if unit.uid == units[0].uid:
            setups.append(result.setup_cpu * scale)
        if unit.uid not in first:
            first[unit.uid] = result
            violations.extend(f"unit {unit.uid}: {v}" for v in result.violations)
        elif result.digest != first[unit.uid].digest:
            violations.append(
                f"unit {unit.uid}: re-run with the same seed changed the digest"
            )
    if runs == len(units) and not raised:
        # Time ran out inside the first pass: still check one re-run.
        result = wl.run_unit(units[0], spans)
        timer.close()
        if result.digest != first[units[0].uid].digest:
            violations.append("unit 0: re-run with the same seed changed the digest")
    for _ in range(SETUP_REPEATS):
        gc.collect()
        result = wl.run_unit(units[0], spans, simulate=False)
        setups.append(result.setup_cpu * timer.close())

    results = [first[u.uid] for u in units if u.uid in first]
    if not results:
        print("error: every unit raised", file=sys.stderr)
        return 1
    attempted = sum(r.attempted for r in results) + raised
    failed = sum(r.failed for r in results) + raised
    transfers = sum(r.completed for r in results)
    if transfers < 1000:
        violations.append(f"only {transfers} transfers; the run needs >= 1000")

    digest = wl.combined_digest(results)
    print(f"digest {args.workload} seed={args.seed} sha256={digest}")
    print(f"transfers {transfers} attempted {attempted} failed {failed} "
          f"failed_frac {failed / max(attempted, 1):.6f}")
    _print_audit(timer.refs, raw, samples, import_cpu, imports)

    if args.trace:
        metrics = _traced(
            wl, units, results, walls, spans, timer.refs, args, import_s
        )
    else:
        metrics = _end_to_end(wl, units, results, samples, setups, imports)
    for text in violations:
        print(f"check failed: {text}", file=sys.stderr)
    correct = not violations and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _print_audit(
    refs: list[float],
    raw: dict[int, list[float]],
    samples: dict[int, list[float]],
    import_cpu: float,
    imports: list[float],
) -> None:
    q = statistics.quantiles(refs, n=4)
    med = statistics.median(refs)
    unit_raw = {uid: round(statistics.median(v), 5) for uid, v in raw.items() if v}
    print("audit " + json.dumps({
        "reference_nominal_s": reference.NOMINAL_S,
        "reference_sha256": reference.PINNED_SHA256,
        "reference_runs": len(refs),
        "reference_min_s": round(min(refs), 6),
        "reference_median_s": round(med, 6),
        "reference_max_s": round(max(refs), 6),
        "reference_iqr_over_median": round((q[2] - q[0]) / med, 4),
        "first_import_raw_cpu_s": round(import_cpu, 4),
        "reimport_normalized_s": [round(c, 4) for c in imports],
        "raw_cpu_s_total": round(sum(sum(v) for v in raw.values()), 4),
        "normalized_cpu_s_total": round(sum(sum(v) for v in samples.values()), 4),
        "raw_cpu_s_per_unit": unit_raw,
    }))


def _metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def sim_metrics(wl: Any, results: list[Any]) -> dict[str, Any]:
    """The simulated end-to-end metrics: pure functions of the outcomes,
    so the same seed reproduces them exactly."""
    fcts = [f for r in results for f in r.fcts]
    transfers = len(fcts)
    span = sum(r.sim_span for r in results)
    return {
        "sim_fct_p50_ms": _metric(wl.percentile(fcts, 0.50) * 1e3, "ms"),
        "sim_fct_p99_ms": _metric(wl.percentile(fcts, 0.99) * 1e3, "ms"),
        "sim_goodput_mbps": _metric(
            sum(r.payload_bytes for r in results) * 8.0 / span / 1e6, "Mb/s"
        ),
        "sim_timeouts_per_1k": _metric(
            1000.0 * sum(r.timeouts for r in results) / transfers, "per_1k"
        ),
        "sim_capacity_rps": _metric(wl.capacity_rps(results), "req/s"),
    }


def _end_to_end(
    wl: Any,
    units: list[Any],
    results: list[Any],
    samples: dict[int, list[float]],
    setups: list[float],
    imports: list[float],
) -> dict[str, Any]:
    transfers = sum(r.completed for r in results)
    cpu = sum(statistics.median(samples[u.uid]) for u in units if samples[u.uid])
    return {
        "transfers_per_s": _metric(transfers / cpu, "transfers/s"),
        "setup_s": _metric(
            statistics.median(imports) + statistics.median(setups), "s"
        ),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        **sim_metrics(wl, results),
    }


def _traced(
    wl: Any,
    units: list[Any],
    results: list[Any],
    walls: dict[int, list[float]],
    spans: Any,
    refs: list[float],
    args: argparse.Namespace,
    import_s: float,
) -> dict[str, Any]:
    """Profile one replica of the workload; counts come from every unit."""
    traced_units = [u for u in units if u.replica == 0]
    traced_spans = wl.Spans()
    profile = cProfile.Profile()
    timer = Timer()
    gc.collect()
    w0 = time.perf_counter()
    profile.enable()
    traced_transfers = 0
    for unit in traced_units:
        traced_transfers += wl.run_unit(unit, traced_spans).completed
    profile.disable()
    traced_wall = time.perf_counter() - w0
    scale = timer.close()
    layers = _profile_layers(profile)
    untraced_wall = sum(statistics.median(walls[u.uid]) for u in traced_units)

    out = Path.cwd() / TRACE_DIR
    out.mkdir(exist_ok=True)
    path = out / f"spans-{args.workload}-seed{args.seed}.json"
    with path.open("w") as fh:
        json.dump([
            {**vars(s), "self": traced_spans.self_time(i)}
            for i, s in enumerate(traced_spans.records)
        ], fh)
    print(f"spans written to {path.relative_to(Path.cwd())}")

    def per_transfer(layer: str, index: int) -> float:
        value = layers[layer][index] * (scale if index == 0 else 1.0)
        return value / traced_transfers

    def unit0_span(name: str) -> float:
        """Median normalized duration of unit 0's ``name`` span, untraced."""
        durations = [
            s.end - s.start for s in spans.records
            if s.unit == units[0].uid and s.name == name
        ]
        return statistics.median(durations) * reference.NOMINAL_S / statistics.median(refs)

    transfers = sum(r.completed for r in results)
    total = {
        key: sum(getattr(r, key) for r in results)
        for key in (
            "events", "segments_sent", "retransmits", "timeouts",
            "fast_retransmits", "drops", "offered_pkts", "link_tx",
            "bottleneck_busy", "sim_span", "probes_completed",
            "probes_timed_out", "delay_backoffs", "conns_opened",
            "leases", "reused",
        )
    }
    probes = total["probes_completed"] + total["probes_timed_out"]
    m = _metric
    return {
        "sim.self_s_per_transfer": m(per_transfer("sim", 0), "s/transfer"),
        "sim.calls_per_transfer": m(per_transfer("sim", 1), "calls/transfer"),
        "sim.events_per_transfer": m(total["events"] / transfers, "events/transfer"),
        "net.build_s": m(unit0_span("build"), "s"),
        "net.self_s_per_transfer": m(per_transfer("net", 0), "s/transfer"),
        "net.calls_per_transfer": m(per_transfer("net", 1), "calls/transfer"),
        "net.link_tx_per_transfer": m(total["link_tx"] / transfers, "pkts/transfer"),
        "net.drops_per_1k": m(
            1000.0 * total["drops"] / max(total["offered_pkts"], 1), "per_1k_pkts"
        ),
        "net.queue_peak_pkts": m(max(r.queue_peak for r in results), "pkts"),
        "net.bottleneck_busy_frac": m(
            total["bottleneck_busy"] / total["sim_span"], "fraction"
        ),
        "tcp.self_s_per_transfer": m(per_transfer("tcp", 0), "s/transfer"),
        "tcp.calls_per_transfer": m(per_transfer("tcp", 1), "calls/transfer"),
        "tcp.retx_ratio": m(
            total["retransmits"] / max(total["segments_sent"], 1), "ratio"
        ),
        "tcp.timeouts": m(total["timeouts"], "count"),
        "tcp.fast_retransmits": m(total["fast_retransmits"], "count"),
        "tcp.connect_s": m(unit0_span("connect"), "s"),
        "core.self_s_per_transfer": m(per_transfer("core", 0), "s/transfer"),
        "core.probe_success_ratio": m(
            total["probes_completed"] / max(probes, 1), "ratio"
        ),
        "core.delay_backoffs": m(total["delay_backoffs"], "count"),
        "http.compile_s": m(unit0_span("compile"), "s"),
        "http.self_s_per_transfer": m(per_transfer("http", 0), "s/transfer"),
        "http.conns_opened": m(total["conns_opened"], "count"),
        "http.reuse_frac": m(total["reused"] / max(total["leases"], 1), "fraction"),
        "import_s": m(import_s, "s"),
        "trace_overhead_ratio": m(traced_wall / untraced_wall, "ratio"),
    }


if __name__ == "__main__":
    sys.exit(main())
