"""Command-line experiment runner.

Usage::

    python -m repro.experiments fig6 --preset quick
    python -m repro.experiments fig8 --preset paper --jobs 4
    python -m repro.experiments table1 --protocols reno,trim
    python -m repro.experiments all --preset quick --no-cache

Experiments are resolved through :mod:`repro.experiments.registry` and
executed by :class:`repro.runner.SweepRunner`: every figure is a sweep
of independent points, fanned out to ``--jobs`` workers on a pluggable
execution backend (``--backend serial|process|shm``) with a
content-addressed result cache (``--cache-dir`` / ``--no-cache``).
When the cache has seen a point before, its measured runtime also
drives cost-aware scheduling: predicted-longest points are submitted
first to shrink pool makespan.  Results are bit-identical for any
``--jobs`` value, any backend, and any submission order.  Each
experiment prints rows shaped like the paper's figure/table.

Sweeps are crash-safe: every completed point is journalled durably to a
JSONL checkpoint next to the result cache (override with
``--checkpoint``), so after a crash, ``kill -9``, or Ctrl-C the same
command with ``--resume`` replays the finished points and runs only the
remainder.  Ctrl-C itself exits with status 130 after flushing whatever
partial report is printable.  ``--fault-plan FILE`` hands a JSON
:class:`~repro.faults.FaultPlan` to experiments that take one (the
``faults`` experiment), and ``--arrivals SPEC`` / ``--replay FILE``
hand an arrival process or a recorded session trace to open-loop
experiments (the ``openloop`` experiment).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Any, Sequence

from repro.experiments import registry
from repro.experiments.base import Experiment
from repro.runner import (
    ResultCache,
    SweepCheckpoint,
    SweepInterrupted,
    SweepRunner,
    create_backend,
)
from repro.runner.cache import default_cache_dir

#: every resolvable id (canonical figure ids plus aliases such as
#: ``fig2`` → ``fig1``) mapped to its experiment instance.
EXPERIMENTS = {name: registry.get(name) for name in registry.ids()}


def _run_one(
    name: str, exp: Experiment, runner: SweepRunner, args: argparse.Namespace
) -> object:
    """Run one experiment for the CLI's protocol list; returns payload."""
    overrides = {}
    if exp.accepts_fault_plan and args.fault_plan_json is not None:
        overrides["plan_json"] = args.fault_plan_json
    if exp.accepts_openloop:
        if args.arrivals is not None:
            overrides["arrivals"] = args.arrivals
        if args.replay_rows is not None:
            overrides["replay"] = args.replay_rows
    if exp.uses_protocols:
        protocols = exp.select_protocols(args.protocols)
        tasks = [
            (exp, exp.make_params(args.preset, protocol=p, **overrides))
            for p in protocols
        ]
        try:
            payloads = runner.run_many(tasks, seed=args.seed)
        except SweepInterrupted as interrupt:
            _report_partial(tasks, interrupt.payloads)
            raise
        for (experiment, params), payload in zip(tasks, payloads):
            experiment.report(params, payload)
        return dict(zip(protocols, payloads))
    params = exp.make_params(args.preset, **overrides)
    try:
        payload = runner.run(exp, params, seed=args.seed)
    except SweepInterrupted as interrupt:
        _report_partial([(exp, params)], interrupt.payloads)
        raise
    exp.report(params, payload)
    return payload


def _report_partial(
    tasks: Sequence[tuple[Experiment, Any]], payloads: Sequence[Any]
) -> None:
    """Best-effort printing of whatever an interrupted sweep reduced."""
    for (experiment, params), payload in zip(tasks, payloads):
        if payload is None:
            continue
        try:
            experiment.report(params, payload)
        except Exception as exc:  # noqa: BLE001 - partial payloads may not print
            # A reporter written for complete sweeps may choke on the
            # holes; fall back to the raw payload so an interrupted run
            # never exits with its surviving data invisible.
            print(
                f"[{experiment.id}] report failed on partial payload "
                f"({type(exc).__name__}: {exc}); raw payload follows:",
                file=sys.stderr,
            )
            print(repr(payload), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "trace":
        # ``trace`` is a report subcommand, not an experiment: render or
        # validate JSONL trace files written by --trace runs.  Dispatched
        # before argparse because the experiment positional has a closed
        # choice list.
        from repro.obs import report

        return report.main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run TCP-TRIM reproduction experiments.",
    )
    parser.add_argument("experiment", choices=sorted(set(EXPERIMENTS)) + ["all"])
    parser.add_argument("--preset", choices=("quick", "paper"), default="quick")
    parser.add_argument(
        "--protocols",
        default="reno,trim",
        help="comma-separated protocol list (default: reno,trim)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for sweep points (default: 1, inline)",
    )
    parser.add_argument(
        "--backend",
        choices=("serial", "process", "shm", "dispatch"),
        default=None,
        help="sweep execution backend: serial (inline), process "
        "(worker pool, pickle transport), shm (worker pool with "
        "shared-memory result transport for trace-heavy payloads), or "
        "dispatch (fault-tolerant socket workers with heartbeat "
        "leases, classified retry, and quarantine — see --hosts); "
        "default picks serial under --jobs 1 and process otherwise. "
        "Results are identical under every backend.",
    )
    parser.add_argument(
        "--hosts",
        default=None,
        metavar="SPEC",
        help="dispatch fleet description: 'local:N' for N local worker "
        "processes, or a JSON host-list file with per-host worker "
        "counts and spawn-command templates (see EXPERIMENTS.md, "
        "Multi-host sweeps); requires --backend dispatch",
    )
    parser.add_argument(
        "--retry-policy",
        default=None,
        metavar="SPEC",
        help="failure-handling policy, e.g. "
        "'attempts=3,base=0.1,mult=2,cap=5,jitter=0.5,transient=8,"
        "seed=7': attempts caps a point's own retries (exponential "
        "backoff with deterministic seeded jitter), transient budgets "
        "environment-fault retries separately (worker death, lease "
        "expiry)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="sweep result cache location (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro-experiments)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the sweep result cache for this run",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-point timeout in seconds (pool runs only)",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        help="JSONL journal of completed sweep points (default: "
        "checkpoints/<experiment>-<preset>-seed<seed>.jsonl next to the "
        "result cache); every finished point is fsynced there, so a "
        "killed sweep can --resume",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="replay points already in the checkpoint journal and run "
        "only the unfinished remainder (results identical to an "
        "uninterrupted run)",
    )
    parser.add_argument(
        "--no-checkpoint",
        action="store_true",
        help="disable the sweep checkpoint journal for this run",
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        help="JSON FaultPlan file handed to experiments that take one "
        "(see the faults experiment and repro.faults.FaultPlan)",
    )
    parser.add_argument(
        "--arrivals",
        default=None,
        metavar="SPEC",
        help="arrival-process spec for open-loop experiments, e.g. "
        "'poisson:rate=200', 'mmpp:rate_on=500,rate_off=20,"
        "mean_on=0.1,mean_off=0.4', or 'diurnal:base=50,peak=400,"
        "period=1.0' (see the openloop experiment and EXPERIMENTS.md, "
        "Open-loop load)",
    )
    parser.add_argument(
        "--replay",
        default=None,
        metavar="FILE",
        help="JSONL session trace of (t, session, size) rows to replay "
        "instead of sampling arrivals (written by "
        "repro.http.openloop.write_trace; open-loop experiments only)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print per-point progress/ETA lines to stderr",
    )
    parser.add_argument(
        "--check-invariants",
        action="store_true",
        help="enable runtime invariant checks (monotonic event time, "
        "per-queue packet conservation, protocol-state sanity) in every "
        "simulation, including sweep worker processes",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="SPEC",
        help="flight-recorder capture: comma-separated channels "
        "(cwnd, rtt, state, probe, queue, rto, fault, session, pool "
        "or 'all'), with "
        "optional @N decimation on sample channels and flow=<id>/"
        "link=<glob> filters, e.g. 'cwnd@8,probe,queue'; one JSONL "
        "trace file is written per executed sweep point (see "
        "EXPERIMENTS.md, Tracing)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="DIR",
        help="directory for the per-point JSONL trace files "
        "(default: ./traces); requires --trace",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="write a JSON artifact of the measured results to this path",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the hottest functions by "
        "cumulative time (profiles this process only: with --jobs > 1 "
        "the sweep work happens in workers and will not appear)",
    )
    parser.add_argument(
        "--profile-out",
        default=None,
        help="also dump the raw cProfile stats to this path "
        "(load with pstats or snakeviz); implies --profile",
    )
    args = parser.parse_args(argv)
    if args.profile_out:
        args.profile = True
    if args.check_invariants:
        # The environment is the one channel every Simulator sees —
        # including those built inside sweep worker processes, which
        # inherit it across the fork/spawn boundary.
        os.environ["REPRO_CHECK_INVARIANTS"] = "1"
    if args.trace_out is not None and args.trace is None:
        parser.error("--trace-out requires --trace")
    if args.trace is not None:
        from repro.obs import TraceSpec

        try:
            spec = TraceSpec.parse(args.trace)
        except ValueError as exc:
            parser.error(f"--trace: {exc}")
        # Same channel as --check-invariants: the environment reaches
        # every Simulator, inline or in a sweep worker.
        os.environ["REPRO_TRACE"] = spec.to_string()
        if args.trace_out is not None:
            os.environ["REPRO_TRACE_OUT"] = args.trace_out
    args.protocols = [p.strip() for p in args.protocols.split(",") if p.strip()]
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if not args.protocols:
        parser.error("--protocols must name at least one protocol")
    from repro.tcp.factory import source_class

    for protocol in args.protocols:
        try:
            source_class(protocol)
        except ValueError as exc:
            parser.error(str(exc))

    names = sorted(set(EXPERIMENTS)) if args.experiment == "all" else [args.experiment]

    args.fault_plan_json = None
    if args.fault_plan is not None:
        from repro.faults import FaultPlan

        try:
            with open(args.fault_plan, "r", encoding="utf-8") as fh:
                args.fault_plan_json = fh.read()
            FaultPlan.from_json(args.fault_plan_json)  # validate early
        except (OSError, ValueError, KeyError, TypeError) as exc:
            parser.error(f"--fault-plan {args.fault_plan}: {exc}")
        if not any(EXPERIMENTS[name].accepts_fault_plan for name in names):
            parser.error(
                f"--fault-plan: experiment {args.experiment!r} does not "
                "take a fault plan (try the 'faults' experiment)"
            )

    args.replay_rows = None
    if args.arrivals is not None and args.replay is not None:
        parser.error("--arrivals and --replay are mutually exclusive")
    if args.arrivals is not None or args.replay is not None:
        flag = "--arrivals" if args.arrivals is not None else "--replay"
        if not any(EXPERIMENTS[name].accepts_openloop for name in names):
            parser.error(
                f"{flag}: experiment {args.experiment!r} does not take "
                "an open-loop schedule (try the 'openloop' experiment)"
            )
    if args.arrivals is not None:
        from repro.http.openloop import parse_arrivals

        try:
            parse_arrivals(args.arrivals)  # validate early
        except ValueError as exc:
            parser.error(f"--arrivals: {exc}")
    if args.replay is not None:
        from repro.http.openloop import load_trace

        try:
            schedule = load_trace(args.replay)
        except (OSError, ValueError) as exc:
            parser.error(f"--replay {args.replay}: {exc}")
        args.replay_rows = tuple(
            (r.time, r.session, r.size_bytes) for r in schedule
        )

    cache_root = args.cache_dir or default_cache_dir()
    cache = None
    if not args.no_cache:
        cache = ResultCache(cache_root)
    if args.resume and args.no_checkpoint:
        parser.error("--resume needs the checkpoint journal (--no-checkpoint given)")
    checkpoint = None
    if not args.no_checkpoint:
        checkpoint_path = args.checkpoint or os.path.join(
            os.path.expanduser(cache_root),
            "checkpoints",
            f"{args.experiment}-{args.preset}-seed{args.seed}.jsonl",
        )
        checkpoint = SweepCheckpoint(checkpoint_path)

    if args.hosts is not None and args.backend != "dispatch":
        parser.error("--hosts requires --backend dispatch")
    retry_policy = None
    if args.retry_policy is not None:
        from repro.runner import RetryPolicy

        try:
            retry_policy = RetryPolicy.parse(args.retry_policy)
        except ValueError as exc:
            parser.error(f"--retry-policy: {exc}")

    backend: Any = args.backend
    quarantine_path = None
    if args.backend == "dispatch":
        from repro.runner.dispatch.hosts import parse_hosts

        hosts = None
        if args.hosts is not None:
            try:
                hosts = parse_hosts(args.hosts)
            except (OSError, ValueError, KeyError) as exc:
                parser.error(f"--hosts {args.hosts}: {exc}")
        # Quarantined points land next to the journal (or the cwd when
        # checkpointing is off) so a failed sweep's evidence survives it.
        if checkpoint is not None:
            quarantine_path = os.path.join(
                os.path.dirname(str(checkpoint.path)),
                f"{args.experiment}-{args.preset}-seed{args.seed}"
                ".quarantine.jsonl",
            )
        else:
            quarantine_path = "quarantine.jsonl"
        backend = create_backend(
            "dispatch",
            hosts=hosts,
            retry_policy=retry_policy,
            task_timeout=args.timeout,
            quarantine_path=quarantine_path,
        )
    runner = SweepRunner(
        jobs=args.jobs,
        cache=cache,
        timeout=args.timeout,
        retry_policy=retry_policy,
        progress=args.progress,
        label=args.experiment,
        checkpoint=checkpoint,
        resume=args.resume,
        backend=backend,
    )
    artifacts = {}
    totals = {"hits": 0, "executed": 0, "quarantined": 0}

    def run_selected() -> None:
        seen: set[str] = set()
        for name in names:
            exp = EXPERIMENTS[name]
            if exp.id in seen:  # aliases (fig2, fig6, table1...) run once
                continue
            seen.add(exp.id)
            print(f"=== {name} (preset={args.preset}) ===")
            start = time.perf_counter()
            artifacts[name] = _run_one(name, exp, runner, args)
            stats = runner.last_stats
            if stats is not None:
                totals["hits"] += stats.cache_hits
                totals["executed"] += stats.executed
                totals["quarantined"] += stats.quarantined
            note = ""
            if stats is not None and stats.cache_hits:
                note += f", {stats.cache_hits}/{stats.total_points} cached"
            if stats is not None and stats.resumed:
                note += f", {stats.resumed}/{stats.total_points} resumed"
            if stats is not None and stats.quarantined:
                note += f", {stats.quarantined} QUARANTINED"
            print(f"    [{time.perf_counter() - start:.1f}s{note}]\n")

    interrupted = False
    try:
        if args.profile:
            import cProfile
            import pstats

            profiler = cProfile.Profile()
            profiler.enable()
            try:
                run_selected()
            finally:
                profiler.disable()
                if args.profile_out:
                    profiler.dump_stats(args.profile_out)
                    print(f"profile written to {args.profile_out}", file=sys.stderr)
                stats = pstats.Stats(profiler, stream=sys.stderr)
                stats.sort_stats("cumulative").print_stats(25)
        else:
            run_selected()
    except KeyboardInterrupt as interrupt:
        # Completed points are already fsynced to the checkpoint; tell
        # the user how to pick the sweep back up and exit like an
        # interrupted process should (128 + SIGINT).
        interrupted = True
        done = 0
        if isinstance(interrupt, SweepInterrupted):
            done = (interrupt.stats.executed + interrupt.stats.cache_hits
                    + interrupt.stats.resumed)
        print("\ninterrupted", file=sys.stderr)
        if checkpoint is not None:
            print(
                f"  {done} completed point(s) journalled to {checkpoint.path}\n"
                "  re-run the same command with --resume to finish the sweep",
                file=sys.stderr,
            )
    total_hits, total_executed = totals["hits"], totals["executed"]
    if args.trace is not None and not interrupted:
        from repro.obs.capture import trace_dir

        print(
            f"traces written to {trace_dir()}/ "
            "(render with: python -m repro.experiments trace <file>)"
        )
    if args.output and not interrupted:
        from repro.experiments.store import save_results

        path = save_results(
            args.output,
            experiment=args.experiment,
            payload=artifacts,
            preset=args.preset,
            seed=args.seed,
            metadata={
                "jobs": args.jobs,
                "cache_hits": total_hits,
                "executed_points": total_executed,
            },
        )
        print(f"results written to {path}")
    if interrupted:
        return 130
    if totals["quarantined"]:
        # The sweep *completed* — every healthy point has its result —
        # but a quarantined point is a reproducible failure that must
        # not pass silently.
        print(
            f"{totals['quarantined']} point(s) quarantined"
            + (
                f"; tracebacks in {quarantine_path}"
                if quarantine_path is not None
                else ""
            ),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
