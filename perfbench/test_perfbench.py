"""Checks on the benchmark itself: seeding, exact reproduction, and the
refusal to run without the program.

Run from the repository root with ``python -m pytest perfbench -q``.
Each test runs a handful of the cheapest units, not a whole workload.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import run
import workloads as wl

#: the seed the README's numbers use, and one kept back for checking
#: claims made with it.
DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017


def _cheap_units(workload: str, seed: int) -> list:
    """The cheapest unit of each kind in the workload's first replica."""
    units = [u for u in wl.make_units(workload, seed) if u.replica == 0]
    if workload == "incast_waves":
        return units[:2]  # the smallest fan-in, Reno and TRIM
    if workload == "web_openloop":
        return units[:2]  # load factors 1 and 2
    return [u for u in units if u.k == 4]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_seed_changes_inputs_and_digest(workload: str) -> None:
    a = _cheap_units(workload, DEFAULT_SEED)
    b = _cheap_units(workload, HELD_OUT_SEED)
    assert a != b
    assert wl.make_units(workload, DEFAULT_SEED) == wl.make_units(workload, DEFAULT_SEED)
    spans = wl.Spans()
    digest_a = wl.combined_digest([wl.run_unit(u, spans) for u in a])
    digest_b = wl.combined_digest([wl.run_unit(u, spans) for u in b])
    assert digest_a != digest_b


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_reproduces_sim_metrics_exactly(workload: str) -> None:
    units = _cheap_units(workload, HELD_OUT_SEED)
    spans = wl.Spans()
    first = [wl.run_unit(u, spans) for u in units]
    again = [wl.run_unit(u, spans) for u in units]
    assert [r.digest for r in first] == [r.digest for r in again]
    assert run.sim_metrics(wl, first) == run.sim_metrics(wl, again)
    for result in first:
        assert not result.violations
        assert result.failed == 0 and result.completed == result.attempted


def test_setup_only_stops_before_the_first_event() -> None:
    unit = _cheap_units("fattree_shuffle", DEFAULT_SEED)[0]
    result = wl.run_unit(unit, wl.Spans(), simulate=False)
    assert result.setup_cpu > 0
    assert result.events == 0 and result.completed == 0


def test_capacity_interpolates_the_p99_curve() -> None:
    def at(factor: float, latency: float, n: int = 100) -> wl.UnitResult:
        return wl.UnitResult(
            fcts=[latency] * n,
            attempted=n,
            sim_span=n / (100.0 * factor),
            load_factor=factor,
        )

    limit = wl.P99_LIMIT_S
    assert wl.capacity_rps([at(1, limit / 2), at(2, limit / 2)]) == pytest.approx(200)
    # Halfway between 100 req/s (p99 = 0) and 200 req/s (p99 = 2 x limit).
    assert wl.capacity_rps([at(1, 0.0), at(2, 2 * limit)]) == pytest.approx(150)
    assert wl.capacity_rps([at(1, 2 * limit)]) == 0.0
    unfinished = at(2, 0.0)
    unfinished.fcts.pop()
    assert wl.capacity_rps([at(1, 0.0), unfinished]) == pytest.approx(100)


def test_reference_loop_matches_its_pin() -> None:
    assert reference.definition_sha256() == reference.PINNED_SHA256
    assert reference.measure() > 0


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    here = Path(run.__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "incast_waves",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
