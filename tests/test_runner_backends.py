"""The SweepBackend seam: backend equivalence, shm transport, the
cost-aware scheduler, and failure accounting on inline and pooled
backends.

The headline guarantees under test:

* serial, process, and shm backends produce byte-identical merged
  payloads *and* checkpoint journals for the same sweep;
* shared-memory transport round-trips payloads exactly (threshold 0
  forces every result through a segment) and leaves no segment behind;
* scheduler reordering — any permutation at all, by hypothesis — can
  never change merged output, and with cost history present the runner
  submits predicted-longest points first;
* a sweep SIGKILLed under the shm backend resumes under serial (the
  journal is backend-independent);
* the one resolution loop charges errors, timeouts, and transient
  faults to the same budgets whether the backend is inline or pooled;
* the CostModel ledger survives corrupt files and round-trips through
  flush.
"""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import registry
from repro.experiments.base import Experiment, Point
from repro.experiments.store import to_jsonable
from repro.runner import (
    CostModel,
    ResultCache,
    RetryPolicy,
    SerialBackend,
    SweepCheckpoint,
    SweepRunner,
    create_backend,
)
from repro.runner.backends import BACKENDS, SharedMemoryBackend
from repro.runner.checkpoint import digest_params
from repro.sim.randomness import derive_seed
from tests.helpers import ThreadPoolBackend


@dataclasses.dataclass
class _ToyParams:
    protocol: str = "reno"

    @classmethod
    def paper(cls, protocol="reno", **overrides):
        return cls(protocol=protocol, **overrides)

    @classmethod
    def quick(cls, protocol="reno", **overrides):
        return cls(protocol=protocol, **overrides)


class _SpyExperiment(Experiment):
    """Records execution order; results depend only on (label, seed)."""

    id = "toy-backend-spy"
    title = "backend test double"
    params_cls = _ToyParams

    def __init__(self, n_points=4):
        self.n_points = n_points
        self.executed = []

    def points(self, params):
        return [Point(f"p{i}", {"i": i}) for i in range(self.n_points)]

    def run_point(self, params, point, seed):
        self.executed.append(point.label)
        return {"label": point.label, "seed": seed}

    def reduce(self, params, points, results):
        return list(results)


def _journal_point_lines(path):
    """The journal's point records (header lines filtered), sorted."""
    lines = [
        line
        for line in Path(path).read_text().splitlines()
        if line and '"result"' in line
    ]
    return sorted(lines)


# ----------------------------------------------------------------------
# Cross-backend equivalence on a real experiment
# ----------------------------------------------------------------------

class TestBackendEquivalence:
    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        """The serial run every other backend must match."""
        return self._sweep("serial", tmp_path_factory.mktemp("ref"))

    @staticmethod
    def _sweep(backend, tmp_path):
        experiment = registry.get("incast")
        params = experiment.make_params(
            "quick", protocol="reno", sender_counts=(2, 3),
            block_bytes=16 * 1024,
        )
        journal = tmp_path / f"{backend}.jsonl"
        runner = SweepRunner(
            jobs=2,
            cache=None,
            backend=backend,
            checkpoint=SweepCheckpoint(journal),
        )
        payload = runner.run(experiment, params, seed=3)
        return payload, _journal_point_lines(journal), runner.last_stats

    @pytest.mark.parametrize("backend", ["process", "shm"])
    def test_payloads_and_journals_identical(
        self, backend, reference, tmp_path
    ):
        ref_payload, ref_journal, _ = reference
        payload, journal, stats = self._sweep(backend, tmp_path)
        assert to_jsonable(payload) == to_jsonable(ref_payload)
        # Journal records hold base64 pickles: byte-identical means the
        # transported results are byte-identical, not merely equal.
        assert journal == ref_journal
        assert stats.backend == backend
        assert stats.failures == []

    def test_stats_name_serial(self, reference):
        assert reference[2].backend == "serial"


class TestOpenLoopBackendEquivalence:
    """One openloop point (seeded schedule + driver) is byte-identical
    under every backend — the open-loop engine's determinism crosses
    the pickle and shared-memory transports intact."""

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        return self._sweep("serial", tmp_path_factory.mktemp("ol-ref"))

    @staticmethod
    def _sweep(backend, tmp_path):
        experiment = registry.get("openloop")
        params = experiment.make_params(
            "quick", protocol="reno", load_factors=(1.0,),
        )
        journal = tmp_path / f"{backend}.jsonl"
        runner = SweepRunner(
            jobs=2,
            cache=None,
            backend=backend,
            checkpoint=SweepCheckpoint(journal),
        )
        payload = runner.run(experiment, params, seed=11)
        return payload, _journal_point_lines(journal), runner.last_stats

    @pytest.mark.parametrize("backend", ["process", "shm"])
    def test_payloads_and_journals_identical(
        self, backend, reference, tmp_path
    ):
        ref_payload, ref_journal, _ = reference
        payload, journal, stats = self._sweep(backend, tmp_path)
        assert to_jsonable(payload) == to_jsonable(ref_payload)
        assert journal == ref_journal
        assert stats.backend == backend
        assert stats.failures == []

    def test_point_actually_simulated(self, reference):
        payload = reference[0]
        assert len(payload) == 1
        assert payload[0].completed == payload[0].offered > 0


# ----------------------------------------------------------------------
# Shared-memory transport
# ----------------------------------------------------------------------

class TestSharedMemoryTransport:
    @pytest.fixture
    def spy(self):
        experiment = _SpyExperiment()
        registry._ensure_loaded()
        registry._REGISTRY[experiment.id] = experiment
        yield experiment
        registry._REGISTRY.pop(experiment.id, None)

    def test_threshold_zero_forces_segments_and_round_trips(self, spy):
        # threshold 0: every result, however small, travels via shm.
        runner = SweepRunner(
            jobs=2, backend=SharedMemoryBackend(threshold_bytes=0)
        )
        payload = runner.run(spy, _ToyParams(), seed=9)
        assert payload == [
            {"label": f"p{i}", "seed": derive_seed(9, f"{spy.id}/p{i}")}
            for i in range(4)
        ]
        assert runner.last_stats.backend == "shm"

    def test_matches_serial_payload_exactly(self, spy):
        serial = SweepRunner(backend="serial").run(spy, _ToyParams(), seed=2)
        shm = SweepRunner(
            jobs=2, backend=SharedMemoryBackend(threshold_bytes=0)
        ).run(spy, _ToyParams(), seed=2)
        assert shm == serial

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold_bytes"):
            SharedMemoryBackend(threshold_bytes=-1)


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------

class TestBackendSelection:
    @pytest.fixture
    def spy(self):
        # Non-inline backends resolve experiments by id in the worker.
        experiment = _SpyExperiment()
        registry._ensure_loaded()
        registry._REGISTRY[experiment.id] = experiment
        yield experiment
        registry._REGISTRY.pop(experiment.id, None)

    def test_create_backend_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="process.*serial.*shm"):
            create_backend("threads")

    def test_registry_names(self):
        assert set(BACKENDS) == {"serial", "process", "shm"}

    def test_dispatch_machinery_loads_only_on_demand(self):
        probe = (
            "import sys\n"
            "import repro.runner\n"
            "heavy = ('repro.runner.dispatch.backend',"
            " 'repro.runner.dispatch.frames')\n"
            "assert not any(m in sys.modules for m in heavy), 'eager'\n"
            "backend = repro.runner.create_backend('dispatch')\n"
            "assert type(backend).__name__ == 'DispatchBackend'\n"
        )
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
        )
        subprocess.run(
            [sys.executable, "-c", probe], env=env, check=True, timeout=60.0
        )

    def test_runner_rejects_non_backend_object(self):
        with pytest.raises(TypeError, match="SweepBackend"):
            SweepRunner(backend=object())

    def test_serial_backend_ignores_jobs(self):
        spy = _SpyExperiment()
        runner = SweepRunner(jobs=4, backend="serial")
        runner.run(spy, _ToyParams(), seed=0)
        assert runner.last_stats.backend == "serial"
        assert spy.executed == ["p0", "p1", "p2", "p3"]

    def test_custom_pool_backend(self, spy):
        # A custom executor plugs in as a ProcessPoolBackend subclass.
        runner = SweepRunner(jobs=2, backend=ThreadPoolBackend())
        payload = runner.run(spy, _ToyParams(), seed=1)
        assert [r["label"] for r in payload] == ["p0", "p1", "p2", "p3"]


# ----------------------------------------------------------------------
# Scheduling
# ----------------------------------------------------------------------

class TestScheduler:
    @settings(max_examples=25, deadline=None)
    @given(perm=st.permutations(tuple(range(5))))
    def test_any_submission_order_same_merged_payload(self, perm):
        """Reordering is submission-side only: merge is by point index."""

        class Reordering(SweepRunner):
            def _ordered(self, pending, stats):
                return [pending[i] for i in perm]

        baseline = SweepRunner().run(
            _SpyExperiment(n_points=5), _ToyParams(), seed=7
        )
        shuffled = Reordering().run(
            _SpyExperiment(n_points=5), _ToyParams(), seed=7
        )
        assert shuffled == baseline

    def test_cost_history_orders_longest_first(self, tmp_path):
        spy = _SpyExperiment(n_points=4)
        params = _ToyParams()
        digest = digest_params(params)
        cache = ResultCache(tmp_path / "cache")
        # History for p1 and p3 only: unknowns (p0, p2) keep submission
        # order and go first, then known points longest-first.
        cache.costs.observe(CostModel.key(spy.id, "p1", digest), 0.5)
        cache.costs.observe(CostModel.key(spy.id, "p3", digest), 2.0)
        runner = SweepRunner(cache=cache, backend="serial")
        runner.run(spy, params, seed=4)
        assert spy.executed == ["p0", "p2", "p3", "p1"]
        assert runner.last_stats.reordered > 0

    def test_observed_costs_flushed_after_dispatch(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        runner = SweepRunner(cache=cache, backend="serial")
        spy = _SpyExperiment(n_points=2)
        runner.run(spy, _ToyParams(), seed=1)
        # A fresh CostModel on the same path must see the measurements.
        reloaded = CostModel(tmp_path / "cache" / "costs.json")
        digest = digest_params(_ToyParams())
        for label in ("p0", "p1"):
            assert reloaded.predict(CostModel.key(spy.id, label, digest)) is not None


# ----------------------------------------------------------------------
# The CostModel ledger
# ----------------------------------------------------------------------

class TestCostModel:
    def test_predict_without_history_is_none(self, tmp_path):
        model = CostModel(tmp_path / "costs.json")
        assert model.predict("fig8/p0@abc") is None

    def test_ewma_half_old_half_new(self, tmp_path):
        model = CostModel(tmp_path / "costs.json")
        model.observe("k", 2.0)
        assert model.predict("k") == 2.0
        model.observe("k", 4.0)
        assert model.predict("k") == 3.0

    def test_negative_observation_ignored(self, tmp_path):
        model = CostModel(tmp_path / "costs.json")
        model.observe("k", -1.0)
        assert model.predict("k") is None

    def test_flush_round_trip(self, tmp_path):
        path = tmp_path / "costs.json"
        model = CostModel(path)
        model.observe("a", 1.5)
        model.flush()
        assert CostModel(path).predict("a") == 1.5

    def test_corrupt_file_means_empty(self, tmp_path):
        path = tmp_path / "costs.json"
        path.write_text("{not json")
        model = CostModel(path)
        assert model.predict("a") is None
        model.observe("a", 1.0)
        model.flush()  # and flush repairs the file
        assert CostModel(path).predict("a") == 1.0

    def test_in_memory_model_flush_is_noop(self):
        model = CostModel(None)
        model.observe("a", 1.0)
        model.flush()
        assert model.predict("a") == 1.0

    def test_key_excludes_seed_by_construction(self):
        # Different sweeps (seeds) share one history entry per point.
        assert CostModel.key("fig8", "p0", "d1") == "fig8/p0@d1"


# ----------------------------------------------------------------------
# Journal headers and cross-backend resume
# ----------------------------------------------------------------------

class TestJournalHeader:
    def test_header_round_trip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        ckpt = SweepCheckpoint(path)
        ckpt.write_header(backend="shm", jobs=4)
        ckpt.record("toy", "p0", 1, "ok")
        ckpt.close()
        loaded = SweepCheckpoint(path)
        assert loaded.load() == {("toy", "p0", 1, ""): "ok"}
        assert loaded.header["backend"] == "shm"
        assert loaded.header["jobs"] == 4

    def test_runner_writes_header_on_dispatch(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        runner = SweepRunner(
            backend="serial", checkpoint=SweepCheckpoint(path)
        )
        runner.run(_SpyExperiment(), _ToyParams(), seed=1)
        first = json.loads(path.read_text().splitlines()[0])
        assert first["backend"] == "serial"
        assert first["jobs"] == 1

    def test_resume_accepts_records_from_another_backend(self, tmp_path):
        spy = _SpyExperiment()
        params = _ToyParams()
        path = tmp_path / "journal.jsonl"
        # A journal "left behind" by a process-backend run that only got
        # through p1 (header + one record, written by hand).  The header
        # is in an older format that still carried a "schedule" key.
        seed_p1 = derive_seed(6, f"{spy.id}/p1")
        header = {"backend": "process", "jobs": 8, "schedule": "cost",
                  "schema": "repro-sweep-journal/1"}
        path.write_text(json.dumps(header) + "\n")
        ckpt = SweepCheckpoint(path)
        ckpt.record(
            spy.id, "p1", seed_p1, {"label": "p1", "seed": seed_p1},
            params_digest=digest_params(params),
        )
        ckpt.close()
        runner = SweepRunner(
            backend="serial", checkpoint=SweepCheckpoint(path), resume=True
        )
        payload = runner.run(spy, params, seed=6)
        assert runner.last_stats.resumed == 1
        assert runner.last_stats.executed == 3
        assert spy.executed == ["p0", "p2", "p3"]  # p1 replayed for free
        baseline = SweepRunner().run(_SpyExperiment(), params, seed=6)
        assert payload == baseline


_SHM_KILL_SCRIPT = """
import dataclasses, json, os, sys, time

from repro.experiments import registry
from repro.experiments.base import Experiment, Point
from repro.runner import SweepCheckpoint, SweepRunner
from repro.runner.backends import SharedMemoryBackend


@dataclasses.dataclass
class Params:
    protocol: str = "reno"


class Sleepy(Experiment):
    id = "toy-shm-kill"
    title = "shm kill -9 target"
    params_cls = Params

    def points(self, params):
        return [Point(f"p{i}", {"i": i}) for i in range(3)]

    def run_point(self, params, point, seed):
        if point.kwargs["i"] >= 1 and os.environ.get("SLOW") == "1":
            time.sleep(60.0)  # parent SIGKILLs us here
        return {"i": point.kwargs["i"], "seed": seed, "f": 0.1 + 0.2}

    def reduce(self, params, points, results):
        return list(results)


# Pool workers fork from this process, inheriting the registration.
registry._ensure_loaded()
registry._REGISTRY[Sleepy.id] = Sleepy()

if os.environ.get("RESUME") == "1":
    # Resume on a *different* backend than the one that crashed.
    runner = SweepRunner(
        checkpoint=SweepCheckpoint(sys.argv[1]), resume=True, backend="serial"
    )
else:
    runner = SweepRunner(
        jobs=2,
        checkpoint=SweepCheckpoint(sys.argv[1]),
        backend=SharedMemoryBackend(threshold_bytes=0),
    )
payload = runner.run(registry.get(Sleepy.id), Params(), seed=5)
print(json.dumps({
    "payload": payload,
    "resumed": runner.last_stats.resumed,
    "executed": runner.last_stats.executed,
    "backend": runner.last_stats.backend,
}))
"""


class TestShmKillDashNine:
    def test_sigkill_under_shm_then_resume_under_serial(self, tmp_path):
        script = tmp_path / "sweep.py"
        script.write_text(_SHM_KILL_SCRIPT)
        journal = tmp_path / "journal.jsonl"
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
        )

        # Run 1 (shm backend): p0's segment-transported result lands in
        # the journal, p1/p2 sleep in workers; SIGKILL the parent.
        proc = subprocess.Popen(
            [sys.executable, str(script), str(journal)],
            env={**env, "SLOW": "1"},
            stdout=subprocess.PIPE,
        )
        try:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if journal.exists() and '"result"' in journal.read_text():
                    break
                time.sleep(0.05)
            else:
                pytest.fail("first point never reached the journal")
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            proc.wait(timeout=30.0)
        assert proc.returncode == -signal.SIGKILL
        loaded = SweepCheckpoint(journal)
        journalled = loaded.load()
        assert [(key[0], key[1]) for key in journalled] == [
            ("toy-shm-kill", "p0")
        ]
        assert loaded.header["backend"] == "shm"

        # Run 2: resume the shm journal on the serial backend.
        resumed = subprocess.run(
            [sys.executable, str(script), str(journal)],
            env={**env, "SLOW": "0", "RESUME": "1"},
            stdout=subprocess.PIPE,
            check=True,
            timeout=60.0,
        )
        outcome = json.loads(resumed.stdout)
        assert outcome["resumed"] == 1
        assert outcome["executed"] == 2
        assert outcome["backend"] == "serial"

        # Reference: an uninterrupted serial run with its own journal.
        fresh = subprocess.run(
            [sys.executable, str(script), str(tmp_path / "fresh.jsonl")],
            env={**env, "SLOW": "0", "RESUME": "0"},
            stdout=subprocess.PIPE,
            check=True,
            timeout=60.0,
        )
        assert outcome["payload"] == json.loads(fresh.stdout)["payload"]


# ----------------------------------------------------------------------
# Failure accounting: the timeouts/errors split and control-flow exits
# ----------------------------------------------------------------------

class _FailingExperiment(_SpyExperiment):
    """Raises for one label; everything else succeeds."""

    id = "toy-backend-failing"

    def run_point(self, params, point, seed):
        if point.label == "p1":
            raise ValueError("broken point")
        return super().run_point(params, point, seed)


class _ExitingExperiment(_SpyExperiment):
    """Calls sys.exit from inside a point."""

    id = "toy-backend-exiting"

    def run_point(self, params, point, seed):
        raise SystemExit(7)


class _SleepyExperiment(_SpyExperiment):
    """Every point sleeps long enough to trip a short runner timeout,
    then succeeds: only the runner's own timer can fail it."""

    id = "toy-backend-sleepy"

    def run_point(self, params, point, seed):
        time.sleep(1.0)
        return super().run_point(params, point, seed)


class _OverrunningExperiment(_SpyExperiment):
    """Every point raises its own deadline error: an inline backend has
    no runner-side timer, so this is how a serial sweep times out."""

    id = "toy-backend-overrunning"

    def run_point(self, params, point, seed):
        time.sleep(1.0)
        raise TimeoutError("point deadline exceeded")


class _FlakyExperiment(_SpyExperiment):
    """Raises ``error`` on the first ``fail_times`` attempts, then works."""

    id = "toy-backend-flaky"

    def __init__(self, error, fail_times):
        super().__init__(n_points=1)
        self.error = error
        self.fail_times = fail_times

    def run_point(self, params, point, seed):
        attempt = len(self.executed)
        self.executed.append(point.label)
        if attempt < self.fail_times:
            raise self.error
        return {"label": point.label, "seed": seed}


def _policy(attempts, transient=8, base_delay=0.0, jitter=0.0):
    return RetryPolicy(
        max_attempts=attempts, transient_budget=transient,
        base_delay=base_delay, jitter=jitter, seed=7,
    )


class _FailureAccountingCases:
    """Budget and classification checks shared by an inline and a
    pooled backend: both go through the runner's one resolution loop."""

    #: Experiment whose single point times out under a 0.1 s timeout,
    #: and the prefix of the failure message that proves who timed it out.
    overrunning: type = _OverrunningExperiment
    timeout_error = ""

    def make_backend(self):
        raise NotImplementedError

    def sweep(self, experiment, retry_policy, timeout=None):
        # A pool resolves experiments by id, so the toy sits in the
        # registry for the sweep's duration.
        registry._ensure_loaded()
        registry._REGISTRY[experiment.id] = experiment
        try:
            runner = SweepRunner(
                jobs=2,
                backend=self.make_backend(),
                retry_policy=retry_policy,
                timeout=timeout,
            )
            runner.run(experiment, _ToyParams(), seed=0)
        finally:
            registry._REGISTRY.pop(experiment.id, None)
        return runner.last_stats

    def test_point_error_lands_in_stats_errors(self):
        with pytest.warns(RuntimeWarning, match="failed"):
            stats = self.sweep(_FailingExperiment(3), _policy(1))
        assert stats.errors == 1
        assert stats.timeouts == 0
        assert len(stats.failures) == 1
        assert stats.failures[0].kind == "deterministic"
        assert stats.failures[0].label == "p1"

    def test_timeout_lands_in_stats_timeouts_with_kind(self):
        with pytest.warns(RuntimeWarning, match="failed"):
            stats = self.sweep(self.overrunning(1), _policy(1), timeout=0.1)
        assert stats.timeouts == 1
        assert stats.errors == 0
        assert len(stats.failures) == 1
        assert stats.failures[0].kind == "timeout"
        assert stats.failures[0].error.startswith(self.timeout_error)

    def test_deterministic_failure_spends_the_point_budget(self):
        experiment = _FlakyExperiment(ValueError("always"), fail_times=99)
        with pytest.warns(RuntimeWarning, match="failed"):
            stats = self.sweep(experiment, _policy(3))
        assert len(experiment.executed) == 3
        assert stats.failures[0].kind == "deterministic"
        assert stats.failures[0].attempts == 3
        assert stats.transient_retries == 0

    def test_flaky_point_recovers_within_budget(self):
        experiment = _FlakyExperiment(ValueError("once"), fail_times=1)
        stats = self.sweep(experiment, _policy(2))
        assert stats.failures == []
        assert stats.executed == 1
        assert len(experiment.executed) == 2

    def test_transient_faults_spare_the_point_budget(self):
        # max_attempts=1 leaves no deterministic retry: only the
        # separate transient budget can carry the point to success.
        experiment = _FlakyExperiment(ConnectionResetError("lost"), 2)
        stats = self.sweep(experiment, _policy(1, transient=2))
        assert stats.failures == []
        assert stats.transient_retries == 2
        assert len(experiment.executed) == 3

    def test_exhausted_transient_budget_fails_with_kind(self):
        experiment = _FlakyExperiment(ConnectionResetError("lost"), 99)
        with pytest.warns(RuntimeWarning, match="failed"):
            stats = self.sweep(experiment, _policy(1, transient=2))
        assert stats.errors == 1
        assert stats.failures[0].kind == "transient"
        assert stats.failures[0].attempts == 3
        assert stats.transient_retries == 2


class TestFailureAccounting(_FailureAccountingCases):
    """The inline backend: attempts run at submit time, one by one."""

    timeout_error = "TimeoutError: point deadline exceeded"

    def make_backend(self):
        return SerialBackend()

    def test_system_exit_propagates_out_of_a_serial_sweep(self):
        # SystemExit is control flow, not a point failure: the serial
        # backend must re-raise it instead of feeding it to the retry
        # loop as if the point had merely errored.
        runner = SweepRunner(jobs=1, backend="serial", retry_policy=_policy(4))
        with pytest.raises(SystemExit):
            runner.run(_ExitingExperiment(2), _ToyParams(), seed=0)
        assert runner.last_stats is None or runner.last_stats.errors == 0

    def test_seeded_backoff_sleeps_between_retries(self, monkeypatch):
        slept = []
        monkeypatch.setattr("repro.runner.engine.time.sleep", slept.append)
        policy = _policy(3, base_delay=0.05, jitter=0.5)
        experiment = _FlakyExperiment(ValueError("always"), fail_times=99)
        with pytest.warns(RuntimeWarning, match="failed"):
            self.sweep(experiment, policy)
        backoff = policy.schedule(f"{experiment.id}/p0")
        assert slept == [backoff.delay(1), backoff.delay(2)]


class TestPooledFailureAccounting(_FailureAccountingCases):
    """A pool backend: first attempts submitted up front, retries
    resubmitted without a backoff sleep."""

    overrunning = _SleepyExperiment
    timeout_error = "timed out after 0.1"

    def make_backend(self):
        return ThreadPoolBackend()

    def test_no_backoff_sleep_between_retries(self, monkeypatch):
        slept = []
        monkeypatch.setattr("repro.runner.engine.time.sleep", slept.append)
        experiment = _FlakyExperiment(ValueError("always"), fail_times=99)
        with pytest.warns(RuntimeWarning, match="failed"):
            self.sweep(experiment, _policy(3, base_delay=0.05, jitter=0.5))
        assert len(experiment.executed) == 3
        assert slept == []


# ----------------------------------------------------------------------
# Shared-memory transport degradation
# ----------------------------------------------------------------------

class TestShmPipeFallback:
    def test_unavailable_shm_rides_the_pipe_and_is_counted(
        self, tmp_path, monkeypatch
    ):
        """With /dev/shm unusable, results still arrive byte-identical —
        and the degradation is visible on ``backend.fallbacks``."""
        import multiprocessing

        experiment = registry.get("incast")
        params = experiment.make_params(
            "quick", protocol="reno", sender_counts=(2, 3),
            block_bytes=16 * 1024,
        )

        def _sweep(backend, journal):
            runner = SweepRunner(
                jobs=2, cache=None, backend=backend,
                checkpoint=SweepCheckpoint(journal),
            )
            runner.run(experiment, params, seed=3)
            return _journal_point_lines(journal)

        reference = _sweep("serial", tmp_path / "serial.jsonl")

        def _no_shm(*args, **kwargs):
            raise OSError("shm unavailable (injected)")

        # threshold 0 forces every result toward a segment; the fork
        # start method makes workers inherit the broken constructor.
        monkeypatch.setattr(
            "multiprocessing.shared_memory.SharedMemory", _no_shm
        )
        backend = SharedMemoryBackend(
            threshold_bytes=0,
            mp_context=multiprocessing.get_context("fork"),
        )
        degraded = _sweep(backend, tmp_path / "shm.jsonl")

        assert degraded == reference
        assert backend.fallbacks >= 2, (
            "every point should have fallen back to the pickle pipe"
        )


# ----------------------------------------------------------------------
# Progress reporting: the timeouts/errors split on operator-facing lines
# ----------------------------------------------------------------------

class TestProgressFailureSplit:
    def test_progress_line_and_summary_split_timeouts_from_errors(self):
        import io

        from repro.runner.progress import ProgressReporter

        stream = io.StringIO()
        reporter = ProgressReporter(label="toy", stream=stream)
        reporter.start(total=5)
        reporter.point_done("p0")
        reporter.point_done("p1", failed=True, kind="timeout")
        reporter.point_done("p2", failed=True, kind="timeout")
        reporter.point_done("p3", failed=True, kind="quarantined")
        reporter.point_done("p4")
        reporter.finish()
        output = stream.getvalue()
        assert "(2 timeouts, 1 error FAILED)" in output
        assert "2 timeouts, 1 error failed" in output.splitlines()[-1]

    def test_clean_run_reports_zero_failed(self):
        import io

        from repro.runner.progress import ProgressReporter

        stream = io.StringIO()
        reporter = ProgressReporter(label="toy", stream=stream)
        reporter.start(total=1)
        reporter.point_done("p0")
        reporter.finish()
        assert "0 failed" in stream.getvalue().splitlines()[-1]
