"""Chaos matrix: injected faults across serial/parallel and both engines.

Every recovery path in the harness is proven here against the
deterministic fault-injection sites of :mod:`repro.harness.faults`:
worker crashes, hangs, engine traps, assembly errors, cache rot, and
watchdog timeouts.  The rule under test: a workload's own failure is
terminal after one attempt; only a task the pool lost (dead worker,
parent deadline) is retried, up to ``MAX_ATTEMPTS``.  The core
invariant throughout: whatever happens to the faulted workload, the
*surviving* results are bit-identical (via :func:`result_digest`) to a
fault-free run.
"""

from __future__ import annotations

import dataclasses
import logging

import pytest

from repro.harness import faults, runner
from repro.harness.failures import (
    KIND_COMPILE,
    KIND_SIM_TRAP,
    KIND_TIMEOUT,
    KIND_WORKER_CRASH,
    SuiteReport,
    WorkloadTimeout,
    result_digest,
)
from repro.harness.parallel import MAX_ATTEMPTS
from repro.harness.runner import SuiteConfig, run_suite, set_cache_dir
from repro.sim.errors import SimError
from repro.workloads import get_workload

#: Small windows keep the matrix fast; the analyzers all still run.
_CHAOS = SuiteConfig(limit_instructions=3_000)
_NAMES = ("go", "compress")


def _plan(spec: str, **overrides) -> SuiteConfig:
    return dataclasses.replace(_CHAOS, fault_plan=spec, **overrides)


def _attempts(report: SuiteReport, name: str) -> list:
    """The attempt numbers of ``name``'s failure records, in order.

    A crashing worker can also take down a poolmate still in flight, so
    pool tests pin the faulted workload's sequence, not the whole list.
    """
    return [record.attempt for record in report.history if record.workload == name]


@pytest.fixture(autouse=True)
def isolated_state():
    """Fresh memory cache, no disk cache, no armed plan, per test."""
    saved = dict(runner._CACHE)
    runner._CACHE.clear()
    previous_dir = runner.cache_directory()
    set_cache_dir(None)
    faults.install_plan(None)
    try:
        yield
    finally:
        faults.install_plan(None)
        set_cache_dir(previous_dir)
        runner._CACHE.clear()
        runner._CACHE.update(saved)


@pytest.fixture(scope="module")
def baselines():
    """Fault-free digests of both workloads."""
    saved = dict(runner._CACHE)
    runner._CACHE.clear()
    try:
        clean = run_suite(_CHAOS, names=_NAMES)
        yield {name: result_digest(result) for name, result in clean.items()}
    finally:
        runner._CACHE.clear()
        runner._CACHE.update(saved)


class TestWorkerCrash:
    def test_partial_results_with_terminal_crash(self, baselines):
        """Acceptance: crasher fails with attempts == MAX_ATTEMPTS, the
        survivors are bit-identical to a fault-free run."""
        report = run_suite(
            _plan("worker.crash:go"), names=_NAMES, jobs=2, strict=False
        )
        assert isinstance(report, SuiteReport) and report.partial
        record = report.failures["go"]
        assert record.kind == KIND_WORKER_CRASH
        assert record.attempts == MAX_ATTEMPTS
        assert "go" not in report
        assert result_digest(report["compress"]) == baselines["compress"]
        assert len(report.failures) == 1
        assert _attempts(report, "go") == list(range(1, MAX_ATTEMPTS + 1))

    def test_first_attempt_crash_recovers(self, baselines):
        report = run_suite(
            _plan("worker.crash:go@1"), names=_NAMES, jobs=2, strict=False
        )
        assert report.ok
        assert result_digest(report["go"]) == baselines["go"]
        assert result_digest(report["compress"]) == baselines["compress"]
        assert report["go"].manifest.attempts == 2
        assert report["go"].manifest.failures  # the crash is on record
        assert _attempts(report, "go") == [1]
        assert not report.failures


class TestEngineTraps:
    """A sim-trap is terminal under either engine: the runner never
    re-runs the workload on another engine, and the record names the
    engine that trapped."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_predecode_trap_is_terminal(self, jobs, baselines):
        config = _plan("engine.raise:go")
        report = run_suite(config, names=_NAMES, jobs=jobs, strict=False)
        record = report.failures["go"]
        assert record.kind == KIND_SIM_TRAP and record.injected
        assert record.engine == "predecoded"
        assert record.attempts == 1
        assert "go" not in report
        assert result_digest(report["compress"]) == baselines["compress"]
        assert [(r.workload, r.attempt) for r in report.history] == [("go", 1)]
        assert len(report.failures) == 1
        assert runner.cached_result(get_workload("go"), config) is None

    def test_interpreter_trap_is_terminal(self, baselines):
        report = run_suite(
            _plan("engine.raise:go", engine="interpreter"),
            names=_NAMES,
            jobs=1,
            strict=False,
        )
        record = report.failures["go"]
        assert record.kind == KIND_SIM_TRAP
        assert record.engine == "interpreter"
        assert record.attempts == 1
        assert result_digest(report["compress"]) == baselines["compress"]

    def test_strict_raises_the_trap(self):
        with pytest.raises(SimError, match="engine.raise"):
            run_suite(_plan("engine.raise:go"), names=("go",))


class TestAsmError:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("engine", ["predecoded", "interpreter"])
    def test_compile_error_is_terminal_everywhere(self, jobs, engine):
        report = run_suite(
            _plan("asm.error:go", engine=engine),
            names=("go",),
            jobs=jobs,
            strict=False,
        )
        record = report.failures["go"]
        assert record.kind == KIND_COMPILE and record.injected
        assert record.attempts == 1  # permanent: no retries burned
        assert [r.attempt for r in report.history] == [1]


class TestCacheFaults:
    def test_corrupt_entry_self_heals(self, tmp_path, baselines, caplog):
        set_cache_dir(str(tmp_path / "cache"))
        config = _plan("cache.corrupt:compress")
        first = run_suite(config, names=("compress",), strict=False)
        assert first.ok
        # The store was scribbled: a fresh process (cleared memory
        # layer) hits the corrupt entry, evicts it, and recomputes.
        runner._CACHE.clear()
        with caplog.at_level(logging.WARNING, logger="repro.harness.cache"):
            second = run_suite(config, names=("compress",), strict=False)
        assert second.ok
        assert result_digest(second["compress"]) == baselines["compress"]
        assert second["compress"].manifest.cache == "computed"
        evictions = [r for r in caplog.records if "corrupt result-cache entry" in r.message]
        assert len(evictions) == 1

    def test_torn_write_does_not_fail_the_run(self, tmp_path, caplog):
        """install_result swallows store errors: the computed result
        survives in memory even when the disk write dies mid-flight."""
        cache_dir = tmp_path / "cache"
        set_cache_dir(str(cache_dir))
        config = _plan("cache.torn_write:compress")
        plan = faults.FaultPlan.parse(config.fault_plan)
        faults.install_plan(plan)  # run_suite keeps an armed plan
        with caplog.at_level(logging.WARNING, logger="repro.harness.runner"):
            report = run_suite(config, names=("compress",), strict=False)
        assert report.ok
        store_errors = [
            r for r in caplog.records if "persistent-cache store failed" in r.message
        ]
        assert len(store_errors) == 1
        assert [spec.fired for spec in plan.specs] == [1]
        assert not list(cache_dir.glob("*.pkl"))
        assert not list(cache_dir.glob("*.tmp"))


class TestWatchdog:
    def test_serial_timeout_is_a_terminal_failure(self, baselines):
        # No instruction limit: compress runs long enough (~190k steps)
        # for a 1ms watchdog to fire mid-simulation.
        config = SuiteConfig()
        report = run_suite(config, names=_NAMES, strict=False, timeout_s=0.001)
        assert set(report.failures) == {"go", "compress"}
        for record in report.failures.values():
            assert record.kind == KIND_TIMEOUT
            assert record.attempts == 1  # serial timeouts are permanent

    def test_serial_timeout_strict_raises(self):
        with pytest.raises(WorkloadTimeout):
            run_suite(SuiteConfig(), names=("compress",), timeout_s=0.001)

    def test_pool_watchdog_timeout_is_terminal(self):
        """The in-worker watchdog is as deterministic as the serial one:
        its timeout is the workload's own failure, never retried."""
        report = run_suite(
            SuiteConfig(), names=_NAMES, jobs=2, strict=False, timeout_s=0.2
        )
        assert set(report.failures) == {"go", "compress"}
        for record in report.failures.values():
            assert record.kind == KIND_TIMEOUT
            assert record.attempts == 1
        assert [r.attempt for r in report.history] == [1, 1]

    def test_parallel_hang_hits_parent_deadline(self, baselines):
        """A hang the in-worker watchdog cannot see is lost to the
        parent's deadline, then recovers in an isolated retry pool."""
        report = run_suite(
            _plan("worker.hang:go@1"),
            names=_NAMES,
            jobs=2,
            strict=False,
            timeout_s=0.5,
        )
        assert report.ok
        assert result_digest(report["go"]) == baselines["go"]
        assert result_digest(report["compress"]) == baselines["compress"]
        manifest = report["go"].manifest
        assert manifest.attempts == 2
        assert [record["kind"] for record in manifest.failures] == [KIND_TIMEOUT]
        assert _attempts(report, "go") == [1]
        assert not report.failures


class TestZeroFaultRuns:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_no_recovery_counters_without_faults(self, jobs):
        """CI gate twin: a clean run's report and manifests show zero
        recovery activity."""
        report = run_suite(_CHAOS, names=_NAMES, jobs=jobs)
        assert report.ok and not report.history and not report.failures
        assert list(report) == list(_NAMES)
        for result in report.values():
            assert result.manifest.attempts == 1
            assert result.manifest.failures == []
