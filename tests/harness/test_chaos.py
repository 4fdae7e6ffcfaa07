"""Chaos matrix: real faults across serial/parallel and both engines.

Every recovery path in the harness is proven here against genuine
failures caused at its real seams (see :mod:`tests.harness.seams`): a
pool worker that dies or hangs, a program that traps, a program that
does not compile, a rotten cache entry and a failing cache write.  The
rule under test: a workload's own failure is terminal after one
attempt; only a task the pool lost (dead worker, parent deadline) is
retried, up to ``MAX_ATTEMPTS``.  The core invariant throughout:
whatever happens to the faulted workload, the *surviving* results are
bit-identical (via :func:`result_digest`) to a fault-free run.
"""

from __future__ import annotations

import dataclasses
import logging
import os

import pytest

from repro.harness import runner
from repro.harness.cache import ResultCache
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
from repro.lang.errors import ParseError
from repro.sim.errors import SimError
from repro.workloads import get_workload
from tests.harness.seams import break_workload, fault_pool

#: Small windows keep the matrix fast; the analyzers all still run.
_CHAOS = SuiteConfig(limit_instructions=3_000)
_NAMES = ("go", "compress")

pytestmark = pytest.mark.usefixtures("isolated_runner")


def _fault(monkeypatch, fault: str, jobs: int) -> None:
    """Give ``go`` a trapping or malformed program on the ``jobs`` path."""
    if jobs == 1:
        break_workload(monkeypatch, fault)
    else:
        fault_pool(monkeypatch, fault)


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
    def test_partial_results_with_terminal_crash(self, baselines, monkeypatch):
        """Acceptance: crasher fails with attempts == MAX_ATTEMPTS, the
        survivors are bit-identical to a fault-free run."""
        fault_pool(monkeypatch, "crash")
        report = run_suite(_CHAOS, names=_NAMES, jobs=2, strict=False)
        assert isinstance(report, SuiteReport)
        record = report.failures["go"]
        assert record.kind == KIND_WORKER_CRASH
        assert record.attempts == MAX_ATTEMPTS
        assert "go" not in report
        assert result_digest(report["compress"]) == baselines["compress"]
        assert len(report.failures) == 1

    def test_first_attempt_crash_recovers(self, baselines, monkeypatch):
        fault_pool(monkeypatch, "crash", on_attempt=1)
        report = run_suite(_CHAOS, names=_NAMES, jobs=2, strict=False)
        assert not report.failures
        assert result_digest(report["go"]) == baselines["go"]
        assert result_digest(report["compress"]) == baselines["compress"]
        manifest = report["go"].manifest
        assert manifest.attempts == 2
        # The crash is on record with the result it preceded.
        assert [(f["kind"], f["attempt"]) for f in manifest.failures] == [
            (KIND_WORKER_CRASH, 1)
        ]


class TestEngineTraps:
    """A sim-trap is terminal under either engine: the runner never
    re-runs the workload on another engine, and the record names the
    engine that trapped."""

    @staticmethod
    def _assert_terminal_trap(report, config, engine, baselines):
        record = report.failures["go"]
        assert record.kind == KIND_SIM_TRAP
        assert "pc outside text segment" in record.message
        assert record.engine == engine
        assert record.attempts == 1
        assert "go" not in report
        assert result_digest(report["compress"]) == baselines["compress"]
        assert len(report.failures) == 1
        assert runner.cached_result(get_workload("go"), config) is None

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_predecode_trap_is_terminal(self, jobs, baselines, monkeypatch):
        _fault(monkeypatch, "trap", jobs)
        report = run_suite(_CHAOS, names=_NAMES, jobs=jobs, strict=False)
        self._assert_terminal_trap(report, _CHAOS, "predecoded", baselines)

    def test_interpreter_trap_is_terminal(self, baselines, monkeypatch):
        config = dataclasses.replace(_CHAOS, engine="interpreter")
        break_workload(monkeypatch, "trap")
        report = run_suite(config, names=_NAMES, jobs=1, strict=False)
        self._assert_terminal_trap(report, config, "interpreter", baselines)

    def test_interpreter_trap_in_a_pool_is_terminal(self, baselines, monkeypatch):
        config = dataclasses.replace(_CHAOS, engine="interpreter")
        fault_pool(monkeypatch, "trap")
        report = run_suite(config, names=_NAMES, jobs=2, strict=False)
        self._assert_terminal_trap(report, config, "interpreter", baselines)

    def test_strict_raises_the_trap(self, monkeypatch):
        break_workload(monkeypatch, "trap")
        with pytest.raises(SimError, match="pc outside text segment") as excinfo:
            run_suite(_CHAOS, names=("go",))
        # It came out of the engine's own trap path, which annotates it.
        assert excinfo.value.engine == "predecoded"


class TestAsmError:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("engine", ["predecoded", "interpreter"])
    def test_compile_error_is_terminal_everywhere(self, jobs, engine, monkeypatch):
        _fault(monkeypatch, "compile-error", jobs)
        config = dataclasses.replace(_CHAOS, engine=engine)
        report = run_suite(config, names=("go",), jobs=jobs, strict=False)
        record = report.failures["go"]
        assert record.kind == KIND_COMPILE
        assert record.exception_type == ParseError.__name__
        assert record.attempts == 1  # permanent: no retries burned


class TestCacheFaults:
    def test_corrupt_entry_self_heals(self, tmp_path, baselines, caplog):
        cache_dir = tmp_path / "cache"
        set_cache_dir(str(cache_dir))
        first = run_suite(_CHAOS, names=("compress",), strict=False)
        assert not first.failures
        # Rot the entry on disk: a fresh process (cleared memory layer)
        # hits it, evicts it, and recomputes.
        ResultCache(cache_dir).path_for("compress", _CHAOS).write_bytes(b"\xde\xad")
        runner._CACHE.clear()
        with caplog.at_level(logging.WARNING, logger="repro.harness.cache"):
            second = run_suite(_CHAOS, names=("compress",), strict=False)
        assert not second.failures
        assert result_digest(second["compress"]) == baselines["compress"]
        assert second["compress"].manifest.cache == "computed"
        evictions = [r for r in caplog.records if "corrupt result-cache entry" in r.message]
        assert len(evictions) == 1

    def test_torn_write_does_not_fail_the_run(self, tmp_path, caplog, monkeypatch):
        """install_result swallows store errors: the computed result
        survives in memory even when the disk write dies mid-flight."""
        cache_dir = tmp_path / "cache"
        set_cache_dir(str(cache_dir))
        calls = []

        def failing_fsync(fd):
            calls.append(fd)
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with caplog.at_level(logging.WARNING, logger="repro.harness.runner"):
            report = run_suite(_CHAOS, names=("compress",), strict=False)
        assert not report.failures and "compress" in report
        store_errors = [
            r for r in caplog.records if "persistent-cache store failed" in r.message
        ]
        assert len(store_errors) == 1
        assert len(calls) == 1
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

    def test_parallel_hang_hits_parent_deadline(self, baselines, monkeypatch):
        """A hang the in-worker watchdog cannot see is lost to the
        parent's deadline, then recovers in an isolated retry pool."""
        fault_pool(monkeypatch, "hang", on_attempt=1)
        report = run_suite(_CHAOS, names=_NAMES, jobs=2, strict=False, timeout_s=0.5)
        assert not report.failures
        assert result_digest(report["go"]) == baselines["go"]
        assert result_digest(report["compress"]) == baselines["compress"]
        manifest = report["go"].manifest
        assert manifest.attempts == 2
        assert [(f["kind"], f["attempt"]) for f in manifest.failures] == [
            (KIND_TIMEOUT, 1)
        ]


class TestZeroFaultRuns:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_no_recovery_counters_without_faults(self, jobs):
        """CI gate twin: a clean run's report and manifests show zero
        recovery activity."""
        report = run_suite(_CHAOS, names=_NAMES, jobs=jobs)
        assert not report.failures
        assert list(report) == list(_NAMES)
        for result in report.values():
            assert result.manifest.attempts == 1
            assert result.manifest.failures == []
