"""Tests for the failure taxonomy, SuiteReport, and result digests."""

from __future__ import annotations

import pickle

import pytest

from repro.asm.errors import AsmError
from repro.harness.failures import (
    KIND_COMPILE,
    KIND_SIM_TRAP,
    KIND_TIMEOUT,
    KIND_UNKNOWN,
    KIND_WORKER_CRASH,
    FailureRecord,
    SuiteReport,
    WorkloadTimeout,
    classify_failure,
    result_digest,
)
from repro.harness.parallel import run_suite_parallel
from repro.harness.runner import SuiteConfig, run_suite
from repro.lang.errors import MiniCError
from repro.obs.manifest import build_suite_manifest
from repro.sim.errors import SimError


def _classify(exc, **overrides):
    kwargs = dict(workload="go", engine="predecoded", attempt=1)
    kwargs.update(overrides)
    return classify_failure(exc, **kwargs)


class TestClassification:
    def test_sim_error_is_sim_trap(self):
        record = _classify(SimError("bad access", pc=0x40))
        assert record.kind == KIND_SIM_TRAP
        assert record.exception_type == "SimError"

    def test_compile_errors(self):
        assert _classify(AsmError("bad opcode")).kind == KIND_COMPILE
        assert _classify(MiniCError("parse error")).kind == KIND_COMPILE

    def test_broken_pool_is_worker_crash(self):
        from concurrent.futures.process import BrokenProcessPool

        record = _classify(BrokenProcessPool("terminated abruptly"))
        assert record.kind == KIND_WORKER_CRASH

    def test_timeout(self):
        record = _classify(WorkloadTimeout("go", 1.5, "predecoded"))
        assert record.kind == KIND_TIMEOUT
        assert "1.5s" in record.message

    def test_unknown(self):
        assert _classify(RuntimeError("boom")).kind == KIND_UNKNOWN

    def test_record_carries_context(self):
        record = _classify(SimError("x"), workload="gcc", attempt=3)
        assert record.workload == "gcc" and record.attempt == 3
        assert record.attempts == 3
        assert len(record.traceback_digest) == 12

    def test_record_pickles_and_dicts(self):
        record = _classify(SimError("x"))
        clone = pickle.loads(pickle.dumps(record))
        assert clone == record
        as_dict = record.to_dict()
        assert as_dict["kind"] == KIND_SIM_TRAP and "when" in as_dict

    def test_workload_timeout_pickles(self):
        error = WorkloadTimeout("go", 2.0, "interpreter")
        clone = pickle.loads(pickle.dumps(error))
        assert clone.workload == "go" and clone.seconds == 2.0
        assert clone.engine == "interpreter"


class TestSuiteReport:
    def test_behaves_like_a_dict(self):
        report = SuiteReport()
        report["go"] = "result"
        assert list(report) == ["go"] and report["go"] == "result"
        assert report.failures == {}

    def test_failures_flip_partial(self, suite_results):
        """The suite manifest is partial exactly when a workload failed."""
        report = SuiteReport()
        report["go"] = suite_results["go"]
        clean = build_suite_manifest(SuiteConfig(), report, "digest")
        assert clean["partial"] is False and clean["failures"] == {}
        report.failures["gcc"] = FailureRecord(
            kind=KIND_SIM_TRAP,
            workload="gcc",
            engine="predecoded",
            attempt=1,
            message="x",
            exception_type="SimError",
        )
        manifest = build_suite_manifest(
            SuiteConfig(), report, "digest", failures=report.failures
        )
        assert manifest["partial"] is True
        assert manifest["failures"]["gcc"]["kind"] == KIND_SIM_TRAP
        assert manifest["failures"]["gcc"]["attempt"] == 1
        assert list(manifest["workloads"]) == ["go"]

    def test_pickles_with_attributes(self):
        report = SuiteReport(config=SuiteConfig())
        report["go"] = "result"
        report.failures["gcc"] = FailureRecord(
            kind=KIND_UNKNOWN,
            workload="gcc",
            engine="predecoded",
            attempt=2,
            message="x",
            exception_type="RuntimeError",
        )
        clone = pickle.loads(pickle.dumps(report))
        assert dict(clone) == {"go": "result"}
        assert clone.failures["gcc"].attempt == 2
        assert clone.config == SuiteConfig()


class TestInputValidation:
    def test_run_suite_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            run_suite(SuiteConfig(), names=["go"], jobs=0)
        with pytest.raises(ValueError, match="jobs"):
            run_suite(SuiteConfig(), names=["go"], jobs=-2)

    def test_run_suite_parallel_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            run_suite_parallel(SuiteConfig(), names=["go"], jobs=0)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_run_suite_rejects_duplicate_names(self, jobs):
        with pytest.raises(ValueError, match="duplicate workload names: go"):
            run_suite(SuiteConfig(), names=["go", "compress", "go"], jobs=jobs)


class TestResultDigest:
    def test_digest_stable_and_discriminating(self, suite_results):
        go = suite_results["go"]
        compress = suite_results["compress"]
        assert result_digest(go) == result_digest(go)
        assert result_digest(go) != result_digest(compress)

    def test_digest_ignores_manifest(self, suite_results):
        import dataclasses

        go = suite_results["go"]
        annotated = dataclasses.replace(
            go, manifest=dataclasses.replace(go.manifest, attempts=3)
        )
        assert result_digest(annotated) == result_digest(go)

    def test_digest_survives_pickle_roundtrip(self, suite_results):
        go = suite_results["go"]
        clone = pickle.loads(pickle.dumps(go))
        assert result_digest(clone) == result_digest(go)
