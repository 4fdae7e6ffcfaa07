"""Run-manifest tests: provenance fields, aggregation, serialization."""

from __future__ import annotations

import dataclasses
import json
import pickle

import pytest

from repro import __version__
from repro.harness import runner
from repro.harness.failures import result_digest
from repro.harness.runner import SuiteConfig, run_workload, set_cache_dir
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    build_suite_manifest,
    build_workload_manifest,
    write_manifest,
)
from repro.workloads import get_workload

_SMALL = SuiteConfig(limit_instructions=3_000)


def _manifest(name="compress", **config_kwargs):
    config = SuiteConfig(**config_kwargs)
    return build_workload_manifest(name, config, "digest123", {"total": 1.5})


@pytest.fixture
def computed():
    """Freshly simulated small results (memory cache isolated, no disk)."""
    saved = dict(runner._CACHE)
    runner._CACHE.clear()
    previous_dir = runner.cache_directory()
    set_cache_dir(None)
    try:
        yield {
            name: run_workload(get_workload(name), _SMALL)
            for name in ("compress", "go")
        }
    finally:
        set_cache_dir(previous_dir)
        runner._CACHE.clear()
        runner._CACHE.update(saved)


class TestWorkloadManifest:
    def test_records_engine_config_digest_and_timing(self):
        manifest = _manifest(engine="interpreter", scale=2)
        assert manifest.engine == "interpreter"
        assert manifest.config["scale"] == 2
        assert manifest.source_digest == "digest123"
        assert manifest.cache == "computed"
        assert manifest.timing == {"total": 1.5}
        assert manifest.package_version == __version__
        assert manifest.schema == MANIFEST_SCHEMA

    def test_to_dict_is_json_serializable(self):
        assert json.loads(json.dumps(_manifest().to_dict()))["workload"] == "compress"

    def test_pickles_with_cached_results(self):
        manifest = _manifest()
        assert pickle.loads(pickle.dumps(manifest)).to_dict() == manifest.to_dict()

    def test_manifest_attached_to_computed_result(self, computed):
        manifest = computed["compress"].manifest
        assert manifest is not None
        assert manifest.workload == "compress"
        assert manifest.engine == _SMALL.engine
        assert manifest.cache == "computed"
        assert set(manifest.timing) == {"assemble", "simulate", "report", "total"}


class TestSuiteManifest:
    def test_aggregates_dispositions(self, computed):
        go = computed["go"]
        hit = dataclasses.replace(
            go, manifest=dataclasses.replace(go.manifest, cache="disk-hit")
        )
        suite = build_suite_manifest(
            _SMALL,
            {"compress": computed["compress"], "go": hit},
            "digest123",
            elapsed_seconds=3.0,
        )
        assert suite["cache_dispositions"] == {"computed": 1, "disk-hit": 1}
        assert suite["workloads"]["go"]["cache"] == "disk-hit"
        assert suite["engine"] == _SMALL.engine
        assert suite["elapsed_seconds"] == 3.0
        assert "timing" not in suite
        for name, result in computed.items():
            assert suite["workloads"][name]["result_digest"] == result_digest(result)

    def test_write_manifest_emits_json_file(self, tmp_path):
        suite = build_suite_manifest(SuiteConfig(), {}, "digest123")
        path = tmp_path / "suite.manifest.json"
        write_manifest(suite, str(path))
        loaded = json.loads(path.read_text())
        assert loaded["kind"] == "suite"
        assert loaded["schema"] == MANIFEST_SCHEMA
        assert loaded["source_digest"] == "digest123"
