"""Observability: run manifests.

:mod:`repro.obs.manifest` records where a number came from — engine,
config, source digest, cache disposition, phase timing and, for a
suite, each workload's result digest.  Per-layer time comes from the
perfbench layer ladder (``perfbench/run.py --trace 1``), not from
in-process hooks.
"""

from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    RunManifest,
    build_suite_manifest,
    build_workload_manifest,
    write_manifest,
)

__all__ = [
    "MANIFEST_SCHEMA",
    "RunManifest",
    "build_suite_manifest",
    "build_workload_manifest",
    "write_manifest",
]
