"""Experiment harness: suite runner, per-table/figure registry, CLI."""

from repro.harness.failures import (
    FailureRecord,
    SuiteReport,
    WorkloadTimeout,
    result_digest,
)
from repro.harness.cache import CACHE_FORMAT_VERSION, ResultCache
from repro.harness.experiments import EXPERIMENT_ORDER, EXPERIMENTS, Experiment
from repro.harness.parallel import run_suite_parallel
from repro.harness.runner import (
    SuiteConfig,
    WorkloadResult,
    cache_directory,
    clear_cache,
    run_suite,
    run_workload,
    set_cache_dir,
)

__all__ = [
    "CACHE_FORMAT_VERSION",
    "EXPERIMENTS",
    "EXPERIMENT_ORDER",
    "Experiment",
    "FailureRecord",
    "ResultCache",
    "SuiteConfig",
    "SuiteReport",
    "WorkloadResult",
    "WorkloadTimeout",
    "cache_directory",
    "clear_cache",
    "result_digest",
    "run_suite",
    "run_suite_parallel",
    "run_workload",
    "set_cache_dir",
]
