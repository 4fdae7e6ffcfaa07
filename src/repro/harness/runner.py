"""Suite runner: execute workloads under the full analysis stack.

One simulated run per (workload, configuration) feeds *all* the paper's
tables and figures, so results are cached at two layers:

* an in-process dict (the fifteen experiment reproductions and the
  test-suite fixtures share simulations instead of re-running them), and
* an optional on-disk :class:`~repro.harness.cache.ResultCache` so
  repeated CLI / experiment invocations skip simulation altogether.
  Enable it with :func:`set_cache_dir` or the ``REPRO_CACHE_DIR``
  environment variable; entries self-invalidate when the source tree
  changes (see :mod:`repro.harness.cache`).

``run_suite(..., jobs=N)`` fans the suite out over a process pool
(:mod:`repro.harness.parallel`); both cache layers are consulted before
any worker is spawned.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.core.function_analysis import FunctionAnalysisReport, FunctionAnalyzer
from repro.core.global_analysis import GlobalAnalysisReport, GlobalSourceAnalyzer
from repro.core.local_analysis import LocalAnalysisReport, LocalAnalyzer
from repro.core.repetition import RepetitionReport, RepetitionTracker
from repro.core.reuse_buffer import ReuseBuffer, ReuseBufferReport
from repro.core.value_profile import GlobalLoadValueProfiler, ValueProfileReport
from repro.harness.cache import ResultCache, default_cache_dir, source_digest
from repro.harness.failures import (
    SuiteReport,
    Watchdog,
    WorkloadTimeout,
    classify_failure,
)
from repro.obs.manifest import RunManifest, build_workload_manifest
from repro.sim.simulator import DEFAULT_ENGINE, RunResult, Simulator
from repro.traces.analyzer import TraceReuseAnalyzer, TraceReuseReport
from repro.workloads import WORKLOAD_ORDER, Workload, get_workload

logger = logging.getLogger("repro.harness.runner")


@dataclass(frozen=True)
class SuiteConfig:
    """Knobs for one suite run (defaults follow the paper's setup)."""

    #: Input-size multiplier (~150k dynamic instructions per unit).
    scale: int = 1
    #: Unique instances buffered per static instruction (paper: 2000).
    buffer_capacity: int = 2000
    #: Reuse buffer geometry (paper: 8K entries, 4-way).
    reuse_entries: int = 8192
    reuse_associativity: int = 4
    #: Analysis window (paper: skip 500M, run 1B — scaled down here).
    skip_instructions: int = 0
    limit_instructions: Optional[int] = None
    #: "primary" or "secondary" input set.
    input_kind: str = "primary"
    #: Execution engine: "predecoded" (fast) or "interpreter" (reference).
    engine: str = DEFAULT_ENGINE
    #: Trace reuse table geometry (analyzer-only; Table 10T).
    trace_capacity: int = 1024
    trace_ways: int = 4
    trace_max_len: int = 16

    def __post_init__(self) -> None:
        if self.scale < 1:
            raise ValueError(f"scale must be positive, got {self.scale}")

    def input_for(self, workload: Workload) -> bytes:
        if self.input_kind == "primary":
            return workload.primary_input(self.scale)
        if self.input_kind == "secondary":
            return workload.secondary_input(self.scale)
        raise ValueError(f"unknown input kind {self.input_kind!r}")


@dataclass
class WorkloadResult:
    """All per-workload reports needed by the tables and figures."""

    workload: Workload
    run: RunResult
    repetition: RepetitionReport
    global_analysis: GlobalAnalysisReport
    function_analysis: FunctionAnalysisReport
    local_analysis: LocalAnalysisReport
    reuse: ReuseBufferReport
    value_profile: ValueProfileReport
    trace_reuse: TraceReuseReport
    static_program_instructions: int = 0
    #: Provenance: engine, config, source digest, cache disposition, timing.
    manifest: Optional[RunManifest] = None


_CACHE: Dict[Tuple[str, SuiteConfig], WorkloadResult] = {}

# Disk layer, resolved lazily from $REPRO_CACHE_DIR unless set explicitly.
_DISK_CACHE: Optional[ResultCache] = None
_DISK_RESOLVED = False


def _disk_cache() -> Optional[ResultCache]:
    global _DISK_CACHE, _DISK_RESOLVED
    if not _DISK_RESOLVED:
        _DISK_RESOLVED = True
        directory = default_cache_dir()
        if directory is not None:
            _DISK_CACHE = ResultCache(directory)
    return _DISK_CACHE


def set_cache_dir(directory: Optional[str]) -> None:
    """Point the persistent result cache at ``directory`` (None disables)."""
    global _DISK_CACHE, _DISK_RESOLVED
    _DISK_RESOLVED = True
    _DISK_CACHE = ResultCache(directory) if directory is not None else None


def cache_directory() -> Optional[str]:
    """The active persistent-cache directory, or ``None`` when disabled."""
    disk = _disk_cache()
    return str(disk.directory) if disk is not None else None


def cached_result(
    workload: Workload, config: SuiteConfig
) -> Optional[WorkloadResult]:
    """Check both cache layers without simulating (disk hits are promoted)."""
    key = (workload.name, config)
    cached = _CACHE.get(key)
    if cached is not None:
        if cached.manifest is not None:
            cached.manifest.cache = "memory-hit"
        return cached
    disk = _disk_cache()
    if disk is not None:
        loaded = disk.load(workload.name, config)
        if isinstance(loaded, WorkloadResult):
            if loaded.manifest is not None:
                loaded.manifest.cache = "disk-hit"
            _CACHE[key] = loaded
            return loaded
    return None


def install_result(
    result: WorkloadResult, config: SuiteConfig, to_disk: bool = True
) -> None:
    """Install an externally computed result into the cache layers.

    A failed disk store (full disk, permissions, a failed ``fsync``)
    never loses the computed result: the in-memory layer already
    holds it, so the error is logged, not raised.
    """
    _CACHE[(result.workload.name, config)] = result
    if to_disk:
        disk = _disk_cache()
        if disk is not None:
            try:
                disk.store(result.workload.name, config, result)
            except Exception as exc:
                logger.warning(
                    "persistent-cache store failed for %s (%s: %s)",
                    result.workload.name,
                    type(exc).__name__,
                    exc,
                )


def run_workload(
    workload: Workload,
    config: SuiteConfig = SuiteConfig(),
    deadline_s: Optional[float] = None,
) -> WorkloadResult:
    """Run one workload under the full analyzer stack (cached).

    ``deadline_s`` arms a wall-clock watchdog that pauses the simulator
    at an instruction boundary and raises :class:`WorkloadTimeout`.
    """
    cached = cached_result(workload, config)
    if cached is not None:
        return cached
    started = time.perf_counter()
    timing: Dict[str, float] = {}

    program = workload.program()
    timing["assemble"] = time.perf_counter() - started

    tracker = RepetitionTracker(config.buffer_capacity)
    global_analyzer = GlobalSourceAnalyzer(tracker)
    function_analyzer = FunctionAnalyzer()
    local_analyzer = LocalAnalyzer(tracker)
    reuse = ReuseBuffer(config.reuse_entries, config.reuse_associativity)
    value_profiler = GlobalLoadValueProfiler()
    trace_analyzer = TraceReuseAnalyzer(
        config.trace_capacity, config.trace_ways, config.trace_max_len
    )
    # Tracker first: downstream analyzers read its per-step flag.
    analyzers = [
        tracker,
        global_analyzer,
        function_analyzer,
        local_analyzer,
        reuse,
        value_profiler,
        trace_analyzer,
    ]
    simulator = Simulator(
        program,
        input_data=config.input_for(workload),
        analyzers=analyzers,
        engine=config.engine,
    )
    phase_start = time.perf_counter()
    if deadline_s is not None:
        with Watchdog(simulator, deadline_s) as watchdog:
            run = simulator.run(
                limit=config.limit_instructions, skip=config.skip_instructions
            )
        if watchdog.fired and run.stop_reason == "paused":
            raise WorkloadTimeout(workload.name, deadline_s, config.engine)
    else:
        run = simulator.run(
            limit=config.limit_instructions, skip=config.skip_instructions
        )
    timing["simulate"] = time.perf_counter() - phase_start

    phase_start = time.perf_counter()
    result = WorkloadResult(
        workload=workload,
        run=run,
        repetition=tracker.report(),
        global_analysis=global_analyzer.report(),
        function_analysis=function_analyzer.report(),
        local_analysis=local_analyzer.report(),
        reuse=reuse.report(),
        value_profile=value_profiler.report(),
        trace_reuse=trace_analyzer.report(),
        static_program_instructions=program.static_instruction_count,
    )
    timing["report"] = time.perf_counter() - phase_start
    timing["total"] = time.perf_counter() - started

    result.manifest = build_workload_manifest(
        workload.name, config, source_digest(), timing
    )
    install_result(result, config)
    return result


def select_workloads(names: Optional[Iterable[str]] = None) -> Tuple[str, ...]:
    """The suite order (``names`` or all eight), rejecting duplicates."""
    selected = tuple(names) if names is not None else WORKLOAD_ORDER
    if len(set(selected)) != len(selected):
        seen = set()
        dupes = sorted({n for n in selected if n in seen or seen.add(n)})
        raise ValueError(f"duplicate workload names: {', '.join(dupes)}")
    return selected


def run_suite(
    config: SuiteConfig = SuiteConfig(),
    names: Optional[Iterable[str]] = None,
    jobs: int = 1,
    strict: bool = True,
    timeout_s: Optional[float] = None,
) -> SuiteReport:
    """Run the whole suite (or ``names``) and return results in order.

    ``jobs > 1`` fans uncached workloads out over a process pool
    (:func:`~repro.harness.parallel.run_suite_parallel`).

    The return value is a :class:`SuiteReport` — a dict of surviving
    ``WorkloadResult`` in suite order, plus ``failures``.
    ``strict`` (the default) raises the first error; ``strict=False``
    records it and keeps going.  ``timeout_s`` is the per-workload
    wall-clock budget.  A serial run makes exactly one attempt per
    workload: the simulator is deterministic, so a failure is terminal.
    """
    if not isinstance(jobs, int) or jobs < 1:
        raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
    selected = select_workloads(names)
    if jobs > 1:
        from repro.harness.parallel import run_suite_parallel

        return run_suite_parallel(
            config, selected, jobs, strict=strict, timeout_s=timeout_s
        )
    report = SuiteReport(config=config)
    for name in selected:
        try:
            report[name] = run_workload(get_workload(name), config, deadline_s=timeout_s)
        except Exception as exc:
            if strict:
                raise
            report.failures[name] = classify_failure(
                exc, workload=name, engine=config.engine
            )
    return report


def clear_cache() -> None:
    """Drop cached results from both layers (tests use this for isolation)."""
    _CACHE.clear()
    disk = _disk_cache()
    if disk is not None:
        disk.clear()
