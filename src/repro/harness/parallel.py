"""Parallel suite execution over a process pool.

Workloads are independent simulations, so a cold suite run parallelises
trivially: each worker process runs one ``(workload, config)`` pair via
the ordinary :func:`~repro.harness.runner.run_workload` path and ships
the finished :class:`~repro.harness.runner.WorkloadResult` back
(everything in it is picklable; :class:`~repro.workloads.base.Workload`
reduces to a registry lookup).

Both cache layers are honoured: the parent serves hits before spawning
anything, workers inherit the persistent-cache directory, and finished
results are promoted into the parent's in-memory cache so follow-up
``run_suite`` calls in the same process are free.

Telemetry crosses the process boundary the same way the results do:
when the parent's metrics registry is enabled (or a tracer is
installed), each worker collects into a fresh registry/tracer of its
own and ships the snapshot / event list back with the result.  The
parent merges them, adds per-worker task counts and durations
(``parallel.worker.<pid>.*``), and splices worker trace events into its
own tracer — so ``run_suite(jobs=N)`` reports the same aggregate
numbers a serial run would, plus the fan-out shape.

Fault tolerance (see :mod:`repro.harness.failures`) is round-based:
each round submits the still-pending workloads to a fresh pool, then
classifies what came back.  A crashed worker (``BrokenProcessPool``)
poisons every in-flight future, so survivors are harvested, the
casualties retried in the next round's fresh pool, and only workloads
that exhaust their retries become terminal failures.  A parent-side
round deadline (derived from ``RecoveryPolicy.timeout_s``) catches hard
hangs the in-worker watchdog cannot: the pool processes are killed and
the unfinished workloads synthesized into ``WorkloadTimeout`` records.
``strict`` policies re-raise the first failure after the round drains,
preserving the historical behaviour.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, Iterable, List, Optional, Tuple

from repro.harness import faults, runner
from repro.harness.failures import (
    FailureRecord,
    RecoveryPolicy,
    SuiteReport,
    WorkloadTimeout,
    classify_failure,
    note_failure,
    plan_next_action,
)
from repro.harness.runner import SuiteConfig, WorkloadResult
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.workloads import WORKLOAD_ORDER, get_workload

#: Parent-side slack on top of the per-workload budget: covers pool
#: spawn, assembly, and result pickling around the simulate phase.
ROUND_GRACE_S = 3.0


def _run_one(
    name: str,
    config: SuiteConfig,
    cache_dir: Optional[str],
    telemetry: bool,
    trace: bool,
    profile: bool,
    attempt: int = 1,
    timeout_s: Optional[float] = None,
) -> Tuple[WorkloadResult, dict]:
    """Worker entry point: simulate one workload in a fresh process.

    Worker processes are reused by the pool (and inherit parent state
    under fork), so telemetry state is re-initialized per task: the
    registry is reset before the run and snapshotted after, making each
    shipped snapshot exactly one task's worth of metrics.  The fault
    plan is likewise re-installed per task, so worker-site specs fire
    per attempt — a ``worker.crash:<name>`` keeps crashing on retry,
    while ``worker.crash:<name>@1`` recovers on the second round.
    """
    if cache_dir is not None:
        runner.set_cache_dir(cache_dir)
    if telemetry:
        obs_metrics.enable()
        obs_metrics.REGISTRY.reset()
    else:
        obs_metrics.disable()
    tracer = obs_tracing.SpanTracer() if trace else None
    obs_tracing.install_tracer(tracer)
    faults.install_plan(faults.resolve_plan(config.fault_plan))
    try:
        started = time.perf_counter()
        with faults.scope(workload=name, attempt=attempt):
            if faults.armed():
                faults.check("worker.crash", name)
                faults.check("worker.hang", name)
            result = runner.run_workload(
                get_workload(name), config, profile=profile, deadline_s=timeout_s
            )
        elapsed = time.perf_counter() - started
        meta = {
            "pid": os.getpid(),
            "seconds": elapsed,
            "metrics": obs_metrics.REGISTRY.snapshot() if telemetry else None,
            "trace_events": list(tracer.events) if tracer is not None else None,
        }
        return result, meta
    finally:
        faults.install_plan(None)
        obs_tracing.install_tracer(None)


@dataclasses.dataclass
class _Task:
    """One pending workload in the retry loop."""

    name: str
    attempt: int = 1


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Hard-stop a pool whose workers may be hung (SIGKILL, no waiting)."""
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            proc.kill()
        except Exception:
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def _drain(
    futures: Dict[object, str],
    budget: Optional[float],
    timeout_s: Optional[float],
    outcomes: Dict[str, Tuple[str, object]],
) -> bool:
    """Collect every future into ``outcomes``; True if the budget lapsed.

    A ``BrokenProcessPool`` poisons every in-flight future of its pool;
    ``as_completed`` still drains them all, so tasks that finished
    before the breakage are harvested as successes.
    """
    try:
        for future in as_completed(futures, timeout=budget):
            name = futures[future]
            try:
                outcomes[name] = ("ok", future.result())
            except Exception as exc:
                outcomes[name] = ("err", exc)
        return False
    except FuturesTimeout:
        for future, name in futures.items():
            if name in outcomes:
                continue
            if future.done():
                try:
                    outcomes[name] = ("ok", future.result())
                except Exception as exc:
                    outcomes[name] = ("err", exc)
            else:
                outcomes[name] = ("err", WorkloadTimeout(name, timeout_s or 0.0))
        return True


def _run_round(
    tasks: List[_Task],
    config: SuiteConfig,
    workers: int,
    cache_dir: Optional[str],
    telemetry: bool,
    trace: bool,
    profile: bool,
    timeout_s: Optional[float],
    isolate: bool = False,
) -> Dict[str, Tuple[str, object]]:
    """Submit ``tasks`` to fresh pool(s); classify every completion.

    Returns ``{name: ("ok", (result, meta)) | ("err", exception)}``.
    ``isolate=True`` (used after a pool breakage) gives every task its
    own single-worker pool, so a repeat-crasher cannot poison the
    futures of innocent workloads sharing its pool.
    """

    def _submit(pool: ProcessPoolExecutor, task: _Task):
        return pool.submit(
            _run_one,
            task.name,
            config,
            cache_dir,
            telemetry,
            trace,
            profile,
            task.attempt,
            timeout_s,
        )

    outcomes: Dict[str, Tuple[str, object]] = {}
    if isolate:
        # Waves of at most `workers` concurrent one-task pools.
        for start in range(0, len(tasks), workers):
            wave = tasks[start : start + workers]
            pools = [ProcessPoolExecutor(max_workers=1) for _ in wave]
            futures = {
                _submit(pool, task): task.name for pool, task in zip(pools, wave)
            }
            budget = None if timeout_s is None else timeout_s + ROUND_GRACE_S
            timed_out = _drain(futures, budget, timeout_s, outcomes)
            for pool in pools:
                if timed_out:
                    _kill_pool(pool)
                else:
                    pool.shutdown(wait=True)
        return outcomes

    budget = None
    if timeout_s is not None:
        waves = math.ceil(len(tasks) / workers)
        budget = timeout_s * waves + ROUND_GRACE_S
    pool = ProcessPoolExecutor(max_workers=workers)
    timed_out = False
    try:
        futures = {_submit(pool, task): task.name for task in tasks}
        timed_out = _drain(futures, budget, timeout_s, outcomes)
    finally:
        if timed_out:
            _kill_pool(pool)
        else:
            pool.shutdown(wait=True)
    return outcomes


def run_suite_parallel(
    config: SuiteConfig = SuiteConfig(),
    names: Optional[Iterable[str]] = None,
    jobs: int = 2,
    profile: bool = False,
    policy: Optional[RecoveryPolicy] = None,
) -> SuiteReport:
    """Run the suite with up to ``jobs`` worker processes.

    Returns a :class:`SuiteReport`; under the default strict policy the
    first worker failure re-raises, exactly like the serial path.
    """
    if not isinstance(jobs, int) or jobs < 1:
        raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
    selected = tuple(names) if names is not None else WORKLOAD_ORDER
    if len(set(selected)) != len(selected):
        seen = set()
        dupes = sorted({n for n in selected if n in seen or seen.add(n)})
        raise ValueError(f"duplicate workload names: {', '.join(dupes)}")
    effective = policy if policy is not None else RecoveryPolicy()

    report = SuiteReport(config=config)
    registry = obs_metrics.REGISTRY
    results: Dict[str, WorkloadResult] = {}
    histories: Dict[str, List[FailureRecord]] = {}
    pending: List[_Task] = []
    for name in selected:
        cached = runner.cached_result(get_workload(name), config)
        if cached is not None:
            results[name] = cached
        else:
            pending.append(_Task(name=name))

    telemetry = registry.enabled
    parent_tracer = obs_tracing.current_tracer()
    cache_dir = runner.cache_directory()
    isolate = False
    while pending:
        workers = max(1, min(jobs, len(pending)))
        outcomes = _run_round(
            pending,
            config,
            workers,
            cache_dir,
            telemetry,
            parent_tracer is not None,
            profile,
            effective.timeout_s,
            isolate=isolate,
        )
        if any(
            isinstance(payload, BrokenProcessPool)
            for status, payload in outcomes.values()
            if status == "err"
        ):
            # A crashed worker poisons its poolmates' futures: retry the
            # casualties in per-task pools so innocents can finish.
            isolate = True
        next_round: List[_Task] = []
        backoff = 0.0
        for task in pending:
            status, payload = outcomes[task.name]
            if status == "ok":
                result, meta = payload
                # The worker already wrote the disk entry when enabled.
                runner.install_result(result, config, to_disk=cache_dir is None)
                history = histories.get(task.name, [])
                if history:
                    result = runner._annotate_result(result, history, task.attempt)
                results[task.name] = result
                if meta["metrics"] is not None:
                    registry.merge(meta["metrics"])
                if telemetry:
                    pid = meta["pid"]
                    registry.counter("parallel.tasks").inc()
                    registry.counter(f"parallel.worker.{pid}.tasks").inc()
                    registry.timer(f"parallel.worker.{pid}.seconds").observe(
                        meta["seconds"]
                    )
                if parent_tracer is not None and meta["trace_events"]:
                    parent_tracer.extend(meta["trace_events"])
                continue
            exc = payload
            record = classify_failure(
                exc,
                workload=task.name,
                engine=config.engine,
                attempt=task.attempt,
            )
            histories.setdefault(task.name, []).append(record)
            note_failure(record)
            if effective.strict:
                raise exc
            action = plan_next_action(
                record, attempt=task.attempt, retries=effective.retries
            )
            if action == "retry":
                registry.inc("retry.attempts")
                backoff = max(
                    backoff, effective.backoff_seconds(task.name, task.attempt)
                )
                task.attempt += 1
                next_round.append(task)
            else:
                report.failures[task.name] = record
                registry.inc("suite.partial_failures")
        pending = next_round
        if pending and backoff > 0.0:
            time.sleep(backoff)

    for history in histories.values():
        report.history.extend(history)
    for name in selected:
        if name in results:
            report[name] = results[name]
    return report
