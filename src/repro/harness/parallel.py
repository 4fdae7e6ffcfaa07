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

Fault tolerance (see :mod:`repro.harness.failures`) is round-based,
with one rule: a workload's own failure is terminal, and a task the
pool *lost* is retried.  Each round submits the still-pending workloads
and sorts every completion into ``ok``, ``err`` (anything raised inside
the worker, including its own watchdog's ``WorkloadTimeout``) or
``lost``.  A task is lost when its worker died (``BrokenProcessPool``
poisons every in-flight future of that pool, so finished poolmates are
harvested first) or when the parent-side round deadline — the
workload budget plus :data:`ROUND_GRACE_S`, which catches hangs the
in-worker watchdog cannot — SIGKILLed its pool and synthesized a
``WorkloadTimeout``.  Lost tasks go to the next round, which gives
every task its own single-worker pool, so a repeat crasher or hanger
can only take itself down; a task still lost after
:data:`MAX_ATTEMPTS` is a terminal failure.  ``strict`` runs re-raise
the first failure after the round drains, preserving the historical
behaviour.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.harness import runner
from repro.harness.failures import (
    FailureRecord,
    SuiteReport,
    WorkloadTimeout,
    classify_failure,
)
from repro.harness.runner import SuiteConfig, WorkloadResult
from repro.workloads import get_workload

#: Parent-side slack on top of the per-workload budget: covers pool
#: spawn, assembly, and result pickling around the simulate phase.
ROUND_GRACE_S = 3.0

#: Attempts a lost task gets (the first run plus two retries).
MAX_ATTEMPTS = 3


def _run_one(
    name: str,
    config: SuiteConfig,
    cache_dir: Optional[str],
    attempt: int,
    timeout_s: Optional[float],
) -> WorkloadResult:
    """Worker entry point: simulate one workload in a pool process.

    ``attempt`` is the round (1 for the first run); it travels with the
    task but does not change what the worker computes.
    """
    if cache_dir is not None:
        runner.set_cache_dir(cache_dir)
    return runner.run_workload(get_workload(name), config, deadline_s=timeout_s)


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Hard-stop a pool whose workers may be hung (SIGKILL, no waiting)."""
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            proc.kill()
        except Exception:
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def _outcome(future) -> Tuple[str, object]:
    try:
        return "ok", future.result()
    except BrokenProcessPool as exc:
        return "lost", exc
    except Exception as exc:
        return "err", exc


def _drain(
    futures: Dict[object, str],
    budget: Optional[float],
    timeout_s: Optional[float],
    outcomes: Dict[str, Tuple[str, object]],
) -> bool:
    """Collect every future into ``outcomes``; True if the budget lapsed.

    ``as_completed`` drains a broken pool's futures too, so tasks that
    finished before the breakage are harvested as successes.  Tasks
    still running when the budget lapses are lost to the deadline.
    """
    try:
        for future in as_completed(futures, timeout=budget):
            outcomes[futures[future]] = _outcome(future)
        return False
    except FuturesTimeout:
        for future, name in futures.items():
            if name not in outcomes:
                outcomes[name] = (
                    _outcome(future)
                    if future.done()
                    else ("lost", WorkloadTimeout(name, timeout_s or 0.0))
                )
        return True


def _run_pools(
    assignment: List[Tuple[ProcessPoolExecutor, str]],
    submit: Callable[[ProcessPoolExecutor, str], object],
    budget: Optional[float],
    timeout_s: Optional[float],
    outcomes: Dict[str, Tuple[str, object]],
) -> None:
    """Run each ``(pool, name)``; SIGKILL the pools if the budget lapses."""
    pools = list(dict.fromkeys(pool for pool, _ in assignment))
    timed_out = False
    try:
        futures = {submit(pool, name): name for pool, name in assignment}
        timed_out = _drain(futures, budget, timeout_s, outcomes)
    finally:
        for pool in pools:
            if timed_out:
                _kill_pool(pool)
            else:
                pool.shutdown(wait=True)


def _run_round(
    names: List[str],
    attempt: int,
    workers: int,
    config: SuiteConfig,
    cache_dir: Optional[str],
    timeout_s: Optional[float],
) -> Dict[str, Tuple[str, object]]:
    """Run one round of ``names``; ``{name: (status, payload)}``.

    ``status`` is ``"ok"`` (payload the result), ``"err"`` or
    ``"lost"`` (payload the exception).  The first round shares one
    pool; retry rounds give every task its own single-worker pool, in
    waves of at most ``workers``.
    """

    def submit(pool: ProcessPoolExecutor, name: str):
        return pool.submit(_run_one, name, config, cache_dir, attempt, timeout_s)

    outcomes: Dict[str, Tuple[str, object]] = {}
    if attempt == 1:
        pool = ProcessPoolExecutor(max_workers=workers)
        budget = None
        if timeout_s is not None:
            budget = timeout_s * math.ceil(len(names) / workers) + ROUND_GRACE_S
        assignment = [(pool, name) for name in names]
        _run_pools(assignment, submit, budget, timeout_s, outcomes)
        return outcomes
    budget = None if timeout_s is None else timeout_s + ROUND_GRACE_S
    for start in range(0, len(names), workers):
        wave = [
            (ProcessPoolExecutor(max_workers=1), name)
            for name in names[start : start + workers]
        ]
        _run_pools(wave, submit, budget, timeout_s, outcomes)
    return outcomes


def _annotate(
    result: WorkloadResult, history: List[FailureRecord], attempts: int
) -> WorkloadResult:
    """A copy of ``result`` whose manifest records its recovery story.

    Copies (``dataclasses.replace``) so the cache layers keep the
    pristine object: only the caller that saw the lost attempts gets
    them in its manifest.
    """
    if result.manifest is None:
        return result
    manifest = dataclasses.replace(
        result.manifest,
        attempts=attempts,
        failures=[record.to_dict() for record in history],
    )
    return dataclasses.replace(result, manifest=manifest)


def run_suite_parallel(
    config: SuiteConfig = SuiteConfig(),
    names: Optional[Iterable[str]] = None,
    jobs: int = 2,
    strict: bool = True,
    timeout_s: Optional[float] = None,
) -> SuiteReport:
    """Run the suite with up to ``jobs`` worker processes.

    Returns a :class:`SuiteReport`; under the default ``strict`` the
    first worker failure re-raises, exactly like the serial path.
    """
    if not isinstance(jobs, int) or jobs < 1:
        raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
    selected = runner.select_workloads(names)

    report = SuiteReport(config=config)
    results: Dict[str, WorkloadResult] = {}
    histories: Dict[str, List[FailureRecord]] = {}
    pending: List[str] = []
    for name in selected:
        cached = runner.cached_result(get_workload(name), config)
        if cached is not None:
            results[name] = cached
        else:
            pending.append(name)

    cache_dir = runner.cache_directory()
    for attempt in range(1, MAX_ATTEMPTS + 1):
        if not pending:
            break
        workers = min(jobs, len(pending))
        outcomes = _run_round(pending, attempt, workers, config, cache_dir, timeout_s)
        lost: List[str] = []
        for name in pending:
            status, payload = outcomes[name]
            if status == "ok":
                # The worker already wrote the disk entry when enabled.
                runner.install_result(payload, config, to_disk=cache_dir is None)
                if name in histories:
                    payload = _annotate(payload, histories[name], attempt)
                results[name] = payload
                continue
            record = classify_failure(
                payload, workload=name, engine=config.engine, attempt=attempt
            )
            if strict:
                raise payload
            if status == "lost" and attempt < MAX_ATTEMPTS:
                histories.setdefault(name, []).append(record)
                lost.append(name)
            else:
                report.failures[name] = record
        pending = lost

    for name in selected:
        if name in results:
            report[name] = results[name]
    return report
