"""Failure taxonomy and partial results for suite execution.

Everything that can go wrong while running a workload — assembly /
compile errors, simulator traps, crashed pool workers, watchdog
timeouts — is classified into a picklable :class:`FailureRecord` so the
suite runner can *keep going*: a non-strict run returns a
:class:`SuiteReport` carrying every finished
:class:`~repro.harness.runner.WorkloadResult` plus one terminal record
per failed workload, instead of discarding completed work on the first
exception.

Recovery has one rule.  The simulator is deterministic, so a
workload's own failure — a compile error, a sim-trap under either
engine, a watchdog timeout, anything unclassified — would repeat on a
re-run and is terminal.  Only a task the process pool *lost* (its
worker died, or the parent's deadline killed it) is retried, in an
isolated pool, up to :data:`~repro.harness.parallel.MAX_ATTEMPTS`.
Serial runs cannot lose a task, so they make exactly one attempt.

``strict=True`` — the default everywhere — preserves the historical
raise-on-first-error behaviour exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
import threading
import time
import traceback
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.asm.errors import AsmError
from repro.lang.errors import MiniCError
from repro.sim.errors import SimError

# -- taxonomy ----------------------------------------------------------

KIND_COMPILE = "compile-error"
KIND_SIM_TRAP = "sim-trap"
KIND_WORKER_CRASH = "worker-crash"
KIND_TIMEOUT = "timeout"
KIND_UNKNOWN = "unknown"


class WorkloadTimeout(Exception):
    """A workload exceeded its wall-clock budget.

    Raised by the watchdog (which pauses the simulator at an instruction
    boundary, serially or inside a pool worker) and synthesized by the
    parallel runner when a pool task misses its parent-side deadline.
    """

    def __init__(
        self, workload: str, seconds: float = 0.0, engine: Optional[str] = None
    ) -> None:
        self.workload = workload
        self.seconds = seconds
        self.engine = engine
        super().__init__(
            f"workload {workload!r} exceeded its {seconds:g}s wall-clock budget"
        )

    def __reduce__(self):
        return (WorkloadTimeout, (self.workload, self.seconds, self.engine))


@dataclass
class FailureRecord:
    """One classified failure (picklable, JSON-able via :meth:`to_dict`)."""

    kind: str
    workload: str
    engine: str
    attempt: int
    message: str
    exception_type: str
    #: Short SHA-256 over the formatted traceback — lets repeated
    #: failures be grouped without shipping whole tracebacks around.
    traceback_digest: str = ""
    when: float = field(default_factory=time.time)

    @property
    def attempts(self) -> int:
        """Total attempts made when this (terminal) record was written."""
        return self.attempt

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def classify_failure(
    exc: BaseException, *, workload: str, engine: str, attempt: int = 1
) -> FailureRecord:
    """Map an exception onto the failure taxonomy."""
    if isinstance(exc, WorkloadTimeout):
        kind = KIND_TIMEOUT
    elif isinstance(exc, BrokenProcessPool):
        kind = KIND_WORKER_CRASH
    elif isinstance(exc, SimError):
        kind = KIND_SIM_TRAP
    elif isinstance(exc, (AsmError, MiniCError)):
        kind = KIND_COMPILE
    else:
        kind = KIND_UNKNOWN
    formatted = "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    )
    return FailureRecord(
        kind=kind,
        workload=workload,
        engine=engine,
        attempt=attempt,
        message=str(exc) or type(exc).__name__,
        exception_type=type(exc).__name__,
        traceback_digest=hashlib.sha256(formatted.encode()).hexdigest()[:12],
    )


# -- partial results ---------------------------------------------------


class SuiteReport(Dict[str, "WorkloadResult"]):  # noqa: F821 (typing only)
    """Suite results plus the terminal failures.

    A ``dict`` subclass so every existing consumer (experiment renders,
    markdown reports, tests) keeps working unchanged: the mapping holds
    the *surviving* ``WorkloadResult`` objects in suite order, while
    ``failures`` carries the terminal :class:`FailureRecord` per failed
    workload.  Attempts that failed before a retry succeeded are in
    that result's manifest ``failures``.
    """

    def __init__(self, config=None) -> None:
        super().__init__()
        self.config = config
        self.failures: Dict[str, FailureRecord] = {}


def _canonical(obj):
    """A deterministic, order-independent form of a report object.

    Sets (and dict buckets) iterate in layout order, which a pickle
    round-trip across the process pool can permute — two semantically
    equal results must still digest identically, so unordered
    containers are sorted and dataclasses flattened to field tuples.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (
            type(obj).__name__,
            tuple(
                (f.name, _canonical(getattr(obj, f.name)))
                for f in dataclasses.fields(obj)
            ),
        )
    if isinstance(obj, dict):
        items = [(_canonical(k), _canonical(v)) for k, v in obj.items()]
        return ("dict", tuple(sorted(items, key=repr)))
    if isinstance(obj, (set, frozenset)):
        return ("set", tuple(sorted((_canonical(v) for v in obj), key=repr)))
    if isinstance(obj, (list, tuple)):
        return ("seq", tuple(_canonical(v) for v in obj))
    return obj


def result_digest(result) -> str:
    """SHA-256 over a WorkloadResult's *measured* content.

    Provenance (the manifest: timings, cache disposition, retry
    history) is excluded, so a result recovered after retries digests
    identically to a clean run — the property the chaos tests pin down.
    """
    payload = _canonical(
        (
            result.workload.name,
            result.run,
            result.repetition,
            result.global_analysis,
            result.function_analysis,
            result.local_analysis,
            result.reuse,
            result.value_profile,
            result.trace_reuse,
            result.static_program_instructions,
        )
    )
    return hashlib.sha256(pickle.dumps(payload, protocol=4)).hexdigest()


# -- serial watchdog ---------------------------------------------------


class Watchdog:
    """Wall-clock deadline for an in-process simulation.

    Uses the simulator's own pause mechanism: when the timer fires, the
    run stops at the next instruction boundary with ``stop_reason ==
    "paused"`` (analyzers are *not* finalized), and the runner converts
    that into a :class:`WorkloadTimeout`.
    """

    def __init__(self, simulator, seconds: float) -> None:
        self.fired = False
        self._simulator = simulator
        self._timer = threading.Timer(seconds, self._fire)
        self._timer.daemon = True

    def _fire(self) -> None:
        self.fired = True
        self._simulator.request_pause()

    def __enter__(self) -> "Watchdog":
        self._timer.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._timer.cancel()
