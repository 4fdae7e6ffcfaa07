"""Deterministic fault injection for the suite harness.

Every surviving recovery path in the harness (pool retry after a lost
worker, watchdog deadlines, terminal engine traps and compile errors,
cache self-healing — see :mod:`repro.harness.failures`) is exercised
through *this* registry rather than through prod-only test hooks: the
production code calls :func:`check` / :func:`should_fire` at a small
catalog of named sites, and an armed :class:`FaultPlan` decides
whether the fault fires.  With no plan armed the site checks are a
single module-attribute test, so zero-fault runs pay nothing
measurable.

A plan is armed by ``SuiteConfig.fault_plan`` (``repro-run --faults``)
— a spec string carried by the run configuration and therefore by the
cache key, so faulted runs can never serve or poison clean cache
entries.  Tests may also call :func:`install_plan` directly.

Spec grammar (comma-separated)::

    site[:workload[@attempt]][:times]

    worker.crash:go            crash go's worker (every attempt)
    worker.crash:go@1          crash only go's first attempt
    engine.raise:*:2           fail the first two simulator runs
    cache.corrupt:compress     corrupt compress's cache entry on store

``times`` bounds how often a spec fires (``*`` = unlimited, default 1).
Counts are per installed plan: pool workers re-install the plan from
the config for every task, so worker-site specs fire per *attempt*
(which is what chaos tests want), while a serial suite shares one plan
across all its workloads.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.asm.errors import AsmError
from repro.sim.errors import SimError

#: How long an injected hang sleeps.  Bounded (not infinite) so a
#: broken watchdog stalls a test run by a minute, not forever.
HANG_SECONDS = 60.0

#: The injection-site catalog: site name -> what firing does.
SITES: Dict[str, str] = {
    "worker.crash": "pool worker dies with os._exit (BrokenProcessPool)",
    "worker.hang": f"pool worker sleeps {HANG_SECONDS:.0f}s (parent deadline kill)",
    "cache.corrupt": "persistent-cache entry is scribbled after a store",
    "cache.torn_write": "persistent-cache store dies mid-write (before replace)",
    "engine.raise": "the configured engine raises SimError at run start",
    "asm.error": "workload assembly raises AsmError",
}


class FaultInjected(RuntimeError):
    """An error raised by the fault harness itself (e.g. a torn write)."""

    injected = True

    def __init__(self, site: str, message: Optional[str] = None) -> None:
        self.site = site
        super().__init__(message or f"injected fault at {site}")

    def __reduce__(self):
        return (FaultInjected, (self.site, str(self)))


@dataclass
class FaultSpec:
    """One armed fault: where it fires, for whom, and how often."""

    site: str
    workload: str = "*"
    attempt: Optional[int] = None
    times: Optional[int] = 1  # None = unlimited
    fired: int = 0

    @classmethod
    def parse(cls, token: str) -> "FaultSpec":
        parts = [part.strip() for part in token.strip().split(":")]
        site = parts[0]
        if site not in SITES:
            known = ", ".join(sorted(SITES))
            raise ValueError(f"unknown fault site {site!r} (known: {known})")
        if len(parts) > 3:
            raise ValueError(f"malformed fault spec {token!r}")
        workload, attempt, times = "*", None, 1
        try:
            if len(parts) > 1 and parts[1]:
                workload, _, attempt_text = parts[1].partition("@")
                workload = workload or "*"
                attempt = int(attempt_text) if attempt_text else None
            if len(parts) > 2 and parts[2]:
                times = None if parts[2] == "*" else int(parts[2])
        except ValueError:
            raise ValueError(f"malformed fault spec {token!r}") from None
        return cls(site, workload, attempt, times)

    def matches(self, site: str, workload: Optional[str], attempt: Optional[int]) -> bool:
        if site != self.site:
            return False
        if self.workload != "*" and workload != self.workload:
            return False
        if self.attempt is not None and attempt != self.attempt:
            return False
        if self.times is not None and self.fired >= self.times:
            return False
        return True


class FaultPlan:
    """A parsed set of :class:`FaultSpec`."""

    def __init__(self, specs: Tuple[FaultSpec, ...], text: str = "") -> None:
        self.specs = tuple(specs)
        self.text = text

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        specs = tuple(
            FaultSpec.parse(token) for token in text.split(",") if token.strip()
        )
        if not specs:
            raise ValueError(f"empty fault plan {text!r}")
        return cls(specs, text=text)

    def should_fire(
        self, site: str, workload: Optional[str], attempt: Optional[int]
    ) -> Optional[FaultSpec]:
        """The first matching spec that fires now, updating its count."""
        for spec in self.specs:
            if spec.matches(site, workload, attempt):
                spec.fired += 1
                return spec
        return None


# -- process-global arming state ---------------------------------------

_ACTIVE: Optional[FaultPlan] = None

#: Scope stack: merged dicts of {"workload": ..., "attempt": ...}.
_SCOPE: List[dict] = []


def install_plan(plan: Optional[FaultPlan]) -> None:
    """Arm ``plan`` process-globally (``None`` disarms)."""
    global _ACTIVE
    _ACTIVE = plan


def active_plan() -> Optional[FaultPlan]:
    return _ACTIVE


def armed() -> bool:
    """Cheap site-side guard: is any fault plan installed?"""
    return _ACTIVE is not None


def resolve_plan(spec: Optional[str]) -> Optional[FaultPlan]:
    """The plan a ``SuiteConfig.fault_plan`` spec arms (None when unset)."""
    return FaultPlan.parse(spec) if spec else None


@contextmanager
def armed_plan(spec: Optional[str]):
    """Arm the plan parsed from ``spec`` for the block.

    An already-armed plan is kept (so a suite-level plan persists its
    fired counts across the workloads it runs); otherwise the parsed
    plan is installed on entry and disarmed on exit.
    """
    if _ACTIVE is not None or not spec:
        yield _ACTIVE
        return
    plan = FaultPlan.parse(spec)
    install_plan(plan)
    try:
        yield plan
    finally:
        install_plan(None)


@contextmanager
def scope(workload: Optional[str] = None, attempt: Optional[int] = None):
    """Attach workload/attempt context for site checks inside the block.

    Nested scopes merge: an inner ``scope(workload=...)`` inherits the
    outer scope's attempt, so the simulator-level sites (which know
    nothing about attempts) still match ``@attempt`` specs.
    """
    merged = dict(_SCOPE[-1]) if _SCOPE else {}
    if workload is not None:
        merged["workload"] = workload
    if attempt is not None:
        merged["attempt"] = attempt
    _SCOPE.append(merged)
    try:
        yield
    finally:
        _SCOPE.pop()


def _context(workload: Optional[str]) -> Tuple[Optional[str], Optional[int]]:
    current = _SCOPE[-1] if _SCOPE else {}
    if workload is None:
        workload = current.get("workload")
    return workload, current.get("attempt")


def should_fire(site: str, workload: Optional[str] = None) -> Optional[FaultSpec]:
    """Non-raising site check (for sites whose action is caller-side)."""
    if _ACTIVE is None:
        return None
    scoped_workload, attempt = _context(workload)
    return _ACTIVE.should_fire(site, scoped_workload, attempt)


def check(site: str, workload: Optional[str] = None) -> None:
    """Raising site check: perform the site's action if a spec fires."""
    spec = should_fire(site, workload)
    if spec is None:
        return
    if site == "worker.crash":
        # Simulates a hard worker death (segfault, OOM-kill): no
        # exception crosses the pool, the parent sees BrokenProcessPool.
        os._exit(70)
    if site == "worker.hang":
        time.sleep(HANG_SECONDS)
        return
    if site == "engine.raise":
        error = SimError(f"injected fault at {site}")
        error.injected = True
        raise error
    if site == "asm.error":
        error = AsmError(f"injected fault at {site}")
        error.injected = True
        raise error
    # cache.torn_write and any future raise-style site.
    raise FaultInjected(site)
