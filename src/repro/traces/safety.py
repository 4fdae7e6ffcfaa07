"""Trace safety filter: which candidates may be memoized at all.

A trace only counts as reusable if skipping it, given matching live-ins,
would be indistinguishable from re-executing it.  That fails when the
candidate

* contains a syscall (external state, events the simulator must raise),
* contains a call or return (call-stack events must fire),
* stores outside the tracked data/heap/stack segments (self-modifying-
  code adjacent or wild — cannot be re-validated),
* loads bytes partially written in-trace (the mixed value cannot be
  expressed as a single pre-trace live-in), or
* — in strict mode — has *implicit inputs* in the sense of the paper's
  §5.2 machinery (:func:`repro.core.function_analysis
  .classify_memory_access`): live-in loads from global/heap memory.
  This is the idempotent-slices criterion of Azevedo et al.; the default
  policy instead admits such loads and relies on the analyzer's
  store-based invalidation for freshness.

Length bounds also live here so every driver applies the same rule: a
trace shorter than ``min_len`` is not worth an entry (the instruction-
level reuse buffer already covers single instructions), and one longer
than the table's ``max_trace_len`` must have been split by the driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.function_analysis import classify_memory_access
from repro.traces.builder import (
    REASON_IMPLICIT_INPUT,
    REASON_TOO_LONG,
    REASON_TOO_SHORT,
    TraceBuilder,
)

#: Traces must cover at least this many instructions by default.
DEFAULT_MIN_TRACE_LEN = 2


@dataclass(frozen=True)
class SafetyPolicy:
    """Knobs for :func:`check_candidate`."""

    #: Candidates shorter than this are rejected (``too-short``).
    min_len: int = DEFAULT_MIN_TRACE_LEN
    #: When False, any global/heap memory live-in rejects the candidate
    #: (``implicit-input`` — the strict Azevedo-style criterion).
    allow_memory_live_ins: bool = True


def check_candidate(
    builder: TraceBuilder, policy: SafetyPolicy = SafetyPolicy()
) -> Optional[str]:
    """``None`` if the candidate is safe to install, else a reason string."""
    if builder.unsafe is not None:
        return builder.unsafe
    if builder.length < policy.min_len:
        return REASON_TOO_SHORT
    if builder.length > builder.max_len:
        return REASON_TOO_LONG
    if not policy.allow_memory_live_ins:
        for address, _width, _raw in builder.mem_live_ins:
            if classify_memory_access(address, is_store=False) == "implicit_input":
                return REASON_IMPLICIT_INPUT
    return None
