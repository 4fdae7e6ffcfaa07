"""Dynamic trace memoization (DTM).

Trace-level reuse on top of the paper's instruction-level reuse buffer:
straight-line fragments of the dynamic stream are recorded with their
live-in registers, memory and hi/lo values, kept in an associative
table, and counted as covered when a later region start validates
against a resident trace (Table 10T).  Nothing is skipped: this is a
measurement of how much trace-level reuse exists.  See DESIGN.md §6d.
"""

from repro.traces.analyzer import (
    LENGTH_BUCKET_LABELS,
    TraceReuseAnalyzer,
    TraceReuseReport,
)
from repro.traces.builder import (
    REASON_CALL,
    REASON_IMPLICIT_INPUT,
    REASON_OVERLAP,
    REASON_RETURN,
    REASON_SYSCALL,
    REASON_TOO_LONG,
    REASON_TOO_SHORT,
    REASON_UNTRACKED_STORE,
    TraceBuilder,
    step_next_pc,
)
from repro.traces.safety import DEFAULT_MIN_TRACE_LEN, SafetyPolicy, check_candidate
from repro.traces.table import (
    DEFAULT_MAX_TRACE_LEN,
    DEFAULT_TRACE_CAPACITY,
    DEFAULT_TRACE_WAYS,
    TraceReuseTable,
)
from repro.traces.trace import (
    CLASS_NAMES,
    NUM_CLASSES,
    Trace,
    boundary_kind,
    class_of,
)

__all__ = [
    "CLASS_NAMES",
    "DEFAULT_MAX_TRACE_LEN",
    "DEFAULT_MIN_TRACE_LEN",
    "DEFAULT_TRACE_CAPACITY",
    "DEFAULT_TRACE_WAYS",
    "LENGTH_BUCKET_LABELS",
    "NUM_CLASSES",
    "REASON_CALL",
    "REASON_IMPLICIT_INPUT",
    "REASON_OVERLAP",
    "REASON_RETURN",
    "REASON_SYSCALL",
    "REASON_TOO_LONG",
    "REASON_TOO_SHORT",
    "REASON_UNTRACKED_STORE",
    "SafetyPolicy",
    "Trace",
    "TraceBuilder",
    "TraceReuseAnalyzer",
    "TraceReuseReport",
    "TraceReuseTable",
    "boundary_kind",
    "check_candidate",
    "class_of",
    "step_next_pc",
]
