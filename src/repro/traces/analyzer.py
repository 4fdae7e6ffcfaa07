"""Analyzer-only trace reuse characterization (Table 10T).

Segments the observed dynamic stream into back-to-back regions at the
boundaries of :func:`~repro.traces.trace.boundary_kind`, probes the
trace table at every region start, and on a miss records the region as
a new candidate.  No execution is skipped — this is pure measurement,
the trace-level analogue of :class:`repro.core.reuse_buffer.ReuseBuffer`
so Table 10T can put both capture rates side by side on the same run.

Validation needs the machine state *at the region start*, which an
analyzer does not have direct access to — so a shadow register file
(plus hi/lo) is reconstructed from the record stream: every observed
operand read and register write lands in the shadow, with ``None``
marking still-unknown values (a probe against an unknown conservatively
misses).  Memory live-ins are not shadowed at all; instead every
observed store invalidates resident traces whose live-ins it touches
(word granularity), so a resident trace's memory live-ins are always
fresh and probes skip memory validation entirely.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.isa.instructions import Instruction
from repro.isa.registers import A0, NUM_REGISTERS, V0
from repro.sim.events import StepRecord
from repro.sim.observer import Analyzer
from repro.traces.builder import TraceBuilder, step_next_pc
from repro.traces.safety import SafetyPolicy, check_candidate
from repro.traces.table import (
    DEFAULT_MAX_TRACE_LEN,
    DEFAULT_TRACE_CAPACITY,
    DEFAULT_TRACE_WAYS,
    TraceReuseTable,
)
from repro.traces.trace import (
    BOUNDARY_END,
    BOUNDARY_EXCLUDE,
    CLASS_NAMES,
    CTRL_CALL,
    CTRL_MFHI,
    CTRL_PLAIN,
    CTRL_RETURN,
    CTRL_SYSCALL,
    MEM_MULDIV,
    NUM_CLASSES,
    Facts,
    trace_facts,
)

#: Fixed histogram buckets for the trace-length distribution panel.
LENGTH_BUCKETS: Tuple[Tuple[Optional[int], str], ...] = (
    (1, "1"),
    (2, "2"),
    (3, "3"),
    (7, "4-7"),
    (15, "8-15"),
    (None, "16+"),
)
LENGTH_BUCKET_LABELS: Tuple[str, ...] = tuple(label for _, label in LENGTH_BUCKETS)


def length_bucket(length: int) -> str:
    for bound, label in LENGTH_BUCKETS:
        if bound is None or length <= bound:
            return label
    return LENGTH_BUCKETS[-1][1]  # pragma: no cover - unreachable


@dataclass
class TraceReuseReport:
    """Table 10T numbers for one workload."""

    dynamic_total: int
    probes: int
    hits: int
    misses: int
    #: Dynamic instructions inside hit traces (the coverage numerator).
    covered_instructions: int
    traces_recorded: int
    rejections: Dict[str, int]
    invalidations: int
    evictions: int
    occupancy: int
    #: ``label -> hits`` over LENGTH_BUCKET_LABELS (hit-weighted).
    hit_length_hist: Dict[str, int] = field(default_factory=dict)
    #: Covered instructions per CLASS_NAMES slot.
    class_coverage: Tuple[int, ...] = (0,) * NUM_CLASSES
    recorded_length_total: int = 0
    recorded_length_max: int = 0

    @property
    def coverage_pct(self) -> float:
        """% of all dynamic instructions covered by trace hits — the
        trace-level counterpart of the buffer's ``hit_pct``."""
        if not self.dynamic_total:
            return 0.0
        return 100.0 * self.covered_instructions / self.dynamic_total

    @property
    def hit_rate_pct(self) -> float:
        """% of region-start probes that hit."""
        return 100.0 * self.hits / self.probes if self.probes else 0.0

    @property
    def mean_hit_length(self) -> float:
        return self.covered_instructions / self.hits if self.hits else 0.0

    def class_coverage_pct(self, name: str) -> float:
        """% of trace-covered instructions in class ``name``."""
        if not self.covered_instructions:
            return 0.0
        index = CLASS_NAMES.index(name)
        return 100.0 * self.class_coverage[index] / self.covered_instructions

    def hit_length_pct(self, label: str) -> float:
        """% of hits whose trace length falls in bucket ``label``."""
        if not self.hits:
            return 0.0
        return 100.0 * self.hit_length_hist.get(label, 0) / self.hits


class TraceReuseAnalyzer(Analyzer):
    """Measures trace-level reuse over the observed step stream."""

    def __init__(
        self,
        capacity: int = DEFAULT_TRACE_CAPACITY,
        ways: int = DEFAULT_TRACE_WAYS,
        max_trace_len: int = DEFAULT_MAX_TRACE_LEN,
        policy: Optional[SafetyPolicy] = None,
    ) -> None:
        self.table = TraceReuseTable(capacity, ways, max_trace_len)
        self.policy = policy if policy is not None else SafetyPolicy()
        self._max_len = max_trace_len
        self._shadow: list = [None] * NUM_REGISTERS
        self._shadow[0] = 0
        self._shadow_hi: Optional[int] = None
        self._shadow_lo: Optional[int] = None
        self._replaying = 0
        self._builder: Optional[TraceBuilder] = None
        #: Static instruction -> its :func:`trace_facts` tuple.
        self._facts: Dict[Instruction, Facts] = {}
        self.dynamic_total = 0
        self.probes = 0
        self.hits = 0
        self.misses = 0
        self.covered_instructions = 0
        self.traces_recorded = 0
        self.rejections: Counter = Counter()
        self.hit_lengths: Counter = Counter()
        self.class_covered = [0] * NUM_CLASSES
        self.recorded_length_total = 0
        self.recorded_length_max = 0

    def on_step(self, record: StepRecord) -> None:
        self.dynamic_total += 1
        instr = record.instr
        facts = self._facts.get(instr)
        if facts is None:
            facts = self._facts[instr] = trace_facts(instr)
        bk, _cls, control, memory, width = facts

        # Store-based invalidation keeps resident memory live-ins fresh
        # (before the probe, mirroring the instruction buffer's order).
        if record.store_value is not None:
            self.table.invalidate_store(record.mem_addr, width)

        builder = self._builder
        if builder is not None:
            if bk == BOUNDARY_EXCLUDE:
                # Region ends *before* this instruction.
                self._finalize(builder, record.pc)
                self._builder = None
            elif builder.feed(record, facts) or bk == BOUNDARY_END:
                self._finalize(builder, step_next_pc(record))
                self._builder = None
        elif self._replaying:
            # Inside a hit trace's body: already accounted at the probe.
            self._replaying -= 1
        elif bk != BOUNDARY_EXCLUDE:
            # Region start: probe, then start recording on a miss.
            self.probes += 1
            hit = self.table.lookup(
                record.pc, self._shadow, self._shadow_hi, self._shadow_lo
            )
            if hit is not None:
                self.hits += 1
                self.covered_instructions += hit.length
                self.hit_lengths[hit.length] += 1
                covered = self.class_covered
                for index, count in enumerate(hit.class_counts):
                    covered[index] += count
                self._replaying = hit.length - 1
            else:
                self.misses += 1
                builder = self._builder = TraceBuilder(record.pc, self._max_len)
                if builder.feed(record, facts) or bk == BOUNDARY_END:
                    self._finalize(builder, step_next_pc(record))
                    self._builder = None
        # An excluded instruction at a region start is its own
        # (unprobeable) region; the next step starts fresh.

        # Shadow registers: every observed operand read and register write.
        shadow = self._shadow
        inputs = record.inputs
        if control is CTRL_PLAIN or control is CTRL_CALL or control is CTRL_RETURN:
            # ``inputs[i]`` is the value of ``sources[i]``.  Writing the
            # ``$zero`` slot is harmless: no trace has ``$zero`` as a live-in.
            sources = instr.sources
            if sources:
                shadow[sources[0]] = inputs[0]
                if len(sources) > 1:
                    shadow[sources[1]] = inputs[1]
        elif control is CTRL_SYSCALL:
            if len(inputs) >= 2:
                shadow[V0] = inputs[0]
                shadow[A0] = inputs[1]
        elif control is CTRL_MFHI:
            self._shadow_hi = inputs[0]
        else:
            self._shadow_lo = inputs[0]
        if memory is MEM_MULDIV:
            self._shadow_hi, self._shadow_lo = record.outputs
        dest = record.dest_reg
        if dest:
            shadow[dest] = record.dest_value

    def _finalize(self, builder: TraceBuilder, end_pc: int) -> None:
        reason = check_candidate(builder, self.policy)
        if reason is None:
            trace = builder.build(end_pc)
            self.table.install(trace)
            self.traces_recorded += 1
            self.recorded_length_total += trace.length
            if trace.length > self.recorded_length_max:
                self.recorded_length_max = trace.length
        else:
            self.rejections[reason] += 1

    def report(self) -> TraceReuseReport:
        hist: Dict[str, int] = {label: 0 for label in LENGTH_BUCKET_LABELS}
        for length, count in self.hit_lengths.items():
            hist[length_bucket(length)] += count
        return TraceReuseReport(
            dynamic_total=self.dynamic_total,
            probes=self.probes,
            hits=self.hits,
            misses=self.misses,
            covered_instructions=self.covered_instructions,
            traces_recorded=self.traces_recorded,
            rejections=dict(self.rejections),
            invalidations=self.table.invalidations,
            evictions=self.table.evictions,
            occupancy=self.table.occupancy,
            hit_length_hist=hist,
            class_coverage=tuple(self.class_covered),
            recorded_length_total=self.recorded_length_total,
            recorded_length_max=self.recorded_length_max,
        )
