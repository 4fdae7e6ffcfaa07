"""Trace builder: fold a straight-line run of step records into a trace.

The builder is fed one executed instruction at a time (the
:class:`~repro.sim.events.StepRecord` the engines already produce, with
its static :func:`~repro.traces.trace.trace_facts`) and maintains the
dataflow summary a :class:`~repro.traces.trace.Trace` needs:

* a register read whose value was not produced earlier in the trace is a
  register live-in;
* a load from bytes untouched by in-trace stores is a memory live-in
  (recorded raw, pre-extension); a load fully covered by in-trace stores
  is internal; a *partially* covered load poisons the candidate
  (``REASON_OVERLAP`` — the mixed value cannot be validated cheaply);
* stored bytes are remembered so later loads can be classified, and a
  store outside the tracked data/heap/stack segments poisons the
  candidate (self-modifying-code adjacent, or a wild pointer — either
  way unsafe to memoize);
* a hi/lo read before any in-trace ``mult``/``div`` is a hi/lo live-in.

Feeding an excluded instruction (syscall/call/return) does not execute
anything here — the builder is passive — but marks the candidate unsafe
so :func:`~repro.traces.safety.check_candidate` rejects it.  Normal
drivers finalize *before* excluded instructions; the marker exists so a
candidate assembled any other way still cannot slip through.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.isa.convention import DATA_BASE, STACK_TOP
from repro.isa.instructions import Kind
from repro.isa.registers import A0, V0
from repro.traces.trace import (
    CTRL_CALL,
    CTRL_MFHI,
    CTRL_MFLO,
    CTRL_PLAIN,
    CTRL_RETURN,
    CTRL_SYSCALL,
    MEM_LOAD,
    MEM_STORE,
    NUM_CLASSES,
    Facts,
    Trace,
    trace_facts,
)

#: Rejection reasons (shared with :mod:`repro.traces.safety`).
REASON_SYSCALL = "syscall"
REASON_CALL = "call"
REASON_RETURN = "return"
REASON_UNTRACKED_STORE = "untracked-store"
REASON_OVERLAP = "partial-overlap"
REASON_TOO_SHORT = "too-short"
REASON_TOO_LONG = "too-long"
REASON_IMPLICIT_INPUT = "implicit-input"

_WIDTH_MASK = {1: 0xFF, 2: 0xFFFF, 4: 0xFFFFFFFF}
_UNSAFE_REASON = {
    CTRL_SYSCALL: REASON_SYSCALL,
    CTRL_CALL: REASON_CALL,
    CTRL_RETURN: REASON_RETURN,
}


def step_next_pc(record) -> int:
    """Reconstruct the successor pc of an observed step record."""
    instr = record.instr
    kind = instr.op.kind
    if kind is Kind.BRANCH:
        return instr.target if record.outputs[0] else record.pc + 4
    if kind is Kind.JUMP:
        return instr.target
    if kind is Kind.JUMP_REG:
        return record.inputs[0]
    return record.pc + 4


class TraceBuilder:
    """Accumulates one trace candidate from consecutive step records."""

    __slots__ = (
        "start_pc",
        "max_len",
        "length",
        "unsafe",
        "_reg_in",
        "_seen_regs",
        "_mem_in",
        "_written_bytes",
        "_hi_lo_in",
        "_hilo_written",
        "_class_counts",
    )

    def __init__(self, start_pc: int, max_len: int) -> None:
        self.start_pc = start_pc
        self.max_len = max_len
        self.length = 0
        #: First structural-safety violation seen, or ``None``.
        self.unsafe: Optional[str] = None
        self._reg_in: Dict[int, int] = {}
        #: Registers that cannot become live-ins any more: ``$zero``, the
        #: live-ins themselves and every register written in-trace.
        self._seen_regs: Set[int] = {0}
        #: ``(address, width) -> (address, width, raw)``, first-read order.
        self._mem_in: Dict[Tuple[int, int], Tuple[int, int, int]] = {}
        #: Bytes stored in-trace, created at the first store: one empty set
        #: per candidate (~200k per suite) raised peak RSS by ~2 MB.
        self._written_bytes: Optional[Set[int]] = None
        #: ``from_hi -> value``, first-read order.
        self._hi_lo_in: Dict[bool, int] = {}
        self._hilo_written = False
        self._class_counts = [0] * NUM_CLASSES

    @property
    def mem_live_ins(self) -> Tuple[Tuple[int, int, int], ...]:
        return tuple(self._mem_in.values())

    def feed(self, record, facts: Optional[Facts] = None) -> bool:
        """Fold one executed step into the candidate; True once it holds
        ``max_len`` instructions.

        ``facts`` is the step's :func:`~repro.traces.trace.trace_facts`
        tuple; drivers pass it memoized, and it is derived when omitted.
        """
        if facts is None:
            facts = trace_facts(record.instr)
        _boundary, cls, control, memory, width = facts
        self._class_counts[cls] += 1
        seen = self._seen_regs

        if control is CTRL_PLAIN:
            # ``inputs[i]`` is the value of ``sources[i]`` (at most two).
            sources = record.instr.sources
            if sources:
                reg = sources[0]
                if reg not in seen:
                    seen.add(reg)
                    self._reg_in[reg] = record.inputs[0]
                if len(sources) > 1:
                    reg = sources[1]
                    if reg not in seen:
                        seen.add(reg)
                        self._reg_in[reg] = record.inputs[1]
        elif control is CTRL_MFHI or control is CTRL_MFLO:
            from_hi = control is CTRL_MFHI
            if not self._hilo_written and from_hi not in self._hi_lo_in:
                self._hi_lo_in[from_hi] = record.inputs[0]
        else:
            # Excluded instructions: normal drivers never feed these.
            if self.unsafe is None:
                self.unsafe = _UNSAFE_REASON[control]
            inputs = record.inputs
            if control is not CTRL_SYSCALL:
                reads = zip(record.instr.sources, inputs)
            elif len(inputs) >= 2:
                reads = ((V0, inputs[0]), (A0, inputs[1]))
            else:
                reads = ()
            for reg, value in reads:
                if reg not in seen:
                    seen.add(reg)
                    self._reg_in[reg] = value

        if memory:
            address = record.mem_addr
            if memory is MEM_LOAD:
                written_bytes = self._written_bytes
                covered = 0
                if written_bytes is not None:
                    for byte in range(address, address + width):
                        if byte in written_bytes:
                            covered += 1
                if covered == 0:
                    key = (address, width)
                    if key not in self._mem_in:
                        raw = record.outputs[0] & _WIDTH_MASK[width]
                        self._mem_in[key] = (address, width, raw)
                elif covered != width and self.unsafe is None:
                    self.unsafe = REASON_OVERLAP
            elif memory is MEM_STORE:
                # The tracked data, heap and stack segments are contiguous.
                if self.unsafe is None and not DATA_BASE <= address <= STACK_TOP:
                    self.unsafe = REASON_UNTRACKED_STORE
                if self._written_bytes is None:
                    self._written_bytes = set()
                self._written_bytes.update(range(address, address + width))
            else:  # MEM_MULDIV
                self._hilo_written = True

        dest = record.dest_reg
        if dest:
            seen.add(dest)
        self.length += 1
        return self.length >= self.max_len

    def build(self, end_pc: int) -> Trace:
        """Materialize the finished candidate as an immutable trace."""
        return Trace(
            self.start_pc,
            end_pc,
            self.length,
            tuple(sorted(self._reg_in.items())),
            tuple(self._mem_in.values()),
            tuple(self._hi_lo_in.items()),
            tuple(self._class_counts),
        )
