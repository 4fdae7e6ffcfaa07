"""Trace builder: fold a straight-line run of step records into a trace.

The builder is fed one executed instruction at a time (as the
:class:`~repro.sim.events.StepRecord`-shaped facts the engines already
produce) and maintains the dataflow summary a :class:`~repro.traces.trace
.Trace` needs:

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

from typing import Dict, List, Optional, Set, Tuple

from repro.isa.convention import segment_of
from repro.isa.instructions import Kind
from repro.isa.registers import A0, V0
from repro.traces.trace import NUM_CLASSES, Trace, class_of

#: Rejection reasons (shared with :mod:`repro.traces.safety`).
REASON_SYSCALL = "syscall"
REASON_CALL = "call"
REASON_RETURN = "return"
REASON_UNTRACKED_STORE = "untracked-store"
REASON_OVERLAP = "partial-overlap"
REASON_TOO_SHORT = "too-short"
REASON_TOO_LONG = "too-long"
REASON_IMPLICIT_INPUT = "implicit-input"

#: Segments a memoized store may legally target.
TRACKED_SEGMENTS = ("data", "heap", "stack")

_WIDTH_MASK = {1: 0xFF, 2: 0xFFFF, 4: 0xFFFFFFFF}


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

    def __init__(self, start_pc: int, max_len: int) -> None:
        self.start_pc = start_pc
        self.max_len = max_len
        self.length = 0
        #: First structural-safety violation seen, or ``None``.
        self.unsafe: Optional[str] = None
        self._reg_in: Dict[int, int] = {}
        self._written_regs: Set[int] = set()
        self._mem_in: List[Tuple[int, int, int]] = []
        self._mem_in_seen: Set[Tuple[int, int]] = set()
        self._written_bytes: Set[int] = set()
        self._hi_lo_in: List[Tuple[bool, int]] = []
        self._hi_in_seen = False
        self._lo_in_seen = False
        self._hilo_written = False
        self._class_counts = [0] * NUM_CLASSES

    @property
    def mem_live_ins(self) -> Tuple[Tuple[int, int, int], ...]:
        return tuple(self._mem_in)

    def _note_reg_reads(self, pairs) -> None:
        reg_in = self._reg_in
        written = self._written_regs
        for reg, value in pairs:
            if reg and reg not in written and reg not in reg_in:
                reg_in[reg] = value

    def feed(self, record) -> None:
        """Fold one executed step into the candidate."""
        instr = record.instr
        op = instr.op
        kind = op.kind
        inputs = record.inputs

        if kind is Kind.SYSCALL:
            if self.unsafe is None:
                self.unsafe = REASON_SYSCALL
            if len(inputs) >= 2:
                self._note_reg_reads(((V0, inputs[0]), (A0, inputs[1])))
        elif kind is Kind.CALL:
            if self.unsafe is None:
                self.unsafe = REASON_CALL
            self._note_reg_reads(zip(instr.source_registers(), inputs))
        elif instr.is_return:
            if self.unsafe is None:
                self.unsafe = REASON_RETURN
            self._note_reg_reads(zip(instr.source_registers(), inputs))
        elif kind is Kind.MFHILO:
            if not self._hilo_written:
                from_hi = op.name == "mfhi"
                if from_hi and not self._hi_in_seen:
                    self._hi_in_seen = True
                    self._hi_lo_in.append((True, inputs[0]))
                elif not from_hi and not self._lo_in_seen:
                    self._lo_in_seen = True
                    self._hi_lo_in.append((False, inputs[0]))
        else:
            self._note_reg_reads(zip(instr.source_registers(), inputs))

        if kind is Kind.LOAD:
            address = record.mem_addr
            width = op.mem_width
            covered = sum(
                1 for b in range(address, address + width) if b in self._written_bytes
            )
            if covered == 0:
                key = (address, width)
                if key not in self._mem_in_seen:
                    self._mem_in_seen.add(key)
                    raw = record.outputs[0] & _WIDTH_MASK[width]
                    self._mem_in.append((address, width, raw))
            elif covered != width and self.unsafe is None:
                self.unsafe = REASON_OVERLAP
        elif kind is Kind.STORE:
            address = record.mem_addr
            width = op.mem_width
            if self.unsafe is None and segment_of(address) not in TRACKED_SEGMENTS:
                self.unsafe = REASON_UNTRACKED_STORE
            self._written_bytes.update(range(address, address + width))
        elif kind is Kind.MULDIV:
            self._hilo_written = True

        dest = record.dest_reg
        if dest:
            self._written_regs.add(dest)

        self._class_counts[class_of(instr)] += 1
        self.length += 1

    def build(self, end_pc: int) -> Trace:
        """Materialize the finished candidate as an immutable trace."""
        return Trace(
            start_pc=self.start_pc,
            end_pc=end_pc,
            length=self.length,
            reg_in=tuple(sorted(self._reg_in.items())),
            mem_in=tuple(self._mem_in),
            hi_lo_in=tuple(self._hi_lo_in),
            class_counts=tuple(self._class_counts),
        )
