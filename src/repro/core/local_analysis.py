"""Local (within-function) analysis (the paper's Section 5.3).

Dynamic instructions are binned into the paper's ten categories using two
criteria:

*Task-based* (identified structurally, highest precedence):

* ``prologue`` — stores of still-uninitialized (callee-saved) registers
  to the stack, and stack-frame allocation (``addiu $sp, $sp, -N``);
* ``epilogue`` — loads that read back prologue-saved slots, and frame
  deallocation;
* ``return`` — ``jr $ra``;
* remaining categories come from per-frame *source tags* below.

*Source-based* (dataflow tags, reset at every function entry, combined
with the paper's local supersede rule ``argument > return value >
(global, heap) > function internal``):

* ``arguments`` — slices rooted at the incoming ``$a`` registers;
* ``return values`` — slices rooted at ``$v0`` after a call (or after a
  value-returning syscall, which models the C library's getchar/malloc);
* ``global`` / ``heap`` — slices rooted at loads from the data segment /
  the heap;
* ``glb_addr_calc`` — slices computing global addresses: operations on
  ``$gp`` and ``lui``/``ori`` pairs that synthesize data-segment
  addresses;
* ``SP`` — arithmetic on the stack pointer (local address formation);
* ``function internals`` — slices rooted only at immediates.

The tag priorities encode the supersede rule so combining is ``max``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.asm.program import FunctionInfo, Program
from repro.isa.convention import DATA_BASE, HEAP_BASE, STACK_LIMIT, STACK_TOP
from repro.isa.instructions import Format, Kind
from repro.isa.registers import A0, GP, NUM_REGISTERS, RA, SP, V0, ZERO
from repro.sim.events import CallEvent, ReturnEvent, StepRecord, SyscallEvent
from repro.sim.observer import Analyzer
from repro.core.repetition import RepetitionTracker

# Local source tags, priority-ordered for the supersede rule (max-combine):
# argument > return value > (heap, global) > glb-addr > sp-addr > internal.
UNINIT = 0
INTERNAL = 1
SP_ADDR = 2
GLB_ADDR = 3
GLOBAL = 4
HEAP = 5
RETVAL = 6
ARG = 7

_TAG_CATEGORY = {
    UNINIT: "function internals",
    INTERNAL: "function internals",
    SP_ADDR: "SP",
    GLB_ADDR: "glb_addr_calc",
    GLOBAL: "global",
    HEAP: "heap",
    RETVAL: "return values",
    ARG: "arguments",
}

_ALU, _LOAD, _STORE, _BRANCH = Kind.ALU, Kind.LOAD, Kind.STORE, Kind.BRANCH
_MULDIV, _MFHILO, _CALL = Kind.MULDIV, Kind.MFHILO, Kind.CALL
_JUMP, _JUMP_REG, _NOP = Kind.JUMP, Kind.JUMP_REG, Kind.NOP

#: Row order of Tables 5/6/7.
CATEGORY_ORDER = (
    "prologue",
    "epilogue",
    "function internals",
    "glb_addr_calc",
    "return",
    "SP",
    "return values",
    "arguments",
    "global",
    "heap",
)


class _LocalFrame:
    """Per-activation tag state."""

    __slots__ = ("function", "reg_tags", "hilo_tag", "prologue_slots")

    def __init__(self, function: Optional[FunctionInfo], args: Tuple[int, ...]) -> None:
        self.function = function
        tags = [UNINIT] * NUM_REGISTERS
        tags[ZERO] = INTERNAL
        tags[GP] = GLB_ADDR
        tags[SP] = SP_ADDR
        argc = function.num_args if function is not None else 0
        for index in range(argc):
            tags[A0 + index] = ARG
        self.reg_tags = tags
        self.hilo_tag = UNINIT
        #: Stack word addresses written by prologue stores of this frame.
        self.prologue_slots: set = set()


@dataclass
class CategoryStats:
    total: int = 0
    repeated: int = 0

    @property
    def propensity_pct(self) -> float:
        return 100.0 * self.repeated / self.total if self.total else 0.0


@dataclass
class ProEpiContributor:
    """Table 9 row: one function's prologue+epilogue contribution."""

    name: str
    static_size: int
    repeated: int
    total: int


@dataclass
class LocalAnalysisReport:
    """Tables 5, 6, 7 and the Table 9 contributor list."""

    categories: Dict[str, CategoryStats]
    dynamic_total: int
    dynamic_repeated: int
    prologue_epilogue_by_function: Dict[str, ProEpiContributor] = field(
        repr=False, default_factory=dict
    )

    def overall_pct(self, name: str) -> float:
        stats = self.categories[name]
        return 100.0 * stats.total / self.dynamic_total if self.dynamic_total else 0.0

    def repeated_pct(self, name: str) -> float:
        stats = self.categories[name]
        return 100.0 * stats.repeated / self.dynamic_repeated if self.dynamic_repeated else 0.0

    def propensity_pct(self, name: str) -> float:
        return self.categories[name].propensity_pct

    def top_prologue_contributors(self, count: int = 5) -> List[ProEpiContributor]:
        """Table 9: top functions by prologue+epilogue repetition."""
        contributors = sorted(
            self.prologue_epilogue_by_function.values(),
            key=lambda c: c.repeated,
            reverse=True,
        )
        return contributors[:count]

    def prologue_coverage_pct(self, count: int = 5) -> float:
        """Table 9 'coverage': share of prologue+epilogue repetition from
        the top ``count`` functions."""
        total = sum(c.repeated for c in self.prologue_epilogue_by_function.values())
        if not total:
            return 0.0
        top = self.top_prologue_contributors(count)
        return 100.0 * sum(c.repeated for c in top) / total


class LocalAnalyzer(Analyzer):
    """Bins instructions into the paper's local categories.

    Needs a :class:`RepetitionTracker` attached earlier in the analyzer
    list (pass it in) for the repeated-per-category split; without one,
    only the overall breakdown (Table 5) is populated.
    """

    def __init__(self, tracker: Optional[RepetitionTracker] = None) -> None:
        self.tracker = tracker
        self.stats = {name: CategoryStats() for name in CATEGORY_ORDER}
        #: ``self.stats`` of each tag's category, indexed by tag.
        self._tag_stats = [self.stats[_TAG_CATEGORY[tag]] for tag in sorted(_TAG_CATEGORY)]
        self._prologue = self.stats["prologue"]
        self._epilogue = self.stats["epilogue"]
        self._stack: List[_LocalFrame] = [_LocalFrame(None, ())]
        #: Stack-segment word address -> local tag of the stored value.
        self._stack_mem_tags: Dict[int, int] = {}
        self._program: Optional[Program] = None
        #: function name -> [prologue+epilogue total, repeated].
        self._proepi: Dict[str, List[int]] = {}

    @property
    def dynamic_total(self) -> int:
        return sum(stats.total for stats in self.stats.values())

    @property
    def dynamic_repeated(self) -> int:
        return sum(stats.repeated for stats in self.stats.values())

    def on_start(self, program: Program) -> None:
        self._program = program

    # -- call boundaries -----------------------------------------------------

    def on_call(self, event: CallEvent) -> None:
        self._stack.append(_LocalFrame(event.function, event.args))

    def on_return(self, event: ReturnEvent) -> None:
        if len(self._stack) > 1:
            self._stack.pop()
        # In the caller, $v0 now carries a returned value.
        self._stack[-1].reg_tags[V0] = RETVAL

    def on_syscall(self, event: SyscallEvent) -> None:
        # A value-returning syscall plays the role of a C-library call
        # (getchar/malloc): its result starts a return-value slice.
        if event.result is not None:
            self._stack[-1].reg_tags[V0] = RETVAL

    # -- classification --------------------------------------------------------

    def on_step(self, record: StepRecord) -> None:
        frame = self._stack[-1]
        tags = frame.reg_tags
        instr = record.instr
        op = instr.op
        kind = op.kind
        tag_stats = self._tag_stats
        # True for the prologue/epilogue categories (Table 9).
        proepi = False

        # Most frequent kinds first; ``is`` works because every opcode
        # shares the ``Kind`` string constants.
        if kind is _ALU:
            if instr.rt == SP and instr.rs == SP and op.name == "addiu":
                # Stack frame allocation / deallocation.
                category = self._prologue if instr.imm < 0 else self._epilogue
                proepi = True
            else:
                sources = instr.sources
                if sources:
                    tag = tags[sources[0]]
                    if len(sources) > 1:
                        other = tags[sources[1]]
                        if other > tag:
                            tag = other
                    if tag == UNINIT:
                        tag = INTERNAL
                else:
                    tag = INTERNAL
                if op.name == "lui" and DATA_BASE <= record.dest_value < HEAP_BASE:
                    # Synthesizing the upper half of a global address.
                    tag = GLB_ADDR
                category = tag_stats[tag]
                dest = instr.dest
                if dest:
                    tags[dest] = tag
        elif kind is _LOAD:
            address = record.mem_addr
            word = address & ~3  # type: ignore[operator]
            if DATA_BASE <= address < HEAP_BASE:  # type: ignore[operator]
                tag = GLOBAL
                category = tag_stats[GLOBAL]
            elif HEAP_BASE <= address < STACK_LIMIT:  # type: ignore[operator]
                tag = HEAP
                category = tag_stats[HEAP]
            elif word in frame.prologue_slots:
                tag = UNINIT
                category = self._epilogue
                proepi = True
            else:
                tag = self._stack_mem_tags.get(word, UNINIT)
                category = tag_stats[tag]
            if instr.rt != ZERO:
                tags[instr.rt] = tag
        elif kind is _BRANCH:
            sources = instr.sources
            tag = tags[sources[0]]
            if len(sources) > 1:
                other = tags[sources[1]]
                if other > tag:
                    tag = other
            category = tag_stats[tag]
        elif kind is _STORE:
            address = record.mem_addr
            value_tag = tags[instr.rt]
            in_stack = STACK_LIMIT <= address <= STACK_TOP  # type: ignore[operator]
            if value_tag == UNINIT and in_stack:
                category = self._prologue
                proepi = True
                frame.prologue_slots.add(address & ~3)  # type: ignore[operator]
                self._stack_mem_tags[address & ~3] = UNINIT  # type: ignore[operator]
            else:
                # The store belongs to the *data* slice it writes; the
                # base address (SP/gp-derived) does not reclassify it.
                category = tag_stats[value_tag]
                if in_stack:
                    self._stack_mem_tags[address & ~3] = value_tag  # type: ignore[operator]
        elif kind is _JUMP_REG:
            if instr.rs == RA:
                category = self.stats["return"]
            else:
                category = tag_stats[tags[instr.rs]]
        elif kind is _JUMP or kind is _NOP:
            category = tag_stats[INTERNAL]
        elif kind is _CALL:
            if op.fmt == Format.J:
                category = tag_stats[INTERNAL]
            else:
                category = tag_stats[tags[instr.rs]]
            link = instr.dest
            if link:
                tags[link] = INTERNAL
        elif kind is _MULDIV:
            tag = max(tags[instr.rs], tags[instr.rt])
            frame.hilo_tag = tag
            category = tag_stats[tag]
        elif kind is _MFHILO:
            tag = frame.hilo_tag
            category = tag_stats[tag]
            if instr.rd != ZERO:
                tags[instr.rd] = tag
        else:  # SYSCALL
            category = tag_stats[max(tags[V0], tags[A0])]

        category.total += 1
        tracker = self.tracker
        repeated = tracker is not None and tracker.was_repeated(record)
        if repeated:
            category.repeated += 1
        if proepi and frame.function is not None:
            entry = self._proepi.get(frame.function.name)
            if entry is None:
                entry = [0, 0]
                self._proepi[frame.function.name] = entry
            entry[0] += 1
            if repeated:
                entry[1] += 1

    # -- reporting ------------------------------------------------------------

    def report(self) -> LocalAnalysisReport:
        contributors: Dict[str, ProEpiContributor] = {}
        for name, (total, repeated) in self._proepi.items():
            size = 0
            if self._program is not None:
                info = self._program.function_by_name(name)
                size = info.size if info is not None else 0
            contributors[name] = ProEpiContributor(name, size, repeated, total)
        return LocalAnalysisReport(
            categories=dict(self.stats),
            dynamic_total=self.dynamic_total,
            dynamic_repeated=self.dynamic_repeated,
            prologue_epilogue_by_function=contributors,
        )
