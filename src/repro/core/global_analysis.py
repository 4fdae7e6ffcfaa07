"""Global source-slice analysis (the paper's Section 5.1, Table 3).

Every value in the machine is tagged with the ultimate *source* of the
dynamic slice it belongs to:

* ``external input`` — produced (transitively) from a read syscall;
* ``global init data`` — originates at a load of statically-initialized
  data-segment memory;
* ``program internals`` — originates from immediates (and values computed
  only from immediates);
* ``uninit`` — an uninitialized register or memory word.

Tags propagate along dataflow.  Where slices meet, the paper's supersede
rule applies: ``external > global-init > internal > uninit`` — encoded
here as a numeric priority so "combine" is just ``max``.

Each dynamic instruction is categorized by the supersede of its input
tags, and the analyzer reports, per category: overall share, share of
repeated instructions, and propensity (fraction of the category that is
repeated) — the three panels of Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.asm.program import Program
from repro.isa.convention import DATA_BASE, HEAP_BASE
from repro.isa.instructions import Format, Kind
from repro.isa.registers import GP, NUM_REGISTERS, RA, SP, V0, ZERO
from repro.sim.events import StepRecord, SyscallEvent
from repro.sim.observer import Analyzer
from repro.core.repetition import RepetitionTracker

# Tag priorities: the supersede rule is combine-by-max.
UNINIT = 0
INTERNAL = 1
GLOBAL_INIT = 2
EXTERNAL = 3

TAG_NAMES = {
    UNINIT: "uninit",
    INTERNAL: "internals",
    GLOBAL_INIT: "global init data",
    EXTERNAL: "external input",
}

_ALU, _LOAD, _STORE, _BRANCH = Kind.ALU, Kind.LOAD, Kind.STORE, Kind.BRANCH
_MULDIV, _MFHILO, _SYSCALL = Kind.MULDIV, Kind.MFHILO, Kind.SYSCALL
_JUMP, _NOP, _CALL = Kind.JUMP, Kind.NOP, Kind.CALL

#: Display order used by Table 3.
CATEGORY_ORDER = ("internals", "global init data", "external input", "uninit")


@dataclass
class CategoryStats:
    """Counters for one source category."""

    total: int = 0
    repeated: int = 0

    @property
    def propensity_pct(self) -> float:
        return 100.0 * self.repeated / self.total if self.total else 0.0


@dataclass
class GlobalAnalysisReport:
    """Table 3: per-category overall / repeated / propensity numbers."""

    categories: Dict[str, CategoryStats]
    dynamic_total: int
    dynamic_repeated: int

    def overall_pct(self, name: str) -> float:
        stats = self.categories[name]
        return 100.0 * stats.total / self.dynamic_total if self.dynamic_total else 0.0

    def repeated_pct(self, name: str) -> float:
        stats = self.categories[name]
        return 100.0 * stats.repeated / self.dynamic_repeated if self.dynamic_repeated else 0.0

    def propensity_pct(self, name: str) -> float:
        return self.categories[name].propensity_pct


class GlobalSourceAnalyzer(Analyzer):
    """Propagates source tags and bins instructions into Table 3 categories.

    Needs a :class:`RepetitionTracker` attached *earlier* in the analyzer
    list so the per-step repetition flag is fresh.
    """

    def __init__(self, tracker: Optional[RepetitionTracker] = None) -> None:
        self.tracker = tracker
        self.reg_tags = [UNINIT] * NUM_REGISTERS
        self.hilo_tag = UNINIT
        #: Word-address -> tag, for memory written during execution.
        self.mem_tags: Dict[int, int] = {}
        self.stats = {name: CategoryStats() for name in TAG_NAMES.values()}
        #: ``self.stats`` indexed by tag.
        self._tag_stats = [self.stats[TAG_NAMES[tag]] for tag in sorted(TAG_NAMES)]
        self._initialized_words: frozenset = frozenset()

    @property
    def dynamic_total(self) -> int:
        return sum(stats.total for stats in self.stats.values())

    @property
    def dynamic_repeated(self) -> int:
        return sum(stats.repeated for stats in self.stats.values())

    def on_start(self, program: Program) -> None:
        # The loader sets $zero/$gp/$sp to program constants.
        self.reg_tags[ZERO] = INTERNAL
        self.reg_tags[GP] = INTERNAL
        self.reg_tags[SP] = INTERNAL
        self.reg_tags[RA] = INTERNAL
        init_flags = program.data_initialized
        base = program.data_base
        initialized = set()
        for offset in range(0, len(init_flags) - 3, 4):
            if any(init_flags[offset : offset + 4]):
                initialized.add(base + offset)
        self._initialized_words = frozenset(initialized)

    # -- event handlers ------------------------------------------------------

    def on_step(self, record: StepRecord) -> None:
        instr = record.instr
        kind = instr.op.kind
        reg_tags = self.reg_tags

        # Most frequent kinds first; ``is`` works because every opcode
        # shares the ``Kind`` string constants.
        if kind is _ALU or kind is _BRANCH:
            sources = instr.sources
            if sources:
                tag = reg_tags[sources[0]]
                if len(sources) > 1:
                    other = reg_tags[sources[1]]
                    if other > tag:
                        tag = other
            else:
                tag = INTERNAL  # immediate-only (lui)
            dest = instr.dest
            if dest:
                reg_tags[dest] = tag
        elif kind is _LOAD:
            word = record.mem_addr & ~3  # type: ignore[operator]
            tag = self.mem_tags.get(word)
            if tag is None:
                if DATA_BASE <= word < HEAP_BASE and word in self._initialized_words:
                    tag = GLOBAL_INIT
                else:
                    tag = UNINIT
            base = reg_tags[instr.rs]
            if base > tag:
                tag = base
            reg_tags[instr.rt] = tag if instr.rt != ZERO else INTERNAL
        elif kind is _STORE:
            tag = max(reg_tags[instr.rt], reg_tags[instr.rs])
            self.mem_tags[record.mem_addr & ~3] = reg_tags[instr.rt]  # type: ignore[operator]
        elif kind is _MULDIV:
            tag = max(reg_tags[instr.rs], reg_tags[instr.rt])
            self.hilo_tag = tag
        elif kind is _MFHILO:
            tag = self.hilo_tag
            if instr.rd != ZERO:
                reg_tags[instr.rd] = tag
        elif kind is _SYSCALL:
            # Category from $v0 (service number) and $a0 (argument); the
            # external tagging of read results happens in on_syscall.
            tag = max(reg_tags[V0], reg_tags[4])
        elif kind is _JUMP or kind is _NOP:
            tag = INTERNAL
        elif kind is _CALL:
            tag = INTERNAL if instr.op.fmt == Format.J else reg_tags[instr.rs]
            link = instr.dest
            if link:
                reg_tags[link] = INTERNAL
        else:  # JUMP_REG
            tag = reg_tags[instr.rs]

        stats = self._tag_stats[tag]
        stats.total += 1
        tracker = self.tracker
        if tracker is not None and tracker.was_repeated(record):
            stats.repeated += 1

    def on_syscall(self, event: SyscallEvent) -> None:
        if event.is_input and event.result is not None:
            self.reg_tags[V0] = EXTERNAL
        elif event.result is not None:
            self.reg_tags[V0] = INTERNAL  # sbrk returns a program constant

    # -- reporting ------------------------------------------------------------

    def report(self) -> GlobalAnalysisReport:
        return GlobalAnalysisReport(
            categories=dict(self.stats),
            dynamic_total=self.dynamic_total,
            dynamic_repeated=self.dynamic_repeated,
        )
