"""Dynamic instruction reuse buffer (the paper's Section 7, Table 10).

Models the scheme of Sodani & Sohi's "Dynamic Instruction Reuse" (ISCA
'97) at the fidelity Table 10 needs: a PC-indexed set-associative buffer
whose entries hold one dynamic instance (operand values and results) of a
static instruction.  An instruction *reuses* when it hits an entry with
matching PC and operand values — by determinism its results then equal
the buffered results, so every reuse is a repetition; the buffer simply
cannot capture all of it (capacity, associativity conflicts, one instance
per entry, load invalidations).

Loads are entered with their address operands as inputs and the loaded
value as result; a store to a buffered load's address invalidates the
entry, keeping reuse semantically safe (the paper's scheme ``Sv``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.sim.events import StepRecord
from repro.sim.observer import Analyzer

#: Paper configuration: 8K entries, 4-way set associative.
DEFAULT_ENTRIES = 8192
DEFAULT_ASSOCIATIVITY = 4


class _Entry:
    __slots__ = ("pc", "inputs", "outputs", "mem_word")

    def __init__(
        self,
        pc: int,
        inputs: Tuple[int, ...],
        outputs: Tuple[int, ...],
        mem_word: Optional[int],
    ) -> None:
        self.pc = pc
        self.inputs = inputs
        self.outputs = outputs
        self.mem_word = mem_word


@dataclass
class ReuseBufferReport:
    """Table 10 numbers (the repeated-instruction share is computed by the
    harness against the repetition tracker's totals)."""

    dynamic_total: int
    reuse_hits: int
    invalidations: int
    #: Entries displaced by capacity pressure (not a paper number).
    evictions: int = 0
    #: Entries resident when the run finished.
    occupancy: int = 0

    @property
    def hit_pct(self) -> float:
        """Table 10 column 2: % of all dynamic instructions reused."""
        return 100.0 * self.reuse_hits / self.dynamic_total if self.dynamic_total else 0.0

    def repeated_share_pct(self, dynamic_repeated: int) -> float:
        """Table 10 column 3: % of repeated instructions captured."""
        return 100.0 * self.reuse_hits / dynamic_repeated if dynamic_repeated else 0.0


class ReuseBuffer(Analyzer):
    """A PC-indexed, LRU, set-associative reuse buffer."""

    def __init__(
        self,
        entries: int = DEFAULT_ENTRIES,
        associativity: int = DEFAULT_ASSOCIATIVITY,
    ) -> None:
        if entries < 1:
            raise ValueError(f"entries must be positive, got {entries}")
        if associativity < 1:
            raise ValueError(f"associativity must be positive, got {associativity}")
        if entries % associativity:
            raise ValueError("entries must be a multiple of associativity")
        self.num_sets = entries // associativity
        self.associativity = associativity
        #: Sets are MRU-first lists.
        self._sets: List[List[_Entry]] = [[] for _ in range(self.num_sets)]
        #: memory word -> entries caching a load of that word.
        self._by_word: Dict[int, Set[_Entry]] = {}
        self.dynamic_total = 0
        self.reuse_hits = 0
        self.invalidations = 0
        self.evictions = 0
        #: Per-step flag for composition (e.g. the timing model): True iff
        #: the most recent step reused; valid for that step only.
        self.last_was_hit = False
        self.last_index = -1

    def was_reused(self, record: StepRecord) -> bool:
        """Reuse flag for ``record`` (must be the most recent step)."""
        if record.index != self.last_index:
            raise RuntimeError(
                "ReuseBuffer.was_reused() queried out of order; attach the "
                "buffer before dependent analyzers"
            )
        return self.last_was_hit

    def _set_for(self, pc: int) -> List[_Entry]:
        return self._sets[(pc >> 2) % self.num_sets]

    def _drop_word_link(self, entry: _Entry) -> None:
        if entry.mem_word is None:
            return
        linked = self._by_word.get(entry.mem_word)
        if linked is not None:
            linked.discard(entry)
            if not linked:
                del self._by_word[entry.mem_word]

    def on_step(self, record: StepRecord) -> None:
        self.dynamic_total += 1
        self.last_index = record.index
        self.last_was_hit = False
        pc = record.pc
        bucket = self._set_for(pc)

        # Stores invalidate any buffered load of the written word (before
        # the store itself could be entered, order is irrelevant for it).
        if record.store_value is not None:
            word = record.mem_addr & ~3  # type: ignore[operator]
            linked = self._by_word.pop(word, None)
            if linked:
                for entry in linked:
                    entry_set = self._set_for(entry.pc)
                    if entry in entry_set:
                        entry_set.remove(entry)
                        self.invalidations += 1

        for index, entry in enumerate(bucket):
            if entry.pc == pc and entry.inputs == record.inputs:
                # Reuse hit; refresh LRU position.
                if index:
                    bucket.insert(0, bucket.pop(index))
                self.reuse_hits += 1
                self.last_was_hit = True
                return

        # Miss: insert this instance, evicting the LRU entry if needed.
        mem_word = None
        if record.instr.is_load:
            mem_word = record.mem_addr & ~3  # type: ignore[operator]
        new_entry = _Entry(pc, record.inputs, record.outputs, mem_word)
        if len(bucket) >= self.associativity:
            victim = bucket.pop()
            self._drop_word_link(victim)
            self.evictions += 1
        bucket.insert(0, new_entry)
        if mem_word is not None:
            self._by_word.setdefault(mem_word, set()).add(new_entry)

    @property
    def occupancy(self) -> int:
        """Entries currently resident across all sets."""
        return sum(len(bucket) for bucket in self._sets)

    def report(self) -> ReuseBufferReport:
        return ReuseBufferReport(
            dynamic_total=self.dynamic_total,
            reuse_hits=self.reuse_hits,
            invalidations=self.invalidations,
            evictions=self.evictions,
            occupancy=self.occupancy,
        )
