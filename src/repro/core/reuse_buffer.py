"""Dynamic instruction reuse buffer (the paper's Section 7, Table 10).

Models the scheme of Sodani & Sohi's "Dynamic Instruction Reuse" (ISCA
'97) at the fidelity Table 10 needs: a PC-indexed set-associative buffer
whose entries hold one dynamic instance (PC and operand values) of a
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
from typing import Dict, List, Set, Tuple

from repro.isa.instructions import Kind
from repro.sim.events import StepRecord
from repro.sim.observer import Analyzer

#: Paper configuration: 8K entries, 4-way set associative.
DEFAULT_ENTRIES = 8192
DEFAULT_ASSOCIATIVITY = 4


#: A buffered instance: ``(pc, operand values)``.  By determinism the
#: results of a matching instance equal the buffered ones, so they are
#: not kept.
_Key = Tuple[int, Tuple[int, ...]]


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
        #: Sets are MRU-first lists of entry keys.
        self._sets: List[List[_Key]] = [[] for _ in range(self.num_sets)]
        #: memory word -> keys of resident loads of that word, and back.
        self._by_word: Dict[int, Set[_Key]] = {}
        self._load_word: Dict[_Key, int] = {}
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

    def on_step(self, record: StepRecord) -> None:
        self.dynamic_total += 1
        self.last_index = record.index
        sets = self._sets
        num_sets = self.num_sets

        # Stores invalidate any buffered load of the written word (before
        # the store itself could be entered, order is irrelevant for it).
        if record.store_value is not None:
            linked = self._by_word.pop(record.mem_addr & ~3, None)  # type: ignore[operator]
            if linked:
                for key in linked:
                    sets[(key[0] >> 2) % num_sets].remove(key)
                    del self._load_word[key]
                self.invalidations += len(linked)

        pc = record.pc
        bucket = sets[(pc >> 2) % num_sets]
        key = (pc, record.inputs)
        if key in bucket:
            # Reuse hit; refresh LRU position.
            if bucket[0] != key:
                bucket.remove(key)
                bucket.insert(0, key)
            self.reuse_hits += 1
            self.last_was_hit = True
            return

        # Miss: insert this instance, evicting the LRU entry if needed.
        self.last_was_hit = False
        if len(bucket) >= self.associativity:
            victim = bucket.pop()
            word = self._load_word.pop(victim, None)
            if word is not None:
                linked = self._by_word[word]
                linked.discard(victim)
                if not linked:
                    del self._by_word[word]
            self.evictions += 1
        bucket.insert(0, key)
        if record.instr.op.kind is Kind.LOAD:
            word = record.mem_addr & ~3  # type: ignore[operator]
            self._load_word[key] = word
            self._by_word.setdefault(word, set()).add(key)

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
