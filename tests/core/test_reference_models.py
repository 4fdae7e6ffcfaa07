"""Brute-force reference models for the reuse buffer and the repetition
tracker, checked against the real classes on generated step streams.

The references keep the simplest possible state (lists scanned in full,
no side indexes), so they pin the behaviour the optimized classes must
keep: LRU order and eviction, word-granular store invalidation, and the
per-pc instance buffer capped at its capacity.

Streams are deterministic like real execution: an ALU output is a pure
function of (pc, inputs), and a load returns the current contents of
the word it reads, which earlier byte and word stores change.
"""

from __future__ import annotations

from typing import Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.repetition import RepetitionTracker
from repro.core.reuse_buffer import ReuseBuffer
from repro.isa.convention import DATA_BASE

from tests.helpers import make_step

BASE = 0x0040_0000


class ReferenceReuseBuffer:
    """One MRU-first list per set; entries are ``[pc, inputs, word]``."""

    def __init__(self, entries: int, associativity: int) -> None:
        self.num_sets = entries // associativity
        self.associativity = associativity
        self.sets: List[List[list]] = [[] for _ in range(self.num_sets)]
        self.hits = self.invalidations = self.evictions = 0

    def step(self, record) -> bool:
        if record.store_value is not None:
            word = record.mem_addr & ~3
            for bucket in self.sets:
                for entry in list(bucket):
                    if entry[2] == word:
                        bucket.remove(entry)
                        self.invalidations += 1
        bucket = self.sets[(record.pc >> 2) % self.num_sets]
        for entry in bucket:
            if entry[0] == record.pc and entry[1] == record.inputs:
                bucket.remove(entry)
                bucket.insert(0, entry)
                self.hits += 1
                return True
        if len(bucket) == self.associativity:
            bucket.pop()
            self.evictions += 1
        word = record.mem_addr & ~3 if record.instr.is_load else None
        bucket.insert(0, [record.pc, record.inputs, word])
        return False

    @property
    def occupancy(self) -> int:
        return sum(len(bucket) for bucket in self.sets)


class ReferenceTracker:
    """Per-pc lists of ``[(inputs, outputs), repeats]``, capped at capacity."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.buffers: Dict[int, List[list]] = {}
        self.executed: Dict[int, int] = {}
        self.repeated: Dict[int, int] = {}

    def step(self, record) -> bool:
        pc = record.pc
        self.executed[pc] = self.executed.get(pc, 0) + 1
        buffer = self.buffers.setdefault(pc, [])
        instance = (record.inputs, record.outputs)
        for entry in buffer:
            if entry[0] == instance:
                entry[1] += 1
                self.repeated[pc] = self.repeated.get(pc, 0) + 1
                return True
        if len(buffer) < self.capacity:
            buffer.append([instance, 0])
        return False


# One generated op: (kind, pc slot, operand, word slot, byte offset).
_OPS = st.tuples(
    st.sampled_from(("alu", "alu", "load", "store_word", "store_byte")),
    st.integers(0, 5),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 3),
)


def _stream(ops) -> list:
    """Deterministic step records for ``ops`` (memory is simulated)."""
    memory: Dict[int, int] = {}
    records = []
    for index, (kind, pc_slot, operand, word_slot, offset) in enumerate(ops, start=1):
        pc = BASE + 4 * pc_slot
        word = DATA_BASE + 4 * word_slot
        if kind == "alu":
            result = (operand * 2654435761 + pc_slot) & 0xFFFFFFFF
            record = make_step(
                pc=pc, op="addu", inputs=(operand, pc_slot), outputs=(result,),
                dest_reg=8, dest_value=result, index=index, rd=8, rs=9, rt=10,
            )
        elif kind == "load":
            value = memory.get(word, 0)
            record = make_step(
                pc=pc, op="lw", inputs=(word,), outputs=(value,), dest_reg=8,
                dest_value=value, mem_addr=word, index=index, rt=8, rs=9,
            )
        elif kind == "store_word":
            memory[word] = operand
            record = make_step(
                pc=pc, op="sw", inputs=(operand, word), mem_addr=word,
                store_value=operand, index=index, rt=8, rs=9,
            )
        else:
            shift = 8 * offset
            memory[word] = (memory.get(word, 0) & ~(0xFF << shift)) | (operand << shift)
            record = make_step(
                pc=pc, op="sb", inputs=(operand, word + offset), mem_addr=word + offset,
                store_value=operand, index=index, rt=8, rs=9,
            )
        records.append(record)
    return records


_GEOMETRY = st.sampled_from(((4, 1), (4, 2), (8, 2), (8, 4), (16, 4)))


class TestReuseBufferAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(_GEOMETRY, st.lists(_OPS, max_size=80))
    def test_matches_reference(self, geometry, ops):
        entries, associativity = geometry
        real = ReuseBuffer(entries, associativity)
        reference = ReferenceReuseBuffer(entries, associativity)
        for record in _stream(ops):
            real.on_step(record)
            assert real.was_reused(record) == reference.step(record)
        assert real.reuse_hits == reference.hits
        assert real.invalidations == reference.invalidations
        assert real.evictions == reference.evictions
        assert real.occupancy == reference.occupancy


class TestRepetitionTrackerAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4), st.lists(_OPS, max_size=80))
    def test_matches_reference(self, capacity, ops):
        real = RepetitionTracker(buffer_capacity=capacity)
        reference = ReferenceTracker(capacity)
        for record in _stream(ops):
            real.on_step(record)
            assert real.was_repeated(record) == reference.step(record)
        for pc, executed in reference.executed.items():
            assert real.executed_count(pc) == executed
            assert real.repeated_count(pc) == reference.repeated.get(pc, 0)
            assert real.buffered_instances(pc) == len(reference.buffers[pc])
        report = real.report()
        repeats = [
            entry[1] for buffer in reference.buffers.values() for entry in buffer if entry[1]
        ]
        assert report.dynamic_repeated == sum(reference.repeated.values())
        assert report.static_executed == len(reference.executed)
        assert report.static_repeated == sum(1 for n in reference.repeated.values() if n)
        assert report.unique_repeatable_instances == len(repeats)
        assert sorted(report.instance_repeat_counts) == sorted(repeats)
