"""Associative trace reuse table.

Mirrors the geometry API of :class:`repro.core.reuse_buffer.ReuseBuffer`
— ``capacity`` entries split into ``capacity // ways`` sets indexed by
``(start_pc >> 2) % num_sets``, MRU-first lists with LRU eviction — plus
two side indexes the trace level needs:

* ``start_pc -> entries`` for O(1) probes without touching the set, and
* ``memory word -> entries`` so a store can invalidate every resident
  trace whose memory live-ins it touches (the analyzer's freshness
  mechanism, analogous to the buffer's scheme ``Sv``).

``max_trace_len`` is table geometry, not policy: it bounds the length of
each entry and every builder driving this table splits at it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.traces.trace import Trace

#: Default geometry: far smaller than the 8K-entry instruction buffer —
#: traces are scarcer (one per dynamic region, not per instruction).
DEFAULT_TRACE_CAPACITY = 1024
DEFAULT_TRACE_WAYS = 4
DEFAULT_MAX_TRACE_LEN = 16


class TraceReuseTable:
    """A start-pc-indexed, LRU, set-associative table of traces."""

    def __init__(
        self,
        capacity: int = DEFAULT_TRACE_CAPACITY,
        ways: int = DEFAULT_TRACE_WAYS,
        max_trace_len: int = DEFAULT_MAX_TRACE_LEN,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if ways < 1:
            raise ValueError(f"ways must be positive, got {ways}")
        if capacity % ways:
            raise ValueError("capacity must be a multiple of ways")
        if max_trace_len < 1:
            raise ValueError("max_trace_len must be at least 1")
        self.capacity = capacity
        self.ways = ways
        self.max_trace_len = max_trace_len
        self.num_sets = capacity // ways
        self._sets: List[List[Trace]] = [[] for _ in range(self.num_sets)]
        self._by_pc: Dict[int, List[Trace]] = {}
        self._by_word: Dict[int, Set[Trace]] = {}
        self.installs = 0
        self.evictions = 0
        self.invalidations = 0

    def entries_at(self, pc: int) -> Optional[List[Trace]]:
        """Resident traces starting at ``pc`` (MRU-first), or ``None``."""
        return self._by_pc.get(pc)

    def lookup(self, pc: int, regs, hi, lo) -> Optional[Trace]:
        """First resident trace at ``pc`` whose live-ins validate."""
        entries = self._by_pc.get(pc)
        if not entries:
            return None
        for trace in entries:
            if trace.matches(regs, hi, lo):
                self.promote(trace)
                return trace
        return None

    def promote(self, trace: Trace) -> None:
        """Refresh ``trace``'s MRU position after a hit."""
        bucket = self._sets[(trace.start_pc >> 2) % self.num_sets]
        index = bucket.index(trace)
        if index:
            bucket.insert(0, bucket.pop(index))
        entries = self._by_pc[trace.start_pc]
        index = entries.index(trace)
        if index:
            entries.insert(0, entries.pop(index))

    def _unlink(self, trace: Trace) -> None:
        """Drop ``trace`` from the side indexes (not from its set)."""
        entries = self._by_pc.get(trace.start_pc)
        if entries is not None:
            try:
                entries.remove(trace)
            except ValueError:
                pass
            if not entries:
                del self._by_pc[trace.start_pc]
        for address, width, _raw in trace.mem_in:
            for word in range(address & ~3, address + width, 4):
                linked = self._by_word.get(word)
                if linked is not None:
                    linked.discard(trace)
                    if not linked:
                        del self._by_word[word]

    def install(self, trace: Trace) -> None:
        """Insert ``trace``, evicting the set's LRU entry if full.

        An entry with the same live-in signature is replaced in place
        (determinism makes the two copies identical, so the newer one
        adds nothing and would waste a way).
        """
        start_pc = trace.start_pc
        bucket = self._sets[(start_pc >> 2) % self.num_sets]
        for resident in bucket:
            if (
                resident.start_pc == start_pc
                and resident.reg_in == trace.reg_in
                and resident.mem_in == trace.mem_in
                and resident.hi_lo_in == trace.hi_lo_in
            ):
                bucket.remove(resident)
                self._unlink(resident)
                break
        else:
            if len(bucket) >= self.ways:
                victim = bucket.pop()
                self._unlink(victim)
                self.evictions += 1
        bucket.insert(0, trace)
        entries = self._by_pc.get(start_pc)
        if entries is None:
            self._by_pc[start_pc] = [trace]
        else:
            entries.insert(0, trace)
        by_word = self._by_word
        for address, width, _raw in trace.mem_in:
            for word in range(address & ~3, address + width, 4):
                linked = by_word.get(word)
                if linked is None:
                    by_word[word] = {trace}
                else:
                    linked.add(trace)
        self.installs += 1

    def invalidate_store(self, address: int, width: int) -> int:
        """Evict every trace with a memory live-in in the stored bytes.

        Returns the number of traces invalidated.  Word granularity,
        like the instruction buffer: any store touching a live-in's word
        conservatively kills the trace.
        """
        count = 0
        for word in range(address & ~3, address + width, 4):
            linked = self._by_word.get(word)
            if not linked:
                continue
            for trace in tuple(linked):
                bucket = self._sets[(trace.start_pc >> 2) % self.num_sets]
                try:
                    bucket.remove(trace)
                except ValueError:
                    pass
                self._unlink(trace)
                count += 1
        self.invalidations += count
        return count

    @property
    def occupancy(self) -> int:
        """Traces currently resident across all sets."""
        return sum(len(bucket) for bucket in self._sets)
