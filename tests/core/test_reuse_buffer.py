"""Tests for the reuse buffer model (Table 10 hardware)."""

from __future__ import annotations

import pytest

from repro.core.reuse_buffer import ReuseBuffer

from tests.helpers import make_step

PC = 0x0040_0000


def alu(pc, value):
    return make_step(pc=pc, op="addu", inputs=(value, 1), outputs=(value + 1,))


def load(pc, addr, value):
    return make_step(
        pc=pc, op="lw", inputs=(addr,), outputs=(value,), dest_reg=8, dest_value=value,
        mem_addr=addr,
    )


def store(pc, addr, value):
    return make_step(
        pc=pc, op="sw", inputs=(value, addr), outputs=(), mem_addr=addr, store_value=value,
    )


class TestBasicReuse:
    def test_first_occurrence_misses(self):
        buffer = ReuseBuffer(entries=16, associativity=4)
        buffer.on_step(alu(PC, 5))
        assert buffer.reuse_hits == 0

    def test_second_occurrence_hits(self):
        buffer = ReuseBuffer(entries=16, associativity=4)
        buffer.on_step(alu(PC, 5))
        buffer.on_step(alu(PC, 5))
        assert buffer.reuse_hits == 1

    def test_different_operands_miss(self):
        buffer = ReuseBuffer(entries=16, associativity=4)
        buffer.on_step(alu(PC, 5))
        buffer.on_step(alu(PC, 6))
        assert buffer.reuse_hits == 0

    def test_multiple_instances_coexist_in_set(self):
        buffer = ReuseBuffer(entries=16, associativity=4)
        for value in (1, 2, 3):
            buffer.on_step(alu(PC, value))
        for value in (1, 2, 3):
            buffer.on_step(alu(PC, value))
        assert buffer.reuse_hits == 3

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            ReuseBuffer(entries=10, associativity=4)
        for entries, associativity, name in (
            (0, 4, "entries"),
            (-4, 4, "entries"),
            (16, 0, "associativity"),
        ):
            with pytest.raises(ValueError, match=f"^{name} must be positive"):
                ReuseBuffer(entries=entries, associativity=associativity)


class TestEvictions:
    def test_lru_eviction_within_set(self):
        buffer = ReuseBuffer(entries=4, associativity=4)  # a single set
        for value in (1, 2, 3, 4):
            buffer.on_step(alu(PC, value))
        buffer.on_step(alu(PC, 5))  # evicts the LRU instance (value 1)
        buffer.on_step(alu(PC, 1))
        assert buffer.reuse_hits == 0

    def test_mru_promotion_on_hit(self):
        buffer = ReuseBuffer(entries=4, associativity=4)
        for value in (1, 2, 3, 4):
            buffer.on_step(alu(PC, value))
        buffer.on_step(alu(PC, 1))  # hit: promotes value-1 entry to MRU
        buffer.on_step(alu(PC, 5))  # evicts value 2 instead
        buffer.on_step(alu(PC, 1))
        assert buffer.reuse_hits == 2

    def test_conflicting_pcs_share_sets(self):
        buffer = ReuseBuffer(entries=4, associativity=1)
        stride = 4 * 4  # same set index for 4 sets
        for i in range(8):
            buffer.on_step(alu(PC + i * stride, 1))
        # All mapped to a few sets with assoc 1: re-running misses mostly.
        first_round_hits = buffer.reuse_hits
        assert first_round_hits == 0


class TestLoadInvalidation:
    def test_load_reuse_until_store(self):
        buffer = ReuseBuffer(entries=16, associativity=4)
        buffer.on_step(load(PC, 0x1000_0000, 7))
        buffer.on_step(load(PC, 0x1000_0000, 7))
        assert buffer.reuse_hits == 1
        buffer.on_step(store(PC + 4, 0x1000_0000, 9))
        assert buffer.invalidations == 1
        buffer.on_step(load(PC, 0x1000_0000, 9))
        assert buffer.reuse_hits == 1  # invalidated: no stale reuse

    def test_store_to_other_address_keeps_entry(self):
        buffer = ReuseBuffer(entries=16, associativity=4)
        buffer.on_step(load(PC, 0x1000_0000, 7))
        buffer.on_step(store(PC + 4, 0x1000_0040, 9))
        buffer.on_step(load(PC, 0x1000_0000, 7))
        assert buffer.reuse_hits == 1
        assert buffer.invalidations == 0

    def test_subword_store_invalidates_word(self):
        buffer = ReuseBuffer(entries=16, associativity=4)
        buffer.on_step(load(PC, 0x1000_0000, 7))
        # A byte store inside the same word must invalidate conservatively.
        buffer.on_step(store(PC + 4, 0x1000_0002, 1))
        buffer.on_step(load(PC, 0x1000_0000, 7))
        assert buffer.reuse_hits == 0


class TestReport:
    def test_report_percentages(self):
        buffer = ReuseBuffer(entries=16, associativity=4)
        buffer.on_step(alu(PC, 5))
        buffer.on_step(alu(PC, 5))
        report = buffer.report()
        assert report.dynamic_total == 2
        assert report.reuse_hits == 1
        assert report.hit_pct == 50.0
        assert report.repeated_share_pct(1) == 100.0
        assert report.repeated_share_pct(0) == 0.0
