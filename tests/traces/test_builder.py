"""Tests for trace segmentation and dataflow summarization."""

from __future__ import annotations

from repro.isa.convention import DATA_BASE, TEXT_BASE
from repro.traces.builder import (
    REASON_CALL,
    REASON_OVERLAP,
    REASON_RETURN,
    REASON_SYSCALL,
    REASON_UNTRACKED_STORE,
    TraceBuilder,
    step_next_pc,
)
from repro.isa.instructions import Kind
from repro.traces.trace import (
    BOUNDARY_END,
    BOUNDARY_EXCLUDE,
    BOUNDARY_NONE,
    CLASS_ALU,
    CLASS_BRANCH,
    CLASS_LOAD,
    CLASS_STORE,
    CTRL_CALL,
    CTRL_MFHI,
    CTRL_MFLO,
    CTRL_PLAIN,
    CTRL_RETURN,
    CTRL_SYSCALL,
    MEM_LOAD,
    MEM_MULDIV,
    MEM_NONE,
    MEM_STORE,
    boundary_kind,
    class_of,
    trace_facts,
)
from repro.workloads import WORKLOAD_ORDER, get_workload

from tests.helpers import make_instruction, make_step

PC = TEXT_BASE


def alu(pc, rd, rs, rt, a, b):
    return make_step(
        pc=pc, op="addu", inputs=(a, b), outputs=((a + b) & 0xFFFFFFFF,),
        dest_reg=rd, dest_value=(a + b) & 0xFFFFFFFF, rd=rd, rs=rs, rt=rt,
    )


def load(pc, rt, rs, addr, value):
    return make_step(
        pc=pc, op="lw", inputs=(addr,), outputs=(value,), dest_reg=rt,
        dest_value=value, mem_addr=addr, rt=rt, rs=rs,
    )


def store(pc, rt, rs, addr, value):
    return make_step(
        pc=pc, op="sw", inputs=(value, addr), outputs=(), mem_addr=addr,
        store_value=value, rt=rt, rs=rs,
    )


def branch(pc, rs, rt, a, b, taken, target):
    return make_step(
        pc=pc, op="beq", inputs=(a, b), outputs=(1,) if taken else (0,),
        rs=rs, rt=rt, target=target,
    )


class TestBoundaries:
    def test_straight_line_is_interior(self):
        assert boundary_kind(make_instruction("addu", rd=8, rs=9, rt=10)) == BOUNDARY_NONE
        assert boundary_kind(make_instruction("lw", rt=8, rs=9)) == BOUNDARY_NONE

    def test_branches_and_jumps_end_traces(self):
        assert boundary_kind(make_instruction("beq", rs=8, rt=9)) == BOUNDARY_END
        assert boundary_kind(make_instruction("j", target=PC)) == BOUNDARY_END
        # Computed jump through a non-return register ends a trace too.
        assert boundary_kind(make_instruction("jr", rs=8)) == BOUNDARY_END

    def test_calls_returns_syscalls_are_excluded(self):
        assert boundary_kind(make_instruction("jal", target=PC)) == BOUNDARY_EXCLUDE
        assert boundary_kind(make_instruction("jalr", rd=31, rs=8)) == BOUNDARY_EXCLUDE
        assert boundary_kind(make_instruction("jr", rs=31)) == BOUNDARY_EXCLUDE
        assert boundary_kind(make_instruction("syscall")) == BOUNDARY_EXCLUDE


class TestTraceFacts:
    def test_facts_match_direct_derivation_on_every_workload(self):
        """Every static instruction of the 8 workloads: the memoized facts
        tuple says what the per-instruction helpers say."""
        checked = 0
        for name in WORKLOAD_ORDER:
            for instr in get_workload(name).program().text:
                boundary, cls, control, memory, width = trace_facts(instr)
                op = instr.op
                assert boundary == boundary_kind(instr), instr
                assert cls == class_of(instr), instr
                assert (control == CTRL_RETURN) == instr.is_return, instr
                assert (control == CTRL_CALL) == instr.is_call, instr
                assert (control == CTRL_SYSCALL) == (op.kind == Kind.SYSCALL), instr
                assert (control == CTRL_MFHI) == (op.name == "mfhi"), instr
                assert (control == CTRL_MFLO) == (op.name == "mflo"), instr
                if control == CTRL_PLAIN:
                    assert boundary != BOUNDARY_EXCLUDE, instr
                expected_memory = (
                    MEM_LOAD if instr.is_load
                    else MEM_STORE if instr.is_store
                    else MEM_MULDIV if op.kind == Kind.MULDIV
                    else MEM_NONE
                )
                assert memory == expected_memory, instr
                assert width == op.mem_width, instr
                checked += 1
        assert checked > 1000


class TestStepNextPc:
    def test_fallthrough(self):
        assert step_next_pc(alu(PC, 8, 9, 10, 1, 2)) == PC + 4

    def test_branch_direction(self):
        assert step_next_pc(branch(PC, 8, 9, 5, 5, True, PC + 64)) == PC + 64
        assert step_next_pc(branch(PC, 8, 9, 5, 6, False, PC + 64)) == PC + 4

    def test_computed_jump_uses_observed_target(self):
        record = make_step(pc=PC, op="jr", inputs=(PC + 128,), rs=8)
        assert step_next_pc(record) == PC + 128


class TestDataflow:
    def test_live_in_and_live_out_registers(self):
        builder = TraceBuilder(PC, max_len=16)
        builder.feed(alu(PC, 8, 9, 10, a=5, b=7))          # r8 = r9 + r10
        builder.feed(alu(PC + 4, 12, 8, 9, a=12, b=5))     # r12 = r8 + r9
        builder.feed(branch(PC + 8, 12, 11, 17, 0, False, PC))
        trace = builder.build(PC + 12)
        # r8/r12 are produced in-trace; r9, r10, r11 come from outside.
        assert trace.reg_in == ((9, 5), (10, 7), (11, 0))
        assert trace.length == 3
        assert trace.end_pc == PC + 12

    def test_class_counts(self):
        builder = TraceBuilder(PC, max_len=16)
        builder.feed(alu(PC, 8, 9, 10, 1, 2))
        builder.feed(load(PC + 4, 8, 9, DATA_BASE, 42))
        builder.feed(store(PC + 8, 8, 9, DATA_BASE, 42))
        builder.feed(branch(PC + 12, 8, 9, 1, 1, True, PC))
        trace = builder.build(PC)
        assert trace.class_counts[CLASS_ALU] == 1
        assert trace.class_counts[CLASS_LOAD] == 1
        assert trace.class_counts[CLASS_STORE] == 1
        assert trace.class_counts[CLASS_BRANCH] == 1

    def test_load_from_untouched_memory_is_live_in(self):
        builder = TraceBuilder(PC, max_len=16)
        builder.feed(load(PC, 8, 9, DATA_BASE, 42))
        trace = builder.build(PC + 4)
        assert trace.mem_in == ((DATA_BASE, 4, 42),)

    def test_load_covered_by_in_trace_store_is_internal(self):
        builder = TraceBuilder(PC, max_len=16)
        builder.feed(store(PC, 8, 9, DATA_BASE, 7))
        builder.feed(load(PC + 4, 10, 9, DATA_BASE, 7))
        trace = builder.build(PC + 8)
        assert trace.mem_in == ()
        assert builder.unsafe is None

    def test_partially_covered_load_poisons(self):
        builder = TraceBuilder(PC, max_len=16)
        # Store one byte, then load the word containing it.
        builder.feed(
            make_step(
                pc=PC, op="sb", inputs=(7, DATA_BASE), mem_addr=DATA_BASE,
                store_value=7, rt=8, rs=9,
            )
        )
        builder.feed(load(PC + 4, 10, 9, DATA_BASE, 0x0000_0007))
        assert builder.unsafe == REASON_OVERLAP

    def test_duplicate_loads_recorded_once(self):
        builder = TraceBuilder(PC, max_len=16)
        builder.feed(load(PC, 8, 9, DATA_BASE, 42))
        builder.feed(load(PC + 4, 10, 9, DATA_BASE, 42))
        assert builder.mem_live_ins == ((DATA_BASE, 4, 42),)

    def test_signed_byte_load_records_raw_byte(self):
        builder = TraceBuilder(PC, max_len=16)
        builder.feed(
            make_step(
                pc=PC, op="lb", inputs=(DATA_BASE,), outputs=(0xFFFFFFFF,),
                dest_reg=8, dest_value=0xFFFFFFFF, mem_addr=DATA_BASE, rt=8, rs=9,
            )
        )
        # The live-in holds the unextended memory byte, 0xFF.
        assert builder.mem_live_ins == ((DATA_BASE, 1, 0xFF),)

    def test_hi_lo_tracking(self):
        builder = TraceBuilder(PC, max_len=16)
        builder.feed(make_step(pc=PC, op="mfhi", inputs=(3,), outputs=(3,),
                               dest_reg=8, dest_value=3, rd=8))
        builder.feed(make_step(pc=PC + 4, op="mult", inputs=(2, 5),
                               outputs=(0, 10), rs=9, rt=10))
        builder.feed(make_step(pc=PC + 8, op="mflo", inputs=(10,), outputs=(10,),
                               dest_reg=11, dest_value=10, rd=11))
        trace = builder.build(PC + 12)
        # mfhi before the mult reads external hi; mflo after it does not.
        assert trace.hi_lo_in == ((True, 3),)


class TestUnsafeMarkers:
    def test_syscall_marks_unsafe(self):
        builder = TraceBuilder(PC, max_len=16)
        builder.feed(make_step(pc=PC, op="syscall", inputs=(1, 42)))
        assert builder.unsafe == REASON_SYSCALL

    def test_call_marks_unsafe(self):
        builder = TraceBuilder(PC, max_len=16)
        builder.feed(make_step(pc=PC, op="jal", target=PC + 64,
                               dest_reg=31, dest_value=PC + 4))
        assert builder.unsafe == REASON_CALL

    def test_return_marks_unsafe(self):
        builder = TraceBuilder(PC, max_len=16)
        builder.feed(make_step(pc=PC, op="jr", inputs=(PC + 4,), rs=31))
        assert builder.unsafe == REASON_RETURN

    def test_store_outside_tracked_segments_marks_unsafe(self):
        builder = TraceBuilder(PC, max_len=16)
        # A store into the text segment: self-modifying-code adjacent.
        builder.feed(store(PC, 8, 9, TEXT_BASE + 0x100, 1))
        assert builder.unsafe == REASON_UNTRACKED_STORE

    def test_tracked_store_stays_safe(self):
        builder = TraceBuilder(PC, max_len=16)
        builder.feed(store(PC, 8, 9, DATA_BASE, 1))
        assert builder.unsafe is None
