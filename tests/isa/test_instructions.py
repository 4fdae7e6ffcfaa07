"""Tests for opcode metadata and the decoded instruction type."""

from __future__ import annotations

import pytest

from repro.isa.instructions import Format, Instruction, Kind, OPCODES
from repro.isa.registers import A0, RA, T0, T1, T2


class TestOpcodeTable:
    def test_core_opcodes_present(self):
        for name in ("addu", "lw", "sw", "beq", "jal", "jr", "syscall", "lui"):
            assert name in OPCODES

    def test_load_metadata(self):
        assert OPCODES["lw"].mem_width == 4
        assert OPCODES["lb"].signed_load
        assert not OPCODES["lbu"].signed_load
        assert OPCODES["lhu"].mem_width == 2

    def test_unsigned_immediate_ops(self):
        assert OPCODES["ori"].unsigned_imm
        assert OPCODES["andi"].unsigned_imm
        assert not OPCODES["addiu"].unsigned_imm

    def test_kinds(self):
        assert OPCODES["jal"].kind == Kind.CALL
        assert OPCODES["jr"].kind == Kind.JUMP_REG
        assert OPCODES["mult"].kind == Kind.MULDIV
        assert OPCODES["mfhi"].kind == Kind.MFHILO


class TestInstructionProperties:
    def test_is_return_only_for_jr_ra(self):
        assert Instruction(OPCODES["jr"], rs=RA).is_return
        assert not Instruction(OPCODES["jr"], rs=T0).is_return
        assert not Instruction(OPCODES["jal"]).is_return

    def test_is_load_store(self):
        assert Instruction(OPCODES["lw"]).is_load
        assert Instruction(OPCODES["sw"]).is_store
        assert not Instruction(OPCODES["addu"]).is_load

    def test_source_registers_r3(self):
        instr = Instruction(OPCODES["addu"], rd=T0, rs=T1, rt=T2)
        assert instr.sources == (T1, T2)
        assert instr.dest == T0

    def test_source_registers_store_includes_data(self):
        instr = Instruction(OPCODES["sw"], rt=T0, rs=T1, imm=4)
        assert instr.sources == (T0, T1)
        assert instr.dest is None

    def test_load_dest(self):
        instr = Instruction(OPCODES["lw"], rt=T0, rs=T1, imm=0)
        assert instr.sources == (T1,)
        assert instr.dest == T0

    def test_jal_writes_ra(self):
        assert Instruction(OPCODES["jal"], target=0x400000).dest == RA

    def test_shift_sources(self):
        instr = Instruction(OPCODES["sll"], rd=T0, rt=T1, shamt=2)
        assert instr.sources == (T1,)

    def test_variable_shift_operand_order(self):
        instr = Instruction(OPCODES["sllv"], rd=T0, rt=T1, rs=T2)
        assert instr.sources == (T1, T2)


class TestDisassembly:
    @pytest.mark.parametrize(
        "instr,expected",
        [
            (Instruction(OPCODES["addu"], rd=T0, rs=T1, rt=T2), "addu $t0, $t1, $t2"),
            (Instruction(OPCODES["addiu"], rt=T0, rs=T1, imm=-4), "addiu $t0, $t1, -4"),
            (Instruction(OPCODES["lw"], rt=T0, rs=T1, imm=8), "lw $t0, 8($t1)"),
            (Instruction(OPCODES["sll"], rd=T0, rt=T1, shamt=2), "sll $t0, $t1, 2"),
            (Instruction(OPCODES["jr"], rs=RA), "jr $ra"),
            (Instruction(OPCODES["syscall"]), "syscall"),
            (
                Instruction(OPCODES["beq"], rs=T0, rt=T1, label="loop", target=0x400010),
                "beq $t0, $t1, loop",
            ),
        ],
    )
    def test_disassemble(self, instr, expected):
        assert instr.disassemble() == expected
