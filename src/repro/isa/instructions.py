"""Instruction definitions for the MIPS-I-like ISA.

Every opcode the assembler and simulator understand is declared here as an
:class:`OpcodeInfo` carrying its assembly format and semantic class.  The
semantic class (ALU / load / store / branch / call / ...) is what the
paper's analyses key off: e.g. the repetition tracker treats a load's
output as the loaded value, and the local analysis recognizes ``jal``/
``jr $ra`` as call/return boundaries.

Instructions are represented decoded (:class:`Instruction`), not as raw
bit patterns; encoding-level *constraints* (16-bit immediate fields) are
still enforced by the assembler because they matter to the paper (large
constants must be synthesized with ``lui``/``ori`` sequences, one of the
repetition sources discussed in Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.isa.registers import RA, register_name


class Format:
    """Assembly operand formats (how an instruction is written/parsed)."""

    R3 = "r3"            # op rd, rs, rt
    R3_SHIFTV = "r3sv"   # op rd, rt, rs   (variable shifts)
    SHIFT = "shift"      # op rd, rt, shamt
    I2 = "i2"            # op rt, rs, imm
    LUI = "lui"          # op rt, imm
    MEM = "mem"          # op rt, imm(rs)
    BR2 = "br2"          # op rs, rt, label
    BR1 = "br1"          # op rs, label
    J = "j"              # op label
    JR = "jr"            # op rs
    JALR = "jalr"        # op rd, rs
    MULDIV = "muldiv"    # op rs, rt
    MFHILO = "mfhilo"    # op rd
    BARE = "bare"        # op            (syscall, nop, break)


class Kind:
    """Semantic instruction classes used by the analyses."""

    ALU = "alu"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    JUMP = "jump"          # j
    CALL = "call"          # jal, jalr
    JUMP_REG = "jump_reg"  # jr (return when rs == $ra)
    MULDIV = "muldiv"      # writes hi/lo
    MFHILO = "mfhilo"      # reads hi/lo
    SYSCALL = "syscall"
    NOP = "nop"


@dataclass(frozen=True)
class OpcodeInfo:
    """Static description of one opcode."""

    name: str
    fmt: str
    kind: str
    #: Byte width of the memory access for loads/stores, else 0.
    mem_width: int = 0
    #: Loads: sign-extend the loaded value?
    signed_load: bool = False
    #: Immediate is zero-extended (logical ops) rather than sign-extended.
    unsigned_imm: bool = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"OpcodeInfo({self.name})"


def _op(name: str, fmt: str, kind: str, **kwargs: object) -> OpcodeInfo:
    return OpcodeInfo(name=name, fmt=fmt, kind=kind, **kwargs)  # type: ignore[arg-type]


#: All real (non-pseudo) opcodes, keyed by mnemonic.
OPCODES: "dict[str, OpcodeInfo]" = {
    info.name: info
    for info in (
        # Three-register ALU.
        _op("add", Format.R3, Kind.ALU),
        _op("addu", Format.R3, Kind.ALU),
        _op("sub", Format.R3, Kind.ALU),
        _op("subu", Format.R3, Kind.ALU),
        _op("and", Format.R3, Kind.ALU),
        _op("or", Format.R3, Kind.ALU),
        _op("xor", Format.R3, Kind.ALU),
        _op("nor", Format.R3, Kind.ALU),
        _op("slt", Format.R3, Kind.ALU),
        _op("sltu", Format.R3, Kind.ALU),
        # Variable shifts (rd, rt, rs -- rs holds the shift amount).
        _op("sllv", Format.R3_SHIFTV, Kind.ALU),
        _op("srlv", Format.R3_SHIFTV, Kind.ALU),
        _op("srav", Format.R3_SHIFTV, Kind.ALU),
        # Immediate shifts.
        _op("sll", Format.SHIFT, Kind.ALU),
        _op("srl", Format.SHIFT, Kind.ALU),
        _op("sra", Format.SHIFT, Kind.ALU),
        # Immediate ALU.
        _op("addi", Format.I2, Kind.ALU),
        _op("addiu", Format.I2, Kind.ALU),
        _op("andi", Format.I2, Kind.ALU, unsigned_imm=True),
        _op("ori", Format.I2, Kind.ALU, unsigned_imm=True),
        _op("xori", Format.I2, Kind.ALU, unsigned_imm=True),
        _op("slti", Format.I2, Kind.ALU),
        _op("sltiu", Format.I2, Kind.ALU),
        _op("lui", Format.LUI, Kind.ALU, unsigned_imm=True),
        # Multiply / divide and hi/lo moves.
        _op("mult", Format.MULDIV, Kind.MULDIV),
        _op("multu", Format.MULDIV, Kind.MULDIV),
        _op("div", Format.MULDIV, Kind.MULDIV),
        _op("divu", Format.MULDIV, Kind.MULDIV),
        _op("mfhi", Format.MFHILO, Kind.MFHILO),
        _op("mflo", Format.MFHILO, Kind.MFHILO),
        # Loads.
        _op("lw", Format.MEM, Kind.LOAD, mem_width=4, signed_load=True),
        _op("lh", Format.MEM, Kind.LOAD, mem_width=2, signed_load=True),
        _op("lhu", Format.MEM, Kind.LOAD, mem_width=2),
        _op("lb", Format.MEM, Kind.LOAD, mem_width=1, signed_load=True),
        _op("lbu", Format.MEM, Kind.LOAD, mem_width=1),
        # Stores.
        _op("sw", Format.MEM, Kind.STORE, mem_width=4),
        _op("sh", Format.MEM, Kind.STORE, mem_width=2),
        _op("sb", Format.MEM, Kind.STORE, mem_width=1),
        # Branches.
        _op("beq", Format.BR2, Kind.BRANCH),
        _op("bne", Format.BR2, Kind.BRANCH),
        _op("blez", Format.BR1, Kind.BRANCH),
        _op("bgtz", Format.BR1, Kind.BRANCH),
        _op("bltz", Format.BR1, Kind.BRANCH),
        _op("bgez", Format.BR1, Kind.BRANCH),
        # Jumps and calls.
        _op("j", Format.J, Kind.JUMP),
        _op("jal", Format.J, Kind.CALL),
        _op("jr", Format.JR, Kind.JUMP_REG),
        _op("jalr", Format.JALR, Kind.CALL),
        # System.
        _op("syscall", Format.BARE, Kind.SYSCALL),
        _op("nop", Format.BARE, Kind.NOP),
        _op("break", Format.BARE, Kind.SYSCALL),
    )
}


def _sources_of(op: OpcodeInfo, rs: int, rt: int) -> "tuple[int, ...]":
    fmt = op.fmt
    if fmt in (Format.R3, Format.BR2, Format.MULDIV):
        return (rs, rt)
    if fmt == Format.R3_SHIFTV:
        return (rt, rs)
    if fmt == Format.SHIFT:
        return (rt,)
    if fmt in (Format.I2, Format.MEM, Format.BR1, Format.JR, Format.JALR):
        if op.kind == Kind.STORE:
            return (rt, rs)
        return (rs,)
    return ()


def _dest_of(op: OpcodeInfo, rd: int, rt: int) -> Optional[int]:
    fmt = op.fmt
    kind = op.kind
    if fmt in (Format.R3, Format.R3_SHIFTV, Format.SHIFT, Format.MFHILO):
        return rd
    if fmt == Format.JALR:
        return rd
    if fmt in (Format.I2, Format.LUI):
        return rt
    if kind == Kind.LOAD:
        return rt
    if kind == Kind.CALL and fmt == Format.J:
        return RA
    return None


class Instruction:
    """One decoded static instruction.

    Fields not used by an opcode's format are left at their defaults.
    ``imm`` holds the (already sign- or zero-extended) immediate; ``target``
    holds a resolved absolute address for jumps/branches.  ``addr`` is the
    instruction's own address, assigned by the assembler, and ``label`` is
    the original symbolic target, kept for disassembly.

    ``sources`` (the registers read, in operand order) and ``dest`` (the
    general register written, or ``None``) are computed once here: the
    analyzers read them on every retired instruction, and no code changes
    ``op``/``rs``/``rt``/``rd`` after construction.
    """

    __slots__ = (
        "op", "rd", "rs", "rt", "imm", "shamt", "target", "addr", "label",
        "sources", "dest",
    )

    def __init__(
        self,
        op: OpcodeInfo,
        rd: int = 0,
        rs: int = 0,
        rt: int = 0,
        imm: int = 0,
        shamt: int = 0,
        target: int = 0,
        addr: int = 0,
        label: Optional[str] = None,
    ) -> None:
        self.op = op
        self.rd = rd
        self.rs = rs
        self.rt = rt
        self.imm = imm
        self.shamt = shamt
        self.target = target
        self.addr = addr
        self.label = label
        self.sources = _sources_of(op, rs, rt)
        self.dest = _dest_of(op, rd, rt)

    @property
    def is_load(self) -> bool:
        return self.op.kind == Kind.LOAD

    @property
    def is_store(self) -> bool:
        return self.op.kind == Kind.STORE

    @property
    def is_call(self) -> bool:
        return self.op.kind == Kind.CALL

    @property
    def is_return(self) -> bool:
        return self.op.kind == Kind.JUMP_REG and self.rs == RA

    def disassemble(self) -> str:
        """Render the instruction back to assembly text."""
        op, fmt = self.op, self.op.fmt
        rd, rs, rt = register_name(self.rd), register_name(self.rs), register_name(self.rt)
        target = self.label if self.label is not None else hex(self.target)
        if fmt == Format.R3:
            return f"{op.name} {rd}, {rs}, {rt}"
        if fmt == Format.R3_SHIFTV:
            return f"{op.name} {rd}, {rt}, {rs}"
        if fmt == Format.SHIFT:
            return f"{op.name} {rd}, {rt}, {self.shamt}"
        if fmt == Format.I2:
            return f"{op.name} {rt}, {rs}, {self.imm}"
        if fmt == Format.LUI:
            return f"{op.name} {rt}, {self.imm}"
        if fmt == Format.MEM:
            return f"{op.name} {rt}, {self.imm}({rs})"
        if fmt == Format.BR2:
            return f"{op.name} {rs}, {rt}, {target}"
        if fmt == Format.BR1:
            return f"{op.name} {rs}, {target}"
        if fmt == Format.J:
            return f"{op.name} {target}"
        if fmt == Format.JR:
            return f"{op.name} {rs}"
        if fmt == Format.JALR:
            return f"{op.name} {rd}, {rs}"
        if fmt == Format.MULDIV:
            return f"{op.name} {rs}, {rt}"
        if fmt == Format.MFHILO:
            return f"{op.name} {rd}"
        return op.name

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Instruction {hex(self.addr)}: {self.disassemble()}>"
