"""Event records emitted by the functional simulator.

One :class:`StepRecord` is emitted per retired instruction; call, return,
and syscall boundaries get their own event types because the paper's
function-level and local analyses are driven by those boundaries.

The ``inputs``/``outputs`` tuples implement the paper's Section 2
definition of an instruction instance:

* ALU ops: inputs are the source register values, outputs the result.
* Loads: inputs are the *address* operands; the loaded value is an
  output (so a load reading a different value from the same address is
  **not** repeated).
* Stores: inputs are the stored value and the address operands; no
  outputs.
* Branches: inputs are the tested register values, output is the taken
  flag.
* ``mult``/``div``: outputs are (hi, lo); ``mfhi``/``mflo`` take the
  hi/lo value as input.

Immediates and shift amounts are part of the *static* instruction and
therefore excluded from the dynamic instance.  Except for syscalls and
``mfhi``/``mflo``, ``inputs[i]`` is the value read from register
``instr.sources[i]``; the analyzers rely on that pairing.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.asm.program import FunctionInfo
from repro.isa.instructions import Instruction


class StepRecord:
    """One retired dynamic instruction."""

    __slots__ = (
        "index",
        "pc",
        "instr",
        "inputs",
        "outputs",
        "dest_reg",
        "dest_value",
        "mem_addr",
        "store_value",
    )

    def __init__(
        self,
        index: int,
        pc: int,
        instr: Instruction,
        inputs: Tuple[int, ...],
        outputs: Tuple[int, ...],
        dest_reg: Optional[int],
        dest_value: int,
        mem_addr: Optional[int],
        store_value: Optional[int],
    ) -> None:
        self.index = index
        self.pc = pc
        self.instr = instr
        self.inputs = inputs
        self.outputs = outputs
        self.dest_reg = dest_reg
        self.dest_value = dest_value
        self.mem_addr = mem_addr
        self.store_value = store_value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Step #{self.index} {self.pc:#010x} {self.instr.disassemble()} "
            f"in={self.inputs} out={self.outputs}>"
        )


class CallEvent:
    """A function call (``jal``/``jalr``), or the synthetic entry call."""

    __slots__ = ("pc", "target", "return_addr", "function", "args", "depth", "sp", "warmup")

    def __init__(
        self,
        pc: int,
        target: int,
        return_addr: int,
        function: Optional[FunctionInfo],
        args: Tuple[int, ...],
        depth: int,
        sp: int,
        warmup: bool,
    ) -> None:
        self.pc = pc
        self.target = target
        self.return_addr = return_addr
        self.function = function
        self.args = args
        self.depth = depth
        self.sp = sp
        self.warmup = warmup

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        name = self.function.name if self.function else hex(self.target)
        return f"<Call {name} args={self.args} depth={self.depth}>"


class ReturnEvent:
    """A function return (``jr $ra``)."""

    __slots__ = ("pc", "target", "function", "return_value", "depth", "warmup")

    def __init__(
        self,
        pc: int,
        target: int,
        function: Optional[FunctionInfo],
        return_value: int,
        depth: int,
        warmup: bool,
    ) -> None:
        self.pc = pc
        self.target = target
        self.function = function
        self.return_value = return_value
        self.depth = depth
        self.warmup = warmup

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        name = self.function.name if self.function else "?"
        return f"<Return from {name} value={self.return_value}>"


class SyscallEvent:
    """A syscall, after its effect has been applied."""

    __slots__ = ("pc", "service", "arg", "result", "is_input", "is_output", "warmup")

    def __init__(
        self,
        pc: int,
        service: int,
        arg: int,
        result: Optional[int],
        is_input: bool,
        is_output: bool,
        warmup: bool,
    ) -> None:
        self.pc = pc
        self.service = service
        self.arg = arg
        self.result = result
        self.is_input = is_input
        self.is_output = is_output
        self.warmup = warmup

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Syscall {self.service} arg={self.arg} result={self.result}>"
