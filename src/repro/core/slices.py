"""Dynamic dataflow slice extraction.

The paper's source analyses *tag* dynamic slices (Section 2: "we base
our decisions and analysis solely on data dependence relationships").
This module materializes those slices: :class:`SliceRecorder` logs every
dynamic instruction's data dependences (register def-use plus memory
store-to-load edges), and :func:`backward_slice` recovers the exact set
of dynamic instructions a value was computed from — the paper's
"dynamic program slice" as an inspectable object.

Control dependences are deliberately excluded, matching the paper
(footnote 1: "the notion of a control dependence is somewhat meaningless
in a dynamic instruction stream").
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.isa.instructions import Format, Kind
from repro.isa.registers import A0, NUM_REGISTERS, V0, ZERO
from repro.sim.events import StepRecord, SyscallEvent
from repro.sim.observer import Analyzer


@dataclass(frozen=True)
class SliceNode:
    """One dynamic instruction in a slice."""

    index: int
    pc: int
    disassembly: str


@dataclass
class SliceReport:
    """A backward dynamic slice."""

    #: The step the slice was taken from.
    root_index: int
    #: All step indices in the slice (root included), ascending.
    indices: List[int]
    #: Distinct static instructions involved.
    static_pcs: Set[int]

    @property
    def dynamic_size(self) -> int:
        return len(self.indices)

    @property
    def static_size(self) -> int:
        return len(self.static_pcs)


class SliceRecorder(Analyzer):
    """Records per-step data dependences for later slice extraction.

    Dependences per dynamic instruction:

    * register inputs -> the step that last wrote each source register;
    * loads -> additionally the step that last stored to the word;
    * hi/lo readers -> the last mult/div;
    * syscall results are roots (external input has no producer).

    Memory cost is O(steps); intended for runs up to a few hundred
    thousand instructions (the scale of this reproduction).
    """

    def __init__(self) -> None:
        #: step index -> (pc, dep indices)
        self._log: Dict[int, Tuple[int, Tuple[int, ...]]] = {}
        self._disasm: Dict[int, str] = {}
        self._reg_writer = [0] * NUM_REGISTERS  # 0 = no producer
        self._hilo_writer = 0
        self._mem_writer: Dict[int, int] = {}
        self.last_index = 0
        #: (service, step index) for every syscall, in order — handy
        #: anchors for slicing ("what fed this output?").
        self.syscall_steps: List[Tuple[int, int]] = []

    # -- recording --------------------------------------------------------

    def on_step(self, record: StepRecord) -> None:
        instr = record.instr
        kind = instr.op.kind
        deps: List[int] = []

        if kind == Kind.MFHILO:
            if self._hilo_writer:
                deps.append(self._hilo_writer)
        elif kind == Kind.SYSCALL:
            # Syscalls read the service number ($v0) and argument ($a0).
            for reg in (V0, A0):
                writer = self._reg_writer[reg]
                if writer:
                    deps.append(writer)
        else:
            for reg in instr.sources:
                writer = self._reg_writer[reg]
                if writer:
                    deps.append(writer)
        if kind == Kind.LOAD:
            writer = self._mem_writer.get(record.mem_addr & ~3)  # type: ignore[operator]
            if writer:
                deps.append(writer)

        index = record.index
        self._log[index] = (record.pc, tuple(deps))
        if record.pc not in self._disasm:
            self._disasm[record.pc] = instr.disassemble()
        self.last_index = index

        # Update writer tables.
        if kind == Kind.STORE:
            self._mem_writer[record.mem_addr & ~3] = index  # type: ignore[operator]
        elif kind == Kind.MULDIV:
            self._hilo_writer = index
        dest = instr.dest
        if dest and dest != ZERO:
            self._reg_writer[dest] = index

    def on_syscall(self, event: SyscallEvent) -> None:
        self.syscall_steps.append((event.service, self.last_index))
        if event.result is not None:
            # The syscall step itself was already logged; its $v0 value
            # becomes a fresh root for later consumers (handled because
            # the syscall step is the writer).
            self._reg_writer[V0] = self.last_index

    # -- extraction ----------------------------------------------------------

    def backward_slice(self, index: int) -> SliceReport:
        """The dynamic backward slice rooted at step ``index``."""
        if index not in self._log:
            raise KeyError(f"step {index} was not recorded")
        seen: Set[int] = {index}
        queue = deque([index])
        while queue:
            current = queue.popleft()
            _, deps = self._log[current]
            for dep in deps:
                if dep not in seen:
                    seen.add(dep)
                    queue.append(dep)
        indices = sorted(seen)
        return SliceReport(
            root_index=index,
            indices=indices,
            static_pcs={self._log[i][0] for i in indices},
        )

    def slice_of_register(self, reg: int) -> Optional[SliceReport]:
        """Slice producing a register's current (final) value."""
        writer = self._reg_writer[reg]
        if not writer:
            return None
        return self.backward_slice(writer)

    def nodes(self, report: SliceReport) -> List[SliceNode]:
        """Human-readable nodes for a slice."""
        return [
            SliceNode(i, self._log[i][0], self._disasm[self._log[i][0]])
            for i in report.indices
        ]

    def dependencies_of(self, index: int) -> Tuple[int, ...]:
        return self._log[index][1]

    @property
    def recorded_steps(self) -> int:
        return len(self._log)
