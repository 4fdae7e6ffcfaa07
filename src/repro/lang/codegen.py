"""MiniC code generator: annotated AST -> assembly text.

Conventions produced (o32-flavoured, mirroring what the paper's analyses
key off):

* arguments in ``$a0..$a3``, result in ``$v0``;
* non-leaf functions copy parameters into callee-saved ``$s`` registers,
  saved/restored by a classic prologue/epilogue; leaf functions keep
  parameters in ``$a`` registers;
* locals: scalar locals are homed in ``$s`` registers unless their
  address is taken; arrays and address-taken scalars live in the stack
  frame;
* expression evaluation uses a value stack mapped to ``$t0..$t7`` with
  overflow (and across-call liveness) spilled to reserved frame slots;
  ``$t8``/``$t9`` are scratch, ``$at`` belongs to the assembler;
* global scalars are accessed gp-relative (``lw $r, name($gp)``) while
  the first 64 KiB of data is in the ``$gp`` window; global arrays are
  addressed via ``la`` (which the assembler turns into ``addiu $r,$gp``
  or ``lui``/``ori`` — the paper's "global address calculation" class);
* builtins compile to inline syscall sequences.

The generator emits one ``.ent name, argc`` / ``.end name`` pair per
function so the assembler records function metadata for the analyses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.isa.convention import DATA_BASE, GP_VALUE
from repro.isa.bits import fits_s16, to_s32 as _to_s32
from repro.lang import astnodes as ast
from repro.lang.errors import CodegenError
from repro.lang.sema import (
    Builtin,
    FunctionSymbol,
    GlobalSymbol,
    LocalSymbol,
    SemanticAnalyzer,
)
from repro.lang.types import ArrayType, CHAR, PointerType, Type, VOID

#: Value-stack geometry: positions 0..7 live in $t0..$t7, positions up to
#: SPILL_SLOTS-1 live in reserved frame slots at sp+4*pos.
REG_POSITIONS = 8
SPILL_SLOTS = 32

_T_REGS = ("$t0", "$t1", "$t2", "$t3", "$t4", "$t5", "$t6", "$t7")
_S_REGS = ("$s0", "$s1", "$s2", "$s3", "$s4", "$s5", "$s6", "$s7")
_A_REGS = ("$a0", "$a1", "$a2", "$a3")

#: Half-open byte window of the data segment reachable from $gp with a
#: signed 16-bit offset.
_GP_WINDOW = GP_VALUE + 0x7FF0 - DATA_BASE

#: Largest frame the epilogue's ``addiu $sp, $sp, size`` can pop.
_MAX_FRAME = 0x7FFF


@dataclass
class _Entry:
    """One value-stack entry."""

    pos: int
    in_reg: bool


@dataclass
class _FrameVar:
    """A stack-homed local."""

    offset: int
    ctype: Type


class _LoopLabels:
    """Branch targets for break/continue; switch frames have no
    continue target (None) and are skipped by `continue`."""

    def __init__(self, break_label: str, continue_label: Optional[str]) -> None:
        self.break_label = break_label
        self.continue_label = continue_label


def _align(value: int, alignment: int) -> int:
    return (value + alignment - 1) & ~(alignment - 1)


class CodeGenerator:
    """Generates an assembly translation unit from an analyzed AST."""

    def __init__(self, sema: SemanticAnalyzer) -> None:
        self.sema = sema
        self.unit = sema.unit
        self._label_counter = 0
        self._string_labels: Dict[str, str] = {}
        #: Exact byte offset of each global in the .data segment, mirroring
        #: the assembler's sequential layout, so gp-reachability is decided
        #: correctly at codegen time.
        self._global_offsets: Dict[str, int] = {}
        self._data_lines: List[str] = []
        self._text_lines: List[str] = []

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def generate(self) -> str:
        self._emit_data_segment()
        self._text_lines.append(".text")
        self._text_lines.append(".globl main")
        for func in self.unit.functions:
            _FunctionEmitter(self, func).emit()
        body = "\n".join(self._data_lines + self._text_lines)
        return body + "\n"

    # ------------------------------------------------------------------
    # Labels and strings
    # ------------------------------------------------------------------

    def new_label(self, stem: str) -> str:
        self._label_counter += 1
        return f"L_{stem}_{self._label_counter}"

    def string_label(self, text: str) -> str:
        label = self._string_labels.get(text)
        if label is None:
            label = f"S_str_{len(self._string_labels)}"
            self._string_labels[text] = label
        return label

    # ------------------------------------------------------------------
    # Data segment
    # ------------------------------------------------------------------

    def _emit_data_segment(self) -> None:
        lines = self._data_lines
        lines.append(".data")
        offset = 0

        def note(name: str, size: int, alignment: int) -> int:
            nonlocal offset
            offset = _align(offset, alignment)
            self._global_offsets[name] = offset
            start = offset
            offset += size
            return start

        # Scalars first so they land in the $gp window (the -G small-data
        # convention), then arrays/strings in declaration order.
        scalars = [g for g in self.sema.globals.values() if g.ctype.is_scalar]
        aggregates = [g for g in self.sema.globals.values() if not g.ctype.is_scalar]

        for symbol in scalars:
            note(symbol.name, 4, 4)
            init = symbol.init
            if init is None:
                lines.append(f"{symbol.label}: .space 4")
            elif isinstance(init, str):
                label = self.string_label(init)
                lines.append(f"{symbol.label}: .word {label}")
            else:
                lines.append(f"{symbol.label}: .word {int(init)}")

        for symbol in aggregates:
            assert isinstance(symbol.ctype, ArrayType)
            element = symbol.ctype.element
            length = symbol.ctype.length
            alignment = 4 if element.size == 4 else 1
            note(symbol.name, symbol.ctype.size, alignment)
            init = symbol.init
            if init is None:
                lines.append(f"{symbol.label}: .space {symbol.ctype.size}")
            elif isinstance(init, str):
                payload = init + "\0" * max(0, length - len(init))
                escaped = (
                    payload.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("\t", "\\t").replace("\0", "\\0")
                )
                lines.append(f'{symbol.label}: .ascii "{escaped}"')
            else:
                values = list(init) + [0] * (length - len(init))
                directive = ".word" if element.size == 4 else ".byte"
                chunk = 16
                lines.append(f"{symbol.label}:")
                for start in range(0, len(values), chunk):
                    group = ", ".join(str(v) for v in values[start : start + chunk])
                    lines.append(f"  {directive} {group}")

        # String literals referenced from code.  Labels are assigned on
        # demand during codegen, so collect them up front.
        self._collect_strings()
        for text, label in self._string_labels.items():
            escaped = (
                text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("\t", "\\t")
            )
            offset = _align(offset, 1)
            self._global_offsets[label] = offset
            offset += len(text) + 1
            lines.append(f'{label}: .asciiz "{escaped}"')

    def _collect_strings(self) -> None:
        def walk_expr(expr: Optional[ast.Expr]) -> None:
            if expr is None:
                return
            if isinstance(expr, ast.StringLiteral):
                self.string_label(expr.value)
            elif isinstance(expr, ast.Unary):
                walk_expr(expr.operand)
            elif isinstance(expr, ast.Binary):
                walk_expr(expr.left)
                walk_expr(expr.right)
            elif isinstance(expr, ast.Assign):
                walk_expr(expr.target)
                walk_expr(expr.value)
            elif isinstance(expr, ast.Call):
                for arg in expr.args:
                    walk_expr(arg)
            elif isinstance(expr, ast.Index):
                walk_expr(expr.base)
                walk_expr(expr.index)
            elif isinstance(expr, (ast.Deref, ast.AddrOf)):
                walk_expr(expr.operand)
            elif isinstance(expr, ast.IncDec):
                walk_expr(expr.target)
            elif isinstance(expr, ast.Conditional):
                walk_expr(expr.cond)
                walk_expr(expr.then_value)
                walk_expr(expr.else_value)

        def walk_stmt(stmt: ast.Stmt) -> None:
            if isinstance(stmt, ast.Block):
                for inner in stmt.statements:
                    walk_stmt(inner)
            elif isinstance(stmt, ast.ExprStmt):
                walk_expr(stmt.expr)
            elif isinstance(stmt, ast.If):
                walk_expr(stmt.cond)
                walk_stmt(stmt.then_body)
                if stmt.else_body is not None:
                    walk_stmt(stmt.else_body)
            elif isinstance(stmt, ast.While):
                walk_expr(stmt.cond)
                walk_stmt(stmt.body)
            elif isinstance(stmt, ast.DoWhile):
                walk_stmt(stmt.body)
                walk_expr(stmt.cond)
            elif isinstance(stmt, ast.Switch):
                walk_expr(stmt.selector)
                for case in stmt.cases:
                    for inner in case.body:
                        walk_stmt(inner)
            elif isinstance(stmt, ast.For):
                walk_expr(stmt.init)
                walk_expr(stmt.cond)
                walk_expr(stmt.step)
                walk_stmt(stmt.body)
            elif isinstance(stmt, ast.Return):
                walk_expr(stmt.value)
            elif isinstance(stmt, ast.VarDecl):
                walk_expr(stmt.init)

        for func in self.unit.functions:
            walk_stmt(func.body)

    # ------------------------------------------------------------------
    # Global addressing
    # ------------------------------------------------------------------

    def gp_reachable(self, name: str) -> bool:
        offset = self._global_offsets.get(name)
        return offset is not None and offset < _GP_WINDOW and fits_s16(
            DATA_BASE + offset - GP_VALUE
        )


class _FunctionEmitter:
    """Emits the body of a single function."""

    def __init__(self, cg: CodeGenerator, func: ast.FunctionDef) -> None:
        self.cg = cg
        self.func = func
        self.info = cg.sema.function_info[func.name]
        #: Body instructions buffer; prologue/epilogue are emitted around
        #: it once the body reveals whether a frame is needed at all.
        self.lines: List[str] = []
        self.stack: List[_Entry] = []
        self.loop_stack: List[_LoopLabels] = []
        self.epilogue_label = cg.new_label(f"ret_{func.name}")
        self.frame_vars: Dict[int, _FrameVar] = {}
        self._spill_used = False
        self._plan_frame()

    # -- emission helpers -------------------------------------------------

    def emit(self) -> None:
        self._gen_block(self.func.body)
        body = self.lines
        # A leaf with no saved registers, no stack locals, and no value
        # spills needs no frame at all (gcc -O does the same).
        if (
            self.leaf
            and not self.used_sregs
            and not self.frame_vars
            and not self._spill_used
        ):
            self.frame_size = 0
        self.lines = self.cg._text_lines
        self._emit_prologue()
        self.lines.extend(body)
        self._emit_epilogue()

    def line(self, text: str) -> None:
        self.lines.append("  " + text)

    def label(self, name: str) -> None:
        self.lines.append(f"{name}:")

    # -- frame planning -----------------------------------------------------

    def _plan_frame(self) -> None:
        """Assign every local a home and compute the frame size."""
        leaf = not self.info.makes_calls
        sreg_next = 0
        stack_offset = SPILL_SLOTS * 4
        self.used_sregs: List[int] = []

        for symbol in self.info.locals:
            if symbol.ctype.is_scalar and not symbol.address_taken:
                if leaf and symbol.is_param:
                    # Leaf functions read parameters straight from $a regs.
                    symbol.sreg = None
                    symbol.frame_offset = None
                    continue
                if sreg_next < len(_S_REGS):
                    symbol.sreg = sreg_next
                    self.used_sregs.append(sreg_next)
                    sreg_next += 1
                    continue
            # Stack home.
            size = symbol.ctype.size if symbol.ctype.is_array else 4
            alignment = 4 if (not symbol.ctype.is_array or symbol.ctype.element.size == 4) else 1  # type: ignore[union-attr]
            stack_offset = _align(stack_offset, alignment)
            symbol.frame_offset = stack_offset
            self.frame_vars[stack_offset] = _FrameVar(stack_offset, symbol.ctype)
            stack_offset += size

        stack_offset = _align(stack_offset, 4)
        self.saved_base = stack_offset
        saved_bytes = 4 * len(self.used_sregs) + (0 if leaf else 4)
        self.frame_size = _align(stack_offset + saved_bytes, 8)
        if self.frame_size > _MAX_FRAME:
            raise CodegenError(
                f"stack frame of {self.func.name}() is {self.frame_size} bytes; "
                f"the limit is {_MAX_FRAME} (16-bit addiu offset)",
                self.func.line,
            )
        self.leaf = leaf

    def _sreg_save_offset(self, ordinal: int) -> int:
        return self.saved_base + 4 * ordinal

    @property
    def _ra_offset(self) -> int:
        return self.frame_size - 4

    # -- prologue/epilogue ----------------------------------------------------

    def _emit_prologue(self) -> None:
        func = self.func
        self.lines.append(f".ent {func.name}, {len(func.params)}")
        self.label(func.name)
        if self.frame_size:
            self.line(f"addiu $sp, $sp, -{self.frame_size}")
        if not self.leaf:
            self.line(f"sw $ra, {self._ra_offset}($sp)")
        for ordinal, sreg in enumerate(self.used_sregs):
            self.line(f"sw {_S_REGS[sreg]}, {self._sreg_save_offset(ordinal)}($sp)")
        # Copy parameters to their homes.
        for symbol in self.info.params:
            areg = _A_REGS[symbol.param_index]  # type: ignore[index]
            if symbol.sreg is not None:
                self.line(f"move {_S_REGS[symbol.sreg]}, {areg}")
            elif symbol.frame_offset is not None:
                self.line(f"sw {areg}, {symbol.frame_offset}($sp)")

    def _emit_epilogue(self) -> None:
        self.label(self.epilogue_label)
        for ordinal, sreg in enumerate(self.used_sregs):
            self.line(f"lw {_S_REGS[sreg]}, {self._sreg_save_offset(ordinal)}($sp)")
        if not self.leaf:
            self.line(f"lw $ra, {self._ra_offset}($sp)")
        if self.frame_size:
            self.line(f"addiu $sp, $sp, {self.frame_size}")
        self.line("jr $ra")
        self.lines.append(f".end {self.func.name}")

    # -- value stack ------------------------------------------------------------

    def _push_target(self) -> str:
        pos = len(self.stack)
        if pos >= SPILL_SLOTS:
            raise CodegenError("expression too complex", self.func.line)
        return _T_REGS[pos] if pos < REG_POSITIONS else "$t8"

    def _push_commit(self) -> None:
        pos = len(self.stack)
        if pos < REG_POSITIONS:
            self.stack.append(_Entry(pos, in_reg=True))
        else:
            self._spill_used = True
            self.line(f"sw $t8, {4 * pos}($sp)")
            self.stack.append(_Entry(pos, in_reg=False))

    def _push_from(self, reg: str) -> None:
        """Push the value currently held in ``reg``."""
        target = self._push_target()
        if target != reg:
            self.line(f"move {target}, {reg}")
        self._push_commit()

    def _pop(self, scratch: str = "$t8") -> str:
        entry = self.stack.pop()
        if entry.in_reg:
            return _T_REGS[entry.pos]
        self.line(f"lw {scratch}, {4 * entry.pos}($sp)")
        return scratch

    def _spill_all(self) -> None:
        for entry in self.stack:
            if entry.in_reg:
                self._spill_used = True
                self.line(f"sw {_T_REGS[entry.pos]}, {4 * entry.pos}($sp)")
                entry.in_reg = False

    # -- statements ----------------------------------------------------------------

    def _gen_block(self, block: ast.Block) -> None:
        for stmt in block.statements:
            self._gen_statement(stmt)

    def _gen_statement(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self._gen_block(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self._gen_expr_statement(stmt.expr)
        elif isinstance(stmt, ast.If):
            self._gen_if(stmt)
        elif isinstance(stmt, ast.While):
            self._gen_while(stmt)
        elif isinstance(stmt, ast.DoWhile):
            self._gen_do_while(stmt)
        elif isinstance(stmt, ast.Switch):
            self._gen_switch(stmt)
        elif isinstance(stmt, ast.For):
            self._gen_for(stmt)
        elif isinstance(stmt, ast.Return):
            self._gen_return(stmt)
        elif isinstance(stmt, ast.Break):
            self.line(f"b {self.loop_stack[-1].break_label}")
        elif isinstance(stmt, ast.Continue):
            # Skip switch frames (their continue target is None).
            target = next(
                frame.continue_label
                for frame in reversed(self.loop_stack)
                if frame.continue_label is not None
            )
            self.line(f"b {target}")
        elif isinstance(stmt, ast.VarDecl):
            self._gen_var_decl(stmt)
        else:  # pragma: no cover
            raise CodegenError(f"unknown statement {type(stmt).__name__}", stmt.line)

    def _gen_expr_statement(self, expr: ast.Expr) -> None:
        produced = self._gen_expr(expr)
        if produced:
            self.stack.pop()  # discard the value (no code needed)

    def _gen_if(self, stmt: ast.If) -> None:
        else_label = self.cg.new_label("else")
        end_label = self.cg.new_label("endif")
        self._gen_condition(stmt.cond, false_label=else_label)
        self._gen_statement(stmt.then_body)
        if stmt.else_body is not None:
            self.line(f"b {end_label}")
            self.label(else_label)
            self._gen_statement(stmt.else_body)
            self.label(end_label)
        else:
            self.label(else_label)

    def _gen_while(self, stmt: ast.While) -> None:
        head = self.cg.new_label("while")
        end = self.cg.new_label("endwhile")
        self.label(head)
        self._gen_condition(stmt.cond, false_label=end)
        self.loop_stack.append(_LoopLabels(end, head))
        self._gen_statement(stmt.body)
        self.loop_stack.pop()
        self.line(f"b {head}")
        self.label(end)

    def _gen_do_while(self, stmt: ast.DoWhile) -> None:
        head = self.cg.new_label("dowhile")
        cond_label = self.cg.new_label("docond")
        end = self.cg.new_label("enddo")
        self.label(head)
        self.loop_stack.append(_LoopLabels(end, cond_label))
        self._gen_statement(stmt.body)
        self.loop_stack.pop()
        self.label(cond_label)
        self._gen_expr(stmt.cond)
        reg = self._pop()
        self.line(f"bnez {reg}, {head}")
        self.label(end)

    def _gen_switch(self, stmt: ast.Switch) -> None:
        """Compare-and-branch lowering with C fallthrough semantics."""
        end_label = self.cg.new_label("endswitch")
        arm_labels = [self.cg.new_label("case") for _ in stmt.cases]
        self._gen_expr(stmt.selector)
        selector = self._pop("$t8")
        default_label = end_label
        for case, label in zip(stmt.cases, arm_labels):
            for value in case.values:
                self.line(f"li $t9, {value}")
                self.line(f"beq {selector}, $t9, {label}")
            if case.is_default:
                default_label = label
        self.line(f"b {default_label}")
        self.loop_stack.append(_LoopLabels(end_label, None))
        for case, label in zip(stmt.cases, arm_labels):
            self.label(label)
            for inner in case.body:
                self._gen_statement(inner)
            # No branch: C fallthrough into the next arm.
        self.loop_stack.pop()
        self.label(end_label)

    def _gen_for(self, stmt: ast.For) -> None:
        head = self.cg.new_label("for")
        step_label = self.cg.new_label("forstep")
        end = self.cg.new_label("endfor")
        if stmt.init is not None:
            self._gen_expr_statement(stmt.init)
        self.label(head)
        if stmt.cond is not None:
            self._gen_condition(stmt.cond, false_label=end)
        self.loop_stack.append(_LoopLabels(end, step_label))
        self._gen_statement(stmt.body)
        self.loop_stack.pop()
        self.label(step_label)
        if stmt.step is not None:
            self._gen_expr_statement(stmt.step)
        self.line(f"b {head}")
        self.label(end)

    def _gen_condition(self, cond: ast.Expr, false_label: str) -> None:
        """Evaluate ``cond`` and branch to ``false_label`` when it is 0."""
        self._gen_expr(cond)
        reg = self._pop()
        self.line(f"beqz {reg}, {false_label}")

    def _gen_return(self, stmt: ast.Return) -> None:
        if stmt.value is not None:
            self._gen_expr(stmt.value)
            reg = self._pop()
            self.line(f"move $v0, {reg}")
        self.line(f"b {self.epilogue_label}")

    def _gen_var_decl(self, stmt: ast.VarDecl) -> None:
        if stmt.init is None:
            return
        symbol = stmt.symbol
        assert isinstance(symbol, LocalSymbol)
        self._gen_expr(stmt.init)
        reg = self._pop()
        self._store_to_local(symbol, reg)

    def _store_to_local(self, symbol: LocalSymbol, reg: str) -> None:
        if symbol.sreg is not None:
            self.line(f"move {_S_REGS[symbol.sreg]}, {reg}")
        elif symbol.frame_offset is not None:
            op = "sb" if symbol.ctype == CHAR else "sw"
            self.line(f"{op} {reg}, {symbol.frame_offset}($sp)")
        else:
            # Leaf-function parameter homed in its $a register.
            assert symbol.is_param and self.leaf
            self.line(f"move {_A_REGS[symbol.param_index]}, {reg}")  # type: ignore[index]

    # -- expressions ------------------------------------------------------------------

    def _gen_expr(self, expr: ast.Expr) -> bool:
        """Generate code for ``expr``.

        Returns True if a value was pushed onto the value stack (void
        calls push nothing).
        """
        if isinstance(expr, ast.IntLiteral):
            target = self._push_target()
            self.line(f"li {target}, {expr.value}")
            self._push_commit()
            return True
        if isinstance(expr, ast.StringLiteral):
            label = self.cg.string_label(expr.value)
            target = self._push_target()
            self.line(f"la {target}, {label}")
            self._push_commit()
            return True
        if isinstance(expr, ast.Ident):
            self._gen_ident(expr)
            return True
        if isinstance(expr, ast.Unary):
            return self._gen_unary(expr)
        if isinstance(expr, ast.Binary):
            return self._gen_binary(expr)
        if isinstance(expr, ast.Assign):
            return self._gen_assign(expr)
        if isinstance(expr, ast.Call):
            return self._gen_call(expr)
        if isinstance(expr, ast.Index):
            self._gen_address_of_index(expr)
            self._load_indirect(expr.ctype)
            return True
        if isinstance(expr, ast.Deref):
            self._gen_expr(expr.operand)
            self._load_indirect(expr.ctype)
            return True
        if isinstance(expr, ast.AddrOf):
            self._gen_address(expr.operand)
            return True
        if isinstance(expr, ast.IncDec):
            return self._gen_incdec(expr)
        if isinstance(expr, ast.Conditional):
            return self._gen_conditional(expr)
        raise CodegenError(f"unknown expression {type(expr).__name__}", expr.line)

    def _gen_ident(self, expr: ast.Ident) -> None:
        symbol = expr.symbol
        target = self._push_target()
        if isinstance(symbol, LocalSymbol):
            if symbol.ctype.is_array:
                self.line(f"addiu {target}, $sp, {symbol.frame_offset}")
            elif symbol.sreg is not None:
                self.line(f"move {target}, {_S_REGS[symbol.sreg]}")
            elif symbol.frame_offset is not None:
                op = "lb" if symbol.ctype == CHAR else "lw"
                self.line(f"{op} {target}, {symbol.frame_offset}($sp)")
            else:
                self.line(f"move {target}, {_A_REGS[symbol.param_index]}")  # type: ignore[index]
        else:
            assert isinstance(symbol, GlobalSymbol)
            if symbol.ctype.is_array:
                self.line(f"la {target}, {symbol.label}")
            elif self.cg.gp_reachable(symbol.name):
                op = "lb" if symbol.ctype == CHAR else "lw"
                self.line(f"{op} {target}, {symbol.label}($gp)")
            else:
                self.line(f"la $t9, {symbol.label}")
                op = "lb" if symbol.ctype == CHAR else "lw"
                self.line(f"{op} {target}, 0($t9)")
        self._push_commit()

    def _gen_unary(self, expr: ast.Unary) -> bool:
        # Fold constant operands so negative/inverted literals become a
        # single li (which the assembler may still split into lui/ori).
        if isinstance(expr.operand, ast.IntLiteral) and expr.op in ("-", "~"):
            value = expr.operand.value
            folded = -value if expr.op == "-" else ~value
            target = self._push_target()
            self.line(f"li {target}, {_to_s32(folded)}")
            self._push_commit()
            return True
        self._gen_expr(expr.operand)
        source = self._pop()
        target = self._push_target()
        if expr.op == "-":
            self.line(f"subu {target}, $zero, {source}")
        elif expr.op == "~":
            self.line(f"nor {target}, {source}, $zero")
        else:  # !
            self.line(f"sltiu {target}, {source}, 1")
        self._push_commit()
        return True

    _SIMPLE_BINOPS = {
        "+": "addu",
        "-": "subu",
        "&": "and",
        "|": "or",
        "^": "xor",
        "<<": "sllv",
        ">>": "srav",
        "==": "seq",
        "!=": "sne",
        "<": "slt",
        "<=": "sle",
        ">": "sgt",
        ">=": "sge",
        "*": "mul",
        "/": "div",
        "%": "rem",
    }

    def _gen_binary(self, expr: ast.Binary) -> bool:
        if expr.op in ("&&", "||"):
            return self._gen_logical(expr)
        left_type = expr.left.ctype.decayed()  # type: ignore[union-attr]
        right_type = expr.right.ctype.decayed()  # type: ignore[union-attr]
        self._gen_expr(expr.left)
        self._gen_expr(expr.right)
        right = self._pop("$t9")
        left = self._pop("$t8")

        # Pointer arithmetic scaling.
        if expr.op in ("+", "-") and left_type.is_pointer and right_type.is_arithmetic:
            right = self._scale_index(right, left_type.pointee.size, "$t9")
        elif expr.op == "+" and right_type.is_pointer and left_type.is_arithmetic:
            left = self._scale_index(left, right_type.pointee.size, "$t8")

        target = self._push_target()
        mnemonic = self._SIMPLE_BINOPS[expr.op]
        self.line(f"{mnemonic} {target}, {left}, {right}")

        # Pointer difference scales back down to element counts.
        if expr.op == "-" and left_type.is_pointer and right_type.is_pointer:
            size = left_type.pointee.size
            if size == 4:
                self.line(f"sra {target}, {target}, 2")
        self._push_commit()
        return True

    def _scale_index(self, reg: str, size: int, scratch: str) -> str:
        if size == 1:
            return reg
        if size == 4:
            self.line(f"sll {scratch}, {reg}, 2")
            return scratch
        self.line(f"li $at, {size}")
        self.line(f"mul {scratch}, {reg}, $at")
        return scratch

    def _gen_logical(self, expr: ast.Binary) -> bool:
        false_label = self.cg.new_label("lfalse")
        true_label = self.cg.new_label("ltrue")
        end_label = self.cg.new_label("lend")
        if expr.op == "&&":
            self._gen_expr(expr.left)
            self.line(f"beqz {self._pop()}, {false_label}")
            self._gen_expr(expr.right)
            self.line(f"beqz {self._pop()}, {false_label}")
            target = self._push_target()
            self.line(f"li {target}, 1")
            self.line(f"b {end_label}")
            self.label(false_label)
            self.line(f"li {target}, 0")
            self.label(end_label)
        else:
            self._gen_expr(expr.left)
            self.line(f"bnez {self._pop()}, {true_label}")
            self._gen_expr(expr.right)
            self.line(f"bnez {self._pop()}, {true_label}")
            target = self._push_target()
            self.line(f"li {target}, 0")
            self.line(f"b {end_label}")
            self.label(true_label)
            self.line(f"li {target}, 1")
            self.label(end_label)
        self._push_commit()
        return True

    # -- assignment -------------------------------------------------------

    def _gen_assign(self, expr: ast.Assign) -> bool:
        target = expr.target
        if isinstance(target, ast.Ident) and isinstance(target.symbol, LocalSymbol):
            return self._gen_assign_local(expr, target.symbol)
        if isinstance(target, ast.Ident) and isinstance(target.symbol, GlobalSymbol):
            return self._gen_assign_global(expr, target.symbol)
        # Indirect target: *p or a[i].
        if isinstance(target, ast.Deref):
            self._gen_expr(target.operand)
        elif isinstance(target, ast.Index):
            self._gen_address_of_index(target)
        else:  # pragma: no cover - sema guarantees lvalue shapes
            raise CodegenError("bad assignment target", expr.line)
        elem_type = target.ctype
        if expr.op == "=":
            self._gen_expr(expr.value)
        else:
            # Compound: duplicate the address, then load the current value
            # through the copy, leaving [addr, current] on the stack.
            addr = self._pop("$t8")
            self._push_from(addr)
            self._push_from(addr)
            self._load_indirect(elem_type)
            self._gen_expr(expr.value)
            self._apply_compound(expr, elem_type)
        value = self._pop("$t9")
        addr = self._pop("$t8")
        store = "sb" if elem_type == CHAR else "sw"
        self.line(f"{store} {value}, 0({addr})")
        self._push_from(value)
        return True

    def _gen_assign_local(self, expr: ast.Assign, symbol: LocalSymbol) -> bool:
        if expr.op == "=":
            self._gen_expr(expr.value)
        else:
            self._gen_ident_value(symbol)
            self._gen_expr(expr.value)
            self._apply_compound(expr, symbol.ctype)
        value = self._pop("$t9")
        self._store_to_local(symbol, value)
        self._push_from(value)
        return True

    def _gen_assign_global(self, expr: ast.Assign, symbol: GlobalSymbol) -> bool:
        if expr.op == "=":
            self._gen_expr(expr.value)
        else:
            self._gen_global_value(symbol)
            self._gen_expr(expr.value)
            self._apply_compound(expr, symbol.ctype)
        value = self._pop("$t9")
        store = "sb" if symbol.ctype == CHAR else "sw"
        if self.cg.gp_reachable(symbol.name):
            self.line(f"{store} {value}, {symbol.label}($gp)")
        else:
            self.line(f"la $t8, {symbol.label}")
            self.line(f"{store} {value}, 0($t8)")
        self._push_from(value)
        return True

    def _gen_ident_value(self, symbol: LocalSymbol) -> None:
        """Push the current value of a local (for compound assignment)."""
        target = self._push_target()
        if symbol.sreg is not None:
            self.line(f"move {target}, {_S_REGS[symbol.sreg]}")
        elif symbol.frame_offset is not None:
            op = "lb" if symbol.ctype == CHAR else "lw"
            self.line(f"{op} {target}, {symbol.frame_offset}($sp)")
        else:
            self.line(f"move {target}, {_A_REGS[symbol.param_index]}")  # type: ignore[index]
        self._push_commit()

    def _gen_global_value(self, symbol: GlobalSymbol) -> None:
        target = self._push_target()
        op = "lb" if symbol.ctype == CHAR else "lw"
        if self.cg.gp_reachable(symbol.name):
            self.line(f"{op} {target}, {symbol.label}($gp)")
        else:
            self.line(f"la $t9, {symbol.label}")
            self.line(f"{op} {target}, 0($t9)")
        self._push_commit()

    def _apply_compound(self, expr: ast.Assign, target_type: Type) -> None:
        """Combine the two top-of-stack values with the compound operator."""
        base_op = expr.op[:-1]
        right = self._pop("$t9")
        left = self._pop("$t8")
        if base_op in ("+", "-") and target_type.is_pointer:
            right = self._scale_index(right, target_type.pointee.size, "$t9")  # type: ignore[union-attr]
        target = self._push_target()
        self.line(f"{self._SIMPLE_BINOPS[base_op]} {target}, {left}, {right}")
        self._push_commit()

    def _incdec_delta(self, expr: ast.IncDec) -> int:
        target_type = expr.target.ctype  # type: ignore[union-attr]
        step = 1
        if target_type is not None and target_type.is_pointer:
            step = target_type.pointee.size  # type: ignore[union-attr]
        return step if expr.op == "++" else -step

    def _gen_incdec(self, expr: ast.IncDec) -> bool:
        """++/--: load, adjust, store; push old (postfix) or new (prefix)."""
        target = expr.target
        delta = self._incdec_delta(expr)
        if isinstance(target, ast.Ident) and isinstance(target.symbol, LocalSymbol):
            self._gen_ident_value(target.symbol)
            old_reg = self._pop("$t8")
            self.line(f"addiu $t9, {old_reg}, {delta}")
            self._store_to_local(target.symbol, "$t9")
            self._push_from("$t9" if expr.is_prefix else old_reg)
            return True
        if isinstance(target, ast.Ident) and isinstance(target.symbol, GlobalSymbol):
            symbol = target.symbol
            self._gen_global_value(symbol)
            old_reg = self._pop("$t8")
            self.line(f"addiu $t9, {old_reg}, {delta}")
            store = "sb" if symbol.ctype == CHAR else "sw"
            if self.cg.gp_reachable(symbol.name):
                self.line(f"{store} $t9, {symbol.label}($gp)")
            else:
                # Avoid clobbering old/new: recompute the address in $at
                # via la, which only uses $at-safe sequences.
                self.line(f"la $at, {symbol.label}")
                self.line(f"{store} $t9, 0($at)")
            self._push_from("$t9" if expr.is_prefix else old_reg)
            return True
        # Indirect target: *p or a[i].
        if isinstance(target, ast.Deref):
            self._gen_expr(target.operand)
        elif isinstance(target, ast.Index):
            self._gen_address_of_index(target)
        else:  # pragma: no cover - sema guarantees lvalue shapes
            raise CodegenError("bad ++/-- target", expr.line)
        elem_type = target.ctype
        addr = self._pop("$t8")
        self._push_from(addr)          # keep the address live on the stack
        self._push_from(addr)
        self._load_indirect(elem_type)  # [addr, old]
        old_reg = self._pop("$t9")
        addr_reg = self._pop("$t8")
        self.line(f"addiu $t9, {old_reg}, {delta}")
        store = "sb" if elem_type == CHAR else "sw"
        self.line(f"{store} $t9, 0({addr_reg})")
        if expr.is_prefix:
            self._push_from("$t9")
        else:
            self.line(f"addiu $t9, $t9, {-delta}")  # recover the old value
            self._push_from("$t9")
        return True

    def _gen_conditional(self, expr: ast.Conditional) -> bool:
        else_label = self.cg.new_label("celse")
        end_label = self.cg.new_label("cend")
        self._gen_expr(expr.cond)
        self.line(f"beqz {self._pop()}, {else_label}")
        target = self._push_target()
        self._gen_expr(expr.then_value)
        value = self._pop("$t9")
        if value != target:
            self.line(f"move {target}, {value}")
        self.line(f"b {end_label}")
        self.label(else_label)
        self._gen_expr(expr.else_value)
        value = self._pop("$t9")
        if value != target:
            self.line(f"move {target}, {value}")
        self.label(end_label)
        self._push_commit()
        return True

    # -- addresses and loads -----------------------------------------------

    def _gen_address(self, expr: ast.Expr) -> None:
        """Push the address of an lvalue expression."""
        if isinstance(expr, ast.Ident):
            symbol = expr.symbol
            target = self._push_target()
            if isinstance(symbol, LocalSymbol):
                assert symbol.frame_offset is not None, "address of register local"
                self.line(f"addiu {target}, $sp, {symbol.frame_offset}")
            else:
                assert isinstance(symbol, GlobalSymbol)
                self.line(f"la {target}, {symbol.label}")
            self._push_commit()
            return
        if isinstance(expr, ast.Index):
            self._gen_address_of_index(expr)
            return
        if isinstance(expr, ast.Deref):
            self._gen_expr(expr.operand)
            return
        raise CodegenError("cannot take address of expression", expr.line)

    def _gen_address_of_index(self, expr: ast.Index) -> None:
        self._gen_expr(expr.base)
        self._gen_expr(expr.index)
        index = self._pop("$t9")
        base = self._pop("$t8")
        size = expr.ctype.size if expr.ctype is not None else 4
        index = self._scale_index(index, size, "$t9")
        target = self._push_target()
        self.line(f"addu {target}, {base}, {index}")
        self._push_commit()

    def _load_indirect(self, ctype: Optional[Type]) -> None:
        """Replace the address on top of the stack with the loaded value."""
        addr = self._pop("$t8")
        target = self._push_target()
        op = "lb" if ctype == CHAR else "lw"
        self.line(f"{op} {target}, 0({addr})")
        self._push_commit()

    # -- calls ------------------------------------------------------------

    def _gen_call(self, expr: ast.Call) -> bool:
        callee = expr.callee
        if isinstance(callee, Builtin):
            return self._gen_builtin_call(expr, callee)
        assert isinstance(callee, FunctionSymbol)
        self._spill_all()
        for arg in expr.args:
            self._gen_expr(arg)
        # Move argument values into $a registers, last first.
        for index in reversed(range(len(expr.args))):
            reg = self._pop("$t9")
            self.line(f"move {_A_REGS[index]}, {reg}")
        self.line(f"jal {callee.name}")
        if callee.ftype.ret != VOID:
            self._push_from("$v0")
            return True
        return False

    def _gen_builtin_call(self, expr: ast.Call, builtin: Builtin) -> bool:
        if expr.args:
            self._gen_expr(expr.args[0])
            reg = self._pop("$t9")
            self.line(f"move $a0, {reg}")
        self.line(f"li $v0, {builtin.service}")
        self.line("syscall")
        if builtin.ret != VOID:
            self._push_from("$v0")
            return True
        return False


def generate(sema: SemanticAnalyzer) -> str:
    """Generate assembly for an analyzed translation unit."""
    return CodeGenerator(sema).generate()
