"""AST node definitions for MiniC.

Nodes carry a ``line`` and a ``column`` (set by the parser) for diagnostics.
Expression nodes gain a ``ctype`` attribute during semantic analysis;
identifier references gain a ``symbol`` binding to the
:class:`~repro.lang.sema.Symbol` they resolve to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.lang.types import Type


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr:
    line: int
    #: 1-based column of the token the node starts at (0 = unknown).
    column: int = field(default=0, init=False, compare=False, repr=False)
    #: Filled in by semantic analysis.
    ctype: Optional[Type] = field(default=None, init=False, repr=False)


@dataclass
class IntLiteral(Expr):
    value: int = 0


@dataclass
class StringLiteral(Expr):
    value: str = ""


@dataclass
class Ident(Expr):
    name: str = ""
    #: Resolved by sema to a Symbol.
    symbol: object = field(default=None, init=False, repr=False)


@dataclass
class Unary(Expr):
    op: str = ""
    operand: Optional[Expr] = None


@dataclass
class Binary(Expr):
    op: str = ""
    left: Optional[Expr] = None
    right: Optional[Expr] = None


@dataclass
class Assign(Expr):
    #: "=" or a compound operator like "+=".
    op: str = "="
    target: Optional[Expr] = None
    value: Optional[Expr] = None


@dataclass
class Call(Expr):
    name: str = ""
    args: List[Expr] = field(default_factory=list)
    #: Resolved by sema: a FunctionSymbol or a Builtin descriptor.
    callee: object = field(default=None, init=False, repr=False)


@dataclass
class Index(Expr):
    base: Optional[Expr] = None
    index: Optional[Expr] = None


@dataclass
class Deref(Expr):
    operand: Optional[Expr] = None


@dataclass
class AddrOf(Expr):
    operand: Optional[Expr] = None


@dataclass
class IncDec(Expr):
    """Prefix or postfix ++/--."""

    op: str = "++"
    target: Optional[Expr] = None
    is_prefix: bool = True


@dataclass
class Conditional(Expr):
    """The ternary ?: operator."""

    cond: Optional[Expr] = None
    then_value: Optional[Expr] = None
    else_value: Optional[Expr] = None


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt:
    line: int
    #: 1-based column of the token the node starts at (0 = unknown).
    column: int = field(default=0, init=False, compare=False, repr=False)


@dataclass
class ExprStmt(Stmt):
    expr: Expr = None  # type: ignore[assignment]


@dataclass
class Block(Stmt):
    statements: List[Stmt] = field(default_factory=list)


@dataclass
class If(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then_body: Stmt = None  # type: ignore[assignment]
    else_body: Optional[Stmt] = None


@dataclass
class While(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    body: Stmt = None  # type: ignore[assignment]


@dataclass
class DoWhile(Stmt):
    body: Stmt = None  # type: ignore[assignment]
    cond: Expr = None  # type: ignore[assignment]


@dataclass
class For(Stmt):
    init: Optional[Expr] = None
    cond: Optional[Expr] = None
    step: Optional[Expr] = None
    body: Stmt = None  # type: ignore[assignment]


@dataclass
class SwitchCase:
    """One case arm: labels (constants; None = default) + its body."""

    line: int
    #: 1-based column of the token the node starts at (0 = unknown).
    column: int = field(default=0, init=False, compare=False, repr=False)
    values: List[int] = field(default_factory=list)
    is_default: bool = False
    body: List["Stmt"] = field(default_factory=list)


@dataclass
class Switch(Stmt):
    selector: Expr = None  # type: ignore[assignment]
    cases: List[SwitchCase] = field(default_factory=list)


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class VarDecl(Stmt):
    name: str = ""
    declared_type: Type = None  # type: ignore[assignment]
    init: Optional[Expr] = None
    #: Resolved by sema to the variable's Symbol.
    symbol: object = field(default=None, init=False, repr=False)


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------


Initializer = Union[int, str, List[int]]


@dataclass
class GlobalDecl:
    line: int
    #: 1-based column of the token the node starts at (0 = unknown).
    column: int = field(default=0, init=False, compare=False, repr=False)
    name: str = ""
    declared_type: Type = None  # type: ignore[assignment]
    #: A constant scalar, a string, or a flat list of constants.
    init: Optional[Initializer] = None


@dataclass
class Param:
    line: int
    #: 1-based column of the token the node starts at (0 = unknown).
    column: int = field(default=0, init=False, compare=False, repr=False)
    name: str = ""
    declared_type: Type = None  # type: ignore[assignment]


@dataclass
class FunctionDef:
    line: int
    #: 1-based column of the token the node starts at (0 = unknown).
    column: int = field(default=0, init=False, compare=False, repr=False)
    name: str = ""
    return_type: Type = None  # type: ignore[assignment]
    params: List[Param] = field(default_factory=list)
    body: Block = None  # type: ignore[assignment]


@dataclass
class TranslationUnit:
    globals: List[GlobalDecl] = field(default_factory=list)
    functions: List[FunctionDef] = field(default_factory=list)
