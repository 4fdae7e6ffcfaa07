"""Recursive-descent parser for MiniC.

Grammar summary (C subset):

* top level: global variable declarations (with constant initializers)
  and function definitions;
* types: ``int``, ``char``, pointers thereof, one-dimensional arrays;
* statements: blocks, ``if``/``else``, ``while``, ``do``/``while``,
  ``for``, ``return``, ``break``, ``continue``, declarations,
  expression statements;
* expressions: full C operator precedence (including ``?:`` and
  ``++``/``--``) minus the comma operator and ``sizeof``.
"""

from __future__ import annotations

from typing import List, Optional, TypeVar, Union

from repro.lang import astnodes as ast
from repro.lang.errors import ParseError
from repro.lang.lexer import tokenize
from repro.lang.tokens import Token, TokenKind
from repro.lang.types import ArrayType, CHAR, INT, PointerType, Type, VOID

_ASSIGN_OPS = frozenset({"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="})

#: Binary operator precedence tiers, loosest first.
_BINARY_TIERS = (
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", "<=", ">", ">="),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
)

_Node = TypeVar("_Node")


def _at(node: _Node, where: Union[Token, ast.Expr]) -> _Node:
    """Stamp *node* with the column of *where* (a token or a node) and return it."""
    node.column = where.column  # type: ignore[attr-defined]
    return node


class Parser:
    """Parses one translation unit."""

    def __init__(self, source: str) -> None:
        self.tokens = tokenize(source)
        self.pos = 0

    # -- token plumbing --------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def next(self) -> Token:
        token = self.peek()
        if token.kind != TokenKind.EOF:
            self.pos += 1
        return token

    def error(self, message: str, token: Optional[Token] = None) -> ParseError:
        token = token if token is not None else self.peek()
        return ParseError(message, token.line, token.column)

    def accept_op(self, text: str) -> bool:
        if self.peek().is_op(text):
            self.pos += 1
            return True
        return False

    def expect_op(self, text: str) -> Token:
        token = self.peek()
        if not token.is_op(text):
            raise self.error(f"expected {text!r}, got {token.text!r}")
        return self.next()

    def accept_keyword(self, text: str) -> bool:
        if self.peek().is_keyword(text):
            self.pos += 1
            return True
        return False

    def expect_ident(self) -> Token:
        token = self.peek()
        if token.kind != TokenKind.IDENT:
            raise self.error(f"expected identifier, got {token.text!r}")
        return self.next()

    # -- types ------------------------------------------------------------

    def at_type(self) -> bool:
        return self.peek().kind == TokenKind.KEYWORD and self.peek().text in ("int", "char", "void")

    def parse_base_type(self) -> Type:
        token = self.next()
        if token.text == "int":
            base: Type = INT
        elif token.text == "char":
            base = CHAR
        elif token.text == "void":
            base = VOID
        else:
            raise self.error("expected type", token)
        while self.accept_op("*"):
            base = PointerType(base)
        return base

    # -- constant expressions (global initializers, array lengths) --------

    def parse_const_expr(self) -> int:
        return self._const_additive()

    def _const_additive(self) -> int:
        value = self._const_term()
        while True:
            if self.accept_op("+"):
                value += self._const_term()
            elif self.accept_op("-"):
                value -= self._const_term()
            else:
                return value

    def _const_term(self) -> int:
        value = self._const_factor()
        while True:
            if self.accept_op("*"):
                value *= self._const_factor()
            elif self.accept_op("/"):
                token = self.peek()
                divisor = self._const_factor()
                if divisor == 0:
                    raise self.error("division by zero in constant expression", token)
                # C truncates toward zero, as the machine's div does.
                quotient = abs(value) // abs(divisor)
                value = quotient if (value < 0) == (divisor < 0) else -quotient
            else:
                return value

    def _const_factor(self) -> int:
        if self.accept_op("-"):
            return -self._const_factor()
        if self.accept_op("("):
            value = self._const_additive()
            self.expect_op(")")
            return value
        token = self.next()
        if token.kind in (TokenKind.NUMBER, TokenKind.CHAR):
            return int(token.value)  # type: ignore[arg-type]
        raise self.error("expected constant expression", token)

    def _array_length(self) -> int:
        token = self.peek()
        length = self.parse_const_expr()
        if length < 1:
            raise self.error(f"array length must be at least 1, got {length}", token)
        self.expect_op("]")
        return length

    # -- top level ----------------------------------------------------------

    def parse(self) -> ast.TranslationUnit:
        unit = ast.TranslationUnit()
        while self.peek().kind != TokenKind.EOF:
            if not self.at_type():
                raise self.error("expected declaration")
            start = self.peek()
            base = self.parse_base_type()
            name = self.expect_ident().text
            if self.peek().is_op("("):
                unit.functions.append(self._parse_function(start, base, name))
            else:
                unit.globals.append(self._parse_global(start, base, name))
        return unit

    def _parse_global(self, start: Token, base: Type, name: str) -> ast.GlobalDecl:
        declared: Type = base
        if self.accept_op("["):
            declared = ArrayType(base, self._array_length())
        init: Optional[ast.Initializer] = None
        if self.accept_op("="):
            token = self.peek()
            if token.kind == TokenKind.STRING:
                self.next()
                init = str(token.value)
            elif token.is_op("{"):
                self.next()
                values: List[int] = []
                if not self.peek().is_op("}"):
                    values.append(self.parse_const_expr())
                    while self.accept_op(","):
                        values.append(self.parse_const_expr())
                self.expect_op("}")
                init = values
            else:
                init = self.parse_const_expr()
        self.expect_op(";")
        return _at(ast.GlobalDecl(start.line, name, declared, init), start)

    def _parse_function(self, start: Token, ret: Type, name: str) -> ast.FunctionDef:
        self.expect_op("(")
        params: List[ast.Param] = []
        if not self.peek().is_op(")"):
            if self.peek().is_keyword("void") and self.peek(1).is_op(")"):
                self.next()
            else:
                params.append(self._parse_param())
                while self.accept_op(","):
                    params.append(self._parse_param())
        self.expect_op(")")
        body = self.parse_block()
        return _at(ast.FunctionDef(start.line, name, ret, params, body), start)

    def _parse_param(self) -> ast.Param:
        start = self.peek()
        ptype = self.parse_base_type()
        name = self.expect_ident().text
        # Array parameters decay to pointers, as in C.
        if self.accept_op("["):
            self.expect_op("]")
            ptype = PointerType(ptype)
        return _at(ast.Param(start.line, name, ptype), start)

    # -- statements ----------------------------------------------------------

    def parse_block(self) -> ast.Block:
        start = self.expect_op("{")
        statements: List[ast.Stmt] = []
        while not self.peek().is_op("}"):
            if self.peek().kind == TokenKind.EOF:
                raise self.error("unterminated block", start)
            statements.append(self.parse_statement())
        self.expect_op("}")
        return _at(ast.Block(start.line, statements), start)

    def parse_statement(self) -> ast.Stmt:
        token = self.peek()
        if token.is_op("{"):
            return self.parse_block()
        if token.is_op(";"):
            self.next()
            return _at(ast.Block(token.line, []), token)
        if token.is_keyword("if"):
            return self._parse_if()
        if token.is_keyword("while"):
            return self._parse_while()
        if token.is_keyword("do"):
            return self._parse_do_while()
        if token.is_keyword("switch"):
            return self._parse_switch()
        if token.is_keyword("for"):
            return self._parse_for()
        if token.is_keyword("return"):
            self.next()
            value = None if self.peek().is_op(";") else self.parse_expression()
            self.expect_op(";")
            return _at(ast.Return(token.line, value), token)
        if token.is_keyword("break"):
            self.next()
            self.expect_op(";")
            return _at(ast.Break(token.line), token)
        if token.is_keyword("continue"):
            self.next()
            self.expect_op(";")
            return _at(ast.Continue(token.line), token)
        if self.at_type():
            return self._parse_var_decl()
        expr = self.parse_expression()
        self.expect_op(";")
        return _at(ast.ExprStmt(token.line, expr), token)

    def _parse_if(self) -> ast.If:
        token = self.next()
        self.expect_op("(")
        cond = self.parse_expression()
        self.expect_op(")")
        then_body = self.parse_statement()
        else_body = self.parse_statement() if self.accept_keyword("else") else None
        return _at(ast.If(token.line, cond, then_body, else_body), token)

    def _parse_while(self) -> ast.While:
        token = self.next()
        self.expect_op("(")
        cond = self.parse_expression()
        self.expect_op(")")
        return _at(ast.While(token.line, cond, self.parse_statement()), token)

    def _parse_do_while(self) -> ast.DoWhile:
        token = self.next()
        body = self.parse_statement()
        if not self.accept_keyword("while"):
            raise self.error("expected 'while' after do-body")
        self.expect_op("(")
        cond = self.parse_expression()
        self.expect_op(")")
        self.expect_op(";")
        return _at(ast.DoWhile(token.line, body, cond), token)

    def _parse_switch(self) -> ast.Switch:
        token = self.next()
        self.expect_op("(")
        selector = self.parse_expression()
        self.expect_op(")")
        self.expect_op("{")
        cases: List[ast.SwitchCase] = []
        current: Optional[ast.SwitchCase] = None
        while not self.peek().is_op("}"):
            if self.peek().kind == TokenKind.EOF:
                raise self.error("unterminated switch", token)
            if self.peek().is_keyword("case"):
                label = self.next()
                value = self.parse_const_expr()
                self.expect_op(":")
                if current is not None and not current.body:
                    # `case 1: case 2:` — stacked labels share one arm.
                    current.values.append(value)
                else:
                    current = _at(ast.SwitchCase(label.line, [value]), label)
                    cases.append(current)
            elif self.peek().is_keyword("default"):
                label = self.next()
                self.expect_op(":")
                if current is not None and not current.body:
                    current.is_default = True
                else:
                    current = _at(ast.SwitchCase(label.line, [], is_default=True), label)
                    cases.append(current)
            else:
                if current is None:
                    raise self.error("statement before first case label")
                current.body.append(self.parse_statement())
        self.expect_op("}")
        return _at(ast.Switch(token.line, selector, cases), token)

    def _parse_for(self) -> ast.For:
        token = self.next()
        self.expect_op("(")
        init = None if self.peek().is_op(";") else self.parse_expression()
        self.expect_op(";")
        cond = None if self.peek().is_op(";") else self.parse_expression()
        self.expect_op(";")
        step = None if self.peek().is_op(")") else self.parse_expression()
        self.expect_op(")")
        return _at(ast.For(token.line, init, cond, step, self.parse_statement()), token)

    def _parse_var_decl(self) -> ast.VarDecl:
        start = self.peek()
        base = self.parse_base_type()
        name = self.expect_ident().text
        declared: Type = base
        if self.accept_op("["):
            declared = ArrayType(base, self._array_length())
        init = self.parse_expression() if self.accept_op("=") else None
        self.expect_op(";")
        return _at(ast.VarDecl(start.line, name, declared, init), start)

    # -- expressions -----------------------------------------------------------

    def parse_expression(self) -> ast.Expr:
        return self._parse_assignment()

    def _parse_assignment(self) -> ast.Expr:
        left = self._parse_binary(0)
        token = self.peek()
        if token.is_op("?"):
            self.next()
            then_value = self.parse_expression()
            self.expect_op(":")
            else_value = self._parse_assignment()
            return _at(ast.Conditional(token.line, left, then_value, else_value), token)
        if token.kind == TokenKind.OP and token.text in _ASSIGN_OPS:
            self.next()
            value = self._parse_assignment()
            return _at(ast.Assign(token.line, token.text, left, value), token)
        return left

    def _parse_binary(self, tier: int) -> ast.Expr:
        if tier >= len(_BINARY_TIERS):
            return self._parse_unary()
        ops = _BINARY_TIERS[tier]
        left = self._parse_binary(tier + 1)
        while True:
            token = self.peek()
            if token.kind == TokenKind.OP and token.text in ops:
                self.next()
                right = self._parse_binary(tier + 1)
                left = _at(ast.Binary(token.line, token.text, left, right), token)
            else:
                return left

    def _parse_unary(self) -> ast.Expr:
        token = self.peek()
        if token.is_op("++") or token.is_op("--"):
            self.next()
            operand = self._parse_unary()
            return _at(ast.IncDec(token.line, token.text, operand, True), token)
        if token.is_op("-"):
            self.next()
            return _at(ast.Unary(token.line, "-", self._parse_unary()), token)
        if token.is_op("!"):
            self.next()
            return _at(ast.Unary(token.line, "!", self._parse_unary()), token)
        if token.is_op("~"):
            self.next()
            return _at(ast.Unary(token.line, "~", self._parse_unary()), token)
        if token.is_op("*"):
            self.next()
            return _at(ast.Deref(token.line, self._parse_unary()), token)
        if token.is_op("&"):
            self.next()
            return _at(ast.AddrOf(token.line, self._parse_unary()), token)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            token = self.peek()
            if token.is_op("["):
                self.next()
                index = self.parse_expression()
                self.expect_op("]")
                expr = _at(ast.Index(token.line, expr, index), token)
            elif token.is_op("++") or token.is_op("--"):
                self.next()
                expr = _at(ast.IncDec(token.line, token.text, expr, False), token)
            elif token.is_op("(") and isinstance(expr, ast.Ident):
                self.next()
                args: List[ast.Expr] = []
                if not self.peek().is_op(")"):
                    args.append(self.parse_expression())
                    while self.accept_op(","):
                        args.append(self.parse_expression())
                self.expect_op(")")
                expr = _at(ast.Call(expr.line, expr.name, args), expr)
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        token = self.next()
        if token.kind in (TokenKind.NUMBER, TokenKind.CHAR):
            value = int(token.value)  # type: ignore[arg-type]
            return _at(ast.IntLiteral(token.line, value), token)
        if token.kind == TokenKind.STRING:
            return _at(ast.StringLiteral(token.line, str(token.value)), token)
        if token.kind == TokenKind.IDENT:
            return _at(ast.Ident(token.line, token.text), token)
        if token.is_op("("):
            expr = self.parse_expression()
            self.expect_op(")")
            return expr
        raise self.error(f"unexpected token {token.text!r}", token)


def parse(source: str) -> ast.TranslationUnit:
    """Parse MiniC source into an AST (convenience wrapper)."""
    return Parser(source).parse()
