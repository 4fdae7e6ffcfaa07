"""Tokenizer for MiniC source."""

from __future__ import annotations

from typing import List

from repro.lang.errors import LexError
from repro.lang.tokens import (
    KEYWORDS,
    MULTI_CHAR_OPERATORS,
    SINGLE_CHAR_OPERATORS,
    Token,
    TokenKind,
)

_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "0": "\0",
    "\\": "\\",
    "'": "'",
    '"': '"',
}


class Lexer:
    """Converts MiniC source text into a token list."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0
        self.line = 1
        self.column = 1

    def error(self, message: str) -> LexError:
        return LexError(message, self.line, self.column)

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos < len(self.source) and self.source[self.pos] == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
            self.pos += 1

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.source[index] if index < len(self.source) else ""

    def _skip_trivia(self) -> None:
        while self.pos < len(self.source):
            ch = self.source[self.pos]
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.source) and self.source[self.pos] != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                self._advance(2)
                while self.pos < len(self.source) and not (
                    self.source[self.pos] == "*" and self._peek(1) == "/"
                ):
                    self._advance()
                if self.pos >= len(self.source):
                    raise self.error("unterminated block comment")
                self._advance(2)
            else:
                return

    def _read_escaped_char(self, terminator: str) -> str:
        ch = self._peek()
        if ch == "":
            raise self.error("unterminated literal")
        if ch == "\\":
            escape = self._peek(1)
            if escape not in _ESCAPES:
                raise self.error(f"unknown escape \\{escape}")
            self._advance(2)
            return _ESCAPES[escape]
        if ch == terminator:
            raise self.error("empty literal")
        self._advance()
        return ch

    def tokenize(self) -> List[Token]:
        tokens: List[Token] = []
        while True:
            self._skip_trivia()
            if self.pos >= len(self.source):
                tokens.append(Token(TokenKind.EOF, "", self.line, self.column))
                return tokens
            line, column = self.line, self.column
            ch = self.source[self.pos]
            if ch.isalpha() or ch == "_":
                start = self.pos
                while self._peek().isalnum() or self._peek() == "_":
                    self._advance()
                text = self.source[start : self.pos]
                kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
                tokens.append(Token(kind, text, line, column))
            elif ch.isdigit():
                start = self.pos
                if ch == "0" and self._peek(1) in ("x", "X"):
                    self._advance(2)
                    while self._peek() in (
                        "0", "1", "2", "3", "4", "5", "6", "7", "8", "9",
                        "a", "b", "c", "d", "e", "f",
                        "A", "B", "C", "D", "E", "F",
                    ):
                        self._advance()
                    base = 16
                else:
                    while self._peek().isdigit():
                        self._advance()
                    base = 10
                text = self.source[start : self.pos]
                if text in ("0x", "0X"):
                    raise LexError("hex literal has no digits", line, column)
                value = int(text, base)
                if value > 0xFFFFFFFF:
                    raise LexError(
                        f"integer literal {text} does not fit in 32 bits", line, column
                    )
                tokens.append(Token(TokenKind.NUMBER, text, line, column, value))
            elif ch == "'":
                self._advance()
                char = self._read_escaped_char("'")
                if self._peek() != "'":
                    raise self.error("unterminated char literal")
                self._advance()
                tokens.append(Token(TokenKind.CHAR, f"'{char}'", line, column, ord(char)))
            elif ch == '"':
                self._advance()
                chars: List[str] = []
                while self._peek() != '"':
                    chars.append(self._read_escaped_char('"'))
                self._advance()
                text = "".join(chars)
                tokens.append(Token(TokenKind.STRING, text, line, column, text))
            else:
                for op in MULTI_CHAR_OPERATORS:
                    if self.source.startswith(op, self.pos):
                        self._advance(len(op))
                        tokens.append(Token(TokenKind.OP, op, line, column))
                        break
                else:
                    if ch in SINGLE_CHAR_OPERATORS:
                        self._advance()
                        tokens.append(Token(TokenKind.OP, ch, line, column))
                    else:
                        raise self.error(f"unexpected character {ch!r}")


def tokenize(source: str) -> List[Token]:
    """Tokenize MiniC source (convenience wrapper)."""
    return Lexer(source).tokenize()
