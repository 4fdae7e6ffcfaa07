"""Tests for the MiniC tokenizer."""

from __future__ import annotations

import pytest

from repro.lang.errors import LexError
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokenKind


def kinds(source):
    return [t.kind for t in tokenize(source)][:-1]  # drop EOF


class TestBasics:
    def test_identifiers_and_keywords(self):
        tokens = tokenize("int foo while bar")
        assert [t.kind for t in tokens[:4]] == [
            TokenKind.KEYWORD,
            TokenKind.IDENT,
            TokenKind.KEYWORD,
            TokenKind.IDENT,
        ]

    def test_numbers(self):
        tokens = tokenize("12 0x1f 0")
        assert [t.value for t in tokens[:3]] == [12, 31, 0]

    def test_char_literals(self):
        tokens = tokenize(r"'a' '\n' '\0' '\\'")
        assert [t.value for t in tokens[:4]] == [97, 10, 0, 92]

    def test_string_literal(self):
        token = tokenize(r'"hi\tthere"')[0]
        assert token.kind == TokenKind.STRING
        assert token.value == "hi\tthere"

    def test_operators_longest_match(self):
        tokens = tokenize("a <<= b << c <= d < e")
        ops = [t.text for t in tokens if t.kind == TokenKind.OP]
        assert ops == ["<<=", "<<", "<=", "<"]

    def test_compound_assignment_ops(self):
        ops = [t.text for t in tokenize("+= -= *= /= %= &= |= ^=") if t.kind == TokenKind.OP]
        assert ops == ["+=", "-=", "*=", "/=", "%=", "&=", "|=", "^="]

    def test_eof_token(self):
        assert tokenize("")[-1].kind == TokenKind.EOF


class TestComments:
    def test_line_comment(self):
        assert kinds("a // comment\nb") == [TokenKind.IDENT, TokenKind.IDENT]

    def test_block_comment(self):
        assert kinds("a /* x\ny */ b") == [TokenKind.IDENT, TokenKind.IDENT]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("a /* never closed")


class TestPositions:
    def test_line_and_column(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)


class TestErrors:
    def test_bad_character(self):
        with pytest.raises(LexError):
            tokenize("a @ b")

    def test_bad_escape(self):
        with pytest.raises(LexError):
            tokenize(r"'\q'")

    def test_unterminated_char(self):
        with pytest.raises(LexError):
            tokenize("'ab'")

    def test_hex_literal_without_digits(self):
        with pytest.raises(LexError, match="^1:12: hex literal has no digits"):
            tokenize("int x = 1; 0x;")


class TestIntegerRange:
    @pytest.mark.parametrize("text", ["4294967295", "0xFFFFFFFF", "0xffffffff"])
    def test_largest_32_bit_literal_accepted(self, text):
        assert tokenize(text)[0].value == 0xFFFFFFFF

    @pytest.mark.parametrize("text", ["4294967296", "99999999999", "0x100000000"])
    def test_wider_literal_rejected_at_its_position(self, text):
        with pytest.raises(LexError) as excinfo:
            tokenize(f"int x;\nint y = {text};")
        error = excinfo.value
        assert (error.line, error.column) == (2, 9)
        assert error.message == f"integer literal {text} does not fit in 32 bits"
