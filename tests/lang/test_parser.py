"""Tests for the MiniC parser."""

from __future__ import annotations

import pytest

from repro.lang import astnodes as ast
from repro.lang.errors import ParseError
from repro.lang.parser import parse
from repro.lang.types import INT, ArrayType, CHAR, PointerType


class TestTopLevel:
    def test_global_scalar(self):
        unit = parse("int x = 5; int main() { return 0; }")
        decl = unit.globals[0]
        assert decl.name == "x" and decl.declared_type == INT and decl.init == 5

    def test_global_array_with_braces(self):
        unit = parse("int a[3] = {1, 2, 3}; int main() { return 0; }")
        decl = unit.globals[0]
        assert decl.declared_type == ArrayType(INT, 3)
        assert decl.init == [1, 2, 3]

    def test_global_string(self):
        unit = parse('char s[8] = "hi"; int main() { return 0; }')
        assert unit.globals[0].init == "hi"

    def test_const_expression_sizes(self):
        unit = parse("int a[4 * 8]; int main() { return 0; }")
        assert unit.globals[0].declared_type.length == 32

    def test_const_division_truncates_toward_zero(self):
        # C semantics, matching the machine's div and the optimizer's folding.
        cases = {"-7/2": -3, "7/-2": -3, "-7/-2": 3, "7/2": 3, "-1/2": 0, "(0-9)/4*2": -4}
        for expr, value in cases.items():
            unit = parse(f"int g = {expr}; int main() {{ return 0; }}")
            assert unit.globals[0].init == value, expr

    def test_pointer_types(self):
        unit = parse("int **pp; int main() { return 0; }")
        assert unit.globals[0].declared_type == PointerType(PointerType(INT))

    def test_function_params(self):
        unit = parse("int f(int a, char *b) { return a; } int main() { return 0; }")
        func = unit.functions[0]
        assert [p.name for p in func.params] == ["a", "b"]
        assert func.params[1].declared_type == PointerType(CHAR)

    def test_void_param_list(self):
        unit = parse("int f(void) { return 1; } int main() { return 0; }")
        assert unit.functions[0].params == []

    def test_array_param_decays(self):
        unit = parse("int f(int a[]) { return a[0]; } int main() { return 0; }")
        assert unit.functions[0].params[0].declared_type == PointerType(INT)


class TestStatements:
    def parse_body(self, body):
        return parse(f"int main() {{ {body} }}").functions[0].body.statements

    def test_if_else(self):
        stmt = self.parse_body("if (1) { } else { }")[0]
        assert isinstance(stmt, ast.If) and stmt.else_body is not None

    def test_dangling_else_binds_inner(self):
        stmt = self.parse_body("if (1) if (2) ; else ;")[0]
        assert stmt.else_body is None
        assert isinstance(stmt.then_body, ast.If)
        assert stmt.then_body.else_body is not None

    def test_while(self):
        stmt = self.parse_body("while (x) { }")[0]
        assert isinstance(stmt, ast.While)

    def test_for_clauses_optional(self):
        stmt = self.parse_body("for (;;) break;")[0]
        assert stmt.init is None and stmt.cond is None and stmt.step is None

    def test_local_decl_with_init(self):
        stmt = self.parse_body("int x = 3;")[0]
        assert isinstance(stmt, ast.VarDecl) and stmt.name == "x"

    def test_local_array(self):
        stmt = self.parse_body("int buf[10];")[0]
        assert stmt.declared_type == ArrayType(INT, 10)

    def test_return_void(self):
        stmt = self.parse_body("return;")[0]
        assert isinstance(stmt, ast.Return) and stmt.value is None


class TestExpressions:
    def expr(self, text):
        return parse(f"int main() {{ x = {text}; }}").functions[0].body.statements[0].expr.value

    def test_precedence_mul_over_add(self):
        node = self.expr("1 + 2 * 3")
        assert node.op == "+"
        assert node.right.op == "*"

    def test_precedence_comparison_over_logic(self):
        node = self.expr("a < b && c > d")
        assert node.op == "&&"
        assert node.left.op == "<" and node.right.op == ">"

    def test_shift_precedence(self):
        node = self.expr("1 << 2 + 3")
        assert node.op == "<<"
        assert node.right.op == "+"

    def test_right_associative_assignment(self):
        stmt = parse("int main() { a = b = 1; }").functions[0].body.statements[0]
        assert isinstance(stmt.expr.value, ast.Assign)

    def test_unary_chain(self):
        node = self.expr("- -x")  # unary minus applied twice
        assert isinstance(node, ast.Unary) and isinstance(node.operand, ast.Unary)

    def test_decrement_tokenizes_as_incdec(self):
        node = self.expr("--x")
        assert isinstance(node, ast.IncDec) and node.op == "--" and node.is_prefix

    def test_postfix_increment(self):
        node = self.expr("x++")
        assert isinstance(node, ast.IncDec) and node.op == "++" and not node.is_prefix

    def test_ternary(self):
        node = self.expr("a ? b : c")
        assert isinstance(node, ast.Conditional)

    def test_nested_ternary_right_associative(self):
        node = self.expr("a ? b : c ? d : e")
        assert isinstance(node, ast.Conditional)
        assert isinstance(node.else_value, ast.Conditional)

    def test_do_while(self):
        stmt = parse("int main() { do { x = 1; } while (x < 3); }").functions[0].body.statements[0]
        assert isinstance(stmt, ast.DoWhile)

    def test_deref_and_addrof(self):
        node = self.expr("*&y")
        assert isinstance(node, ast.Deref) and isinstance(node.operand, ast.AddrOf)

    def test_index_chain(self):
        node = self.expr("a[1]")
        assert isinstance(node, ast.Index)

    def test_call_with_args(self):
        node = self.expr("f(1, g(2))")
        assert isinstance(node, ast.Call) and len(node.args) == 2
        assert isinstance(node.args[1], ast.Call)

    def test_parenthesized(self):
        node = self.expr("(1 + 2) * 3")
        assert node.op == "*" and node.left.op == "+"

    def test_compound_assignment(self):
        stmt = parse("int main() { x += 2; }").functions[0].body.statements[0]
        assert stmt.expr.op == "+="


class TestErrors:
    @pytest.mark.parametrize(
        "source",
        [
            "int main() { if 1 { } }",  # missing parens
            "int main() { return 1 }",  # missing semicolon
            "int main() { int x = ; }",
            "int f(int a, int b,) { return 0; }",
            "int main() { }  junk",
            "int a[] = {1};  int main() { }",  # missing size
        ],
    )
    def test_rejected(self, source):
        with pytest.raises(ParseError):
            parse(source)

    @pytest.mark.parametrize(
        "source,column",
        [
            ("int x = 1/0; int main() { return 0; }", 11),
            ("int x = 4/(2-2); int main() { return 0; }", 11),
            ("int main() { int a[8/0]; return 0; }", 22),
        ],
    )
    def test_const_division_by_zero(self, source, column):
        with pytest.raises(ParseError, match="division by zero") as info:
            parse(source)
        assert (info.value.line, info.value.column) == (1, column)

    @pytest.mark.parametrize(
        "source",
        [
            "int a[-1]; int main() { return 0; }",
            "int z[0]; int main() { return 0; }",
            "int z[2-2]; int main() { return 0; }",
            "int main() { int a[-1]; a[0] = 5; return 0; }",
            "int main() { int z[0]; return 0; }",
        ],
    )
    def test_array_length_below_one(self, source):
        with pytest.raises(ParseError, match="array length must be at least 1"):
            parse(source)

    def test_unterminated_block(self):
        with pytest.raises(ParseError):
            parse("int main() { while (1) {")
