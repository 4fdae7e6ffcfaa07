"""Tests for MiniC semantic analysis: typing rules and error detection."""

from __future__ import annotations

import pytest

from repro.lang.errors import SemaError
from repro.lang.parser import parse
from repro.lang.sema import analyze
from repro.lang.types import INT, PointerType


def check(source):
    return analyze(parse(source))


def check_body(body, prelude=""):
    return check(f"{prelude}\nint main() {{ {body} return 0; }}")


class TestPrograms:
    def test_main_required(self):
        with pytest.raises(SemaError, match="main"):
            check("int f() { return 0; }")

    def test_duplicate_function(self):
        with pytest.raises(SemaError, match="redefinition"):
            check("int f() { return 0; } int f() { return 1; } int main() { return 0; }")

    def test_duplicate_global(self):
        with pytest.raises(SemaError, match="redefinition"):
            check("int x; int x; int main() { return 0; }")

    def test_builtin_shadowing_rejected(self):
        with pytest.raises(SemaError, match="redefinition"):
            check("int getchar() { return 1; } int main() { return 0; }")

    def test_max_four_parameters(self):
        with pytest.raises(SemaError, match="parameters"):
            check("int f(int a, int b, int c, int d, int e) { return 0; } int main() { return 0; }")

    def test_four_parameters_allowed(self):
        check("int f(int a, int b, int c, int d) { return a; } int main() { return 0; }")


class TestScoping:
    def test_undeclared_identifier(self):
        with pytest.raises(SemaError, match="undeclared"):
            check_body("x = 1;")

    def test_block_scoping(self):
        with pytest.raises(SemaError, match="undeclared"):
            check_body("{ int x = 1; } x = 2;")

    def test_shadowing_in_nested_block(self):
        check_body("int x = 1; { int x = 2; x = 3; } x = 4;")

    def test_redeclaration_same_scope(self):
        with pytest.raises(SemaError, match="redeclaration"):
            check_body("int x = 1; int x = 2;")

    def test_param_visible_in_body(self):
        check("int f(int n) { return n + 1; } int main() { return f(1); }")


class TestTypes:
    def test_assign_annotates_types(self):
        sema = check_body("int x = 1; x = x + 2;")
        assert sema.functions["main"].ftype.ret == INT

    def test_pointer_arith_allowed(self):
        check_body("int *p = 0; p = p + 1; p += 2;")

    def test_pointer_plus_pointer_rejected(self):
        with pytest.raises(SemaError):
            check_body("int *p = 0; int *q = 0; p = p + q;")

    def test_pointer_difference_same_type(self):
        check_body("int *p = 0; int *q = 0; int d = p - q;")

    def test_pointer_difference_mixed_rejected(self):
        with pytest.raises(SemaError):
            check_body("int *p = 0; char *q = 0; int d = p - q;")

    def test_deref_non_pointer_rejected(self):
        with pytest.raises(SemaError, match="non-pointer"):
            check_body("int x = 1; x = *x;")

    def test_index_non_array_rejected(self):
        with pytest.raises(SemaError, match="non-array"):
            check_body("int x = 1; x = x[0];")

    def test_mul_on_pointer_rejected(self):
        with pytest.raises(SemaError):
            check_body("int *p = 0; p = p * 2;")

    def test_assign_to_rvalue_rejected(self):
        with pytest.raises(SemaError, match="lvalue"):
            check_body("1 = 2;")

    def test_assign_to_array_rejected(self):
        with pytest.raises(SemaError):
            check_body("int a[4]; int b[4]; a = b;")

    def test_addrof_rvalue_rejected(self):
        with pytest.raises(SemaError, match="lvalue"):
            check_body("int *p = &1;")

    def test_addrof_marks_address_taken(self):
        sema = check_body("int x = 1; int *p = &x;")
        info = sema.function_info["main"]
        x = next(s for s in info.locals if s.name == "x")
        assert x.address_taken

    def test_arrays_always_address_taken(self):
        sema = check_body("int buf[4]; buf[0] = 1;")
        info = sema.function_info["main"]
        buf = next(s for s in info.locals if s.name == "buf")
        assert buf.address_taken

    def test_local_array_initializer_rejected(self):
        with pytest.raises(SemaError):
            check_body("int a[2] = 5;")

    def test_void_variable_rejected(self):
        with pytest.raises(SemaError):
            check_body("void x;")


class TestCalls:
    def test_wrong_arg_count(self):
        with pytest.raises(SemaError, match="arguments"):
            check("int f(int a) { return a; } int main() { return f(1, 2); }")

    def test_call_undeclared(self):
        with pytest.raises(SemaError, match="undeclared"):
            check_body("nosuch();")

    def test_calling_variable_rejected(self):
        with pytest.raises(SemaError, match="not a function"):
            check("int x; int main() { return x(); }")

    def test_function_as_value_rejected(self):
        with pytest.raises(SemaError, match="used as a value"):
            check("int f() { return 1; } int main() { return f + 1; }")

    def test_builtin_signatures(self):
        check_body("int c = getchar(); putchar(c); print_int(5); exit(0);")

    def test_builtin_wrong_args(self):
        with pytest.raises(SemaError, match="arguments"):
            check_body("putchar();")

    def test_void_in_expression_rejected(self):
        with pytest.raises(SemaError):
            check_body("int x = putchar(65) + 1;")

    def test_makes_calls_tracked(self):
        sema = check(
            "int leaf(int a) { return a; } int main() { return leaf(2); }"
        )
        assert not sema.function_info["leaf"].makes_calls
        assert sema.function_info["main"].makes_calls

    def test_builtins_do_not_mark_makes_calls(self):
        sema = check("int main() { print_int(1); return 0; }")
        assert not sema.function_info["main"].makes_calls


class TestControlFlow:
    def test_break_outside_loop(self):
        with pytest.raises(SemaError, match="break"):
            check_body("break;")

    def test_continue_outside_loop(self):
        with pytest.raises(SemaError, match="continue"):
            check_body("continue;")

    def test_break_inside_loop_ok(self):
        check_body("while (1) { break; } for (;;) { continue; }")

    def test_void_return_value_rejected(self):
        with pytest.raises(SemaError):
            check("void f() { return 1; } int main() { return 0; }")

    def test_missing_return_value_rejected(self):
        with pytest.raises(SemaError):
            check("int f() { return; } int main() { return 0; }")


class TestGlobals:
    def test_initializer_too_long(self):
        with pytest.raises(SemaError, match="initializer"):
            check("int a[2] = {1, 2, 3}; int main() { return 0; }")

    def test_brace_on_scalar_rejected(self):
        with pytest.raises(SemaError):
            check("int x = {1}; int main() { return 0; }")

    def test_string_into_int_array_rejected(self):
        with pytest.raises(SemaError):
            check('int a[4] = "abc"; int main() { return 0; }')

    def test_char_pointer_string_ok(self):
        check('char *s = "abc"; int main() { return 0; }')


class TestErrorColumns:
    """A semantic error points at the offending token, not column 0."""

    @pytest.mark.parametrize(
        "source, prefix",
        [
            # The second `case` label.
            (
                "int main() { switch (1) { case 1: return 1; case 1: return 2; } return 0; }",
                "1:45: duplicate case value 1",
            ),
            # The callee's name.
            ("int main() { return nosuch(1); }", "1:21: call to undeclared function"),
            # The fifth parameter.
            (
                "int f(int a, int b, int c, int d, int e) { return a; }"
                " int main() { return 0; }",
                "1:35: function 'f' has more than 4 parameters",
            ),
            # The assignment's target.
            ("int main() { 1 = 2; return 0; }", "1:14: assignment target is not an lvalue"),
        ],
    )
    def test_offending_token_column(self, source, prefix):
        with pytest.raises(SemaError) as excinfo:
            check(source)
        assert str(excinfo.value).startswith(prefix)
