"""Tests for the repro-cc compiler driver."""

from __future__ import annotations

import pytest

from repro.tools.cc import main

HELLO = """
int main() {
    print_str("hi\\n");
    return 0;
}
"""

SUMMER = """
int main() {
    int total = 0;
    int n = read_int();
    while (n >= 0) {
        total += n;
        n = read_int();
    }
    print_int(total);
    putchar('\\n');
    return 0;
}
"""


@pytest.fixture
def hello_file(tmp_path):
    path = tmp_path / "hello.mc"
    path.write_text(HELLO)
    return str(path)


class TestCompileOnly:
    def test_summary_line(self, hello_file, capsys):
        assert main([hello_file]) == 0
        out = capsys.readouterr().out
        assert "instructions" in out and "functions" in out

    def test_assembly_output(self, hello_file, capsys):
        assert main([hello_file, "-S"]) == 0
        out = capsys.readouterr().out
        assert ".ent main" in out and "syscall" in out

    def test_disassemble(self, hello_file, capsys):
        assert main([hello_file, "--disassemble"]) == 0
        assert "main:" in capsys.readouterr().out

    def test_hex_dump(self, hello_file, capsys):
        assert main([hello_file, "--hex"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert all(":" in line for line in lines if line)

    def test_missing_file(self, capsys):
        assert main(["/nonexistent.mc"]) == 1
        assert "repro-cc:" in capsys.readouterr().err

    def test_const_division_truncates(self, tmp_path, capsys):
        src = tmp_path / "div.mc"
        src.write_text(
            "int g = -7/2; int h = -1/2;\n"
            "int main() { int n = -7; print_int(g); putchar(' '); print_int(h);"
            " putchar(' '); print_int(n / 2); return 0; }"
        )
        assert main([str(src), "--run"]) == 0
        assert capsys.readouterr().out == "-3 0 -3"

    def test_const_division_by_zero_reported(self, tmp_path, capsys):
        src = tmp_path / "div0.mc"
        src.write_text("int x = 1/0;\nint main() { return x; }")
        assert main([str(src)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "1:11: division by zero in constant expression" in err

    def test_oversized_frame_reported(self, tmp_path, capsys):
        src = tmp_path / "big.mc"
        src.write_text("int main() { int a[10000]; a[5] = 1; return a[5]; }")
        assert main([str(src), "--run"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "stack frame of main() is 40128 bytes" in err

    def test_compile_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.mc"
        bad.write_text("int main() { undeclared = 1; }")
        assert main([str(bad)]) == 1
        assert "undeclared" in capsys.readouterr().err


class TestRun:
    def test_run_program(self, hello_file, capsys):
        assert main([hello_file, "--run"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "hi\n"
        assert "stop=" in captured.err

    def test_run_with_input_file(self, tmp_path, capsys):
        src = tmp_path / "sum.mc"
        src.write_text(SUMMER)
        data = tmp_path / "input.txt"
        data.write_text("1 2 3 4 -1")
        assert main([str(src), "--run", "--input", str(data)]) == 0
        assert capsys.readouterr().out == "10\n"

    def test_profile_output(self, hello_file, capsys):
        assert main([hello_file, "--run", "--profile"]) == 0
        err = capsys.readouterr().err
        assert "repetition:" in err and "mix:" in err

    def test_optimized_run_same_output(self, tmp_path, capsys):
        src = tmp_path / "sum.mc"
        src.write_text(SUMMER)
        data = tmp_path / "input.txt"
        data.write_text("5 6 -1")
        main([str(src), "--run", "--input", str(data)])
        plain = capsys.readouterr().out
        main([str(src), "-O", "--run", "--input", str(data)])
        assert capsys.readouterr().out == plain == "11\n"

    def test_exit_code_propagates(self, tmp_path, capsys):
        src = tmp_path / "exit3.mc"
        src.write_text("int main() { exit(3); return 0; }")
        assert main([str(src), "--run"]) == 3

    def test_limit(self, tmp_path, capsys):
        src = tmp_path / "loop.mc"
        src.write_text("int main() { while (1) { } return 0; }")
        assert main([str(src), "--run", "--limit", "500"]) == 0
        assert "stop=limit" in capsys.readouterr().err

    def test_negative_limit_rejected(self, hello_file, capsys):
        with pytest.raises(SystemExit) as info:
            main([hello_file, "--run", "--limit", "-5"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert "--limit must be >= 0" in captured.err
        assert captured.out == ""
