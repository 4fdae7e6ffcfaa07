"""Tests for the repro-run CLI."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.harness.cli import build_parser, main
from repro.obs.manifest import MANIFEST_SCHEMA

GOLDEN_DIGESTS = Path(__file__).resolve().parents[1] / "golden" / "result_digests.json"


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.scale == 1 and args.input == "primary"

    def test_experiment_list(self):
        args = build_parser().parse_args(["table1", "fig5"])
        assert args.experiments == ["table1", "fig5"]


class TestPerfFlags:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.engine == "predecoded"
        assert args.jobs == 1
        assert args.cache_dir is None
        assert not args.no_cache

    def test_flags_parse(self):
        args = build_parser().parse_args(
            ["table1", "--engine", "interpreter", "--jobs", "4", "--cache-dir", "/tmp/c"]
        )
        assert args.engine == "interpreter"
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/c"

    def test_cache_dir_wired_through_main(self, capsys, tmp_path):
        from repro.harness.runner import cache_directory, set_cache_dir

        cache = tmp_path / "cache"
        try:
            code = main(
                [
                    "table2",
                    "--workloads",
                    "compress",
                    "--cache-dir",
                    str(cache),
                ]
            )
            assert code == 0
            assert cache_directory() == str(cache)
            assert list(cache.glob("*.pkl"))
        finally:
            set_cache_dir(None)

    def test_no_cache_overrides(self, capsys, tmp_path):
        from repro.harness.runner import cache_directory, set_cache_dir

        set_cache_dir(str(tmp_path))
        try:
            code = main(["table2", "--workloads", "compress", "--no-cache"])
            assert code == 0
            assert cache_directory() is None
        finally:
            set_cache_dir(None)


class TestRobustnessFlags:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.strict is True
        assert args.timeout_s is None
        assert args.faults is None

    def test_flags_parse(self):
        args = build_parser().parse_args(
            [
                "table1",
                "--no-strict",
                "--timeout-s",
                "2.5",
                "--faults",
                "worker.crash:go",
            ]
        )
        assert args.strict is False
        assert args.timeout_s == 2.5
        assert args.faults == "worker.crash:go"

    def test_non_strict_faulted_run_exits_3_with_artifacts(self, capsys, tmp_path):
        """A partial run still writes the markdown + manifest, flags the
        failures in both, and exits non-zero."""
        markdown = tmp_path / "report.md"
        code = main(
            [
                "table1",
                "--workloads",
                "compress,go",
                "--no-strict",
                "--faults",
                "asm.error:go",
                "--markdown",
                str(markdown),
            ]
        )
        assert code == 3
        out = capsys.readouterr().out
        assert "== failures (1) ==" in out
        text = markdown.read_text()
        assert "## Failures" in text
        assert "compile-error" in text and "go" in text
        manifest = json.loads((tmp_path / "report.md.manifest.json").read_text())
        assert manifest["partial"] is True
        assert manifest["failures"]["go"]["kind"] == "compile-error"

    def test_strict_faulted_run_raises(self):
        from repro.asm.errors import AsmError

        with pytest.raises(AsmError):
            main(["table1", "--workloads", "go", "--faults", "asm.error:go"])

    def test_clean_run_with_flags_exits_0(self, capsys):
        code = main(["table2", "--workloads", "compress", "--no-strict"])
        assert code == 0


class TestMain:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig6" in out

    def test_no_selection_errors(self, capsys):
        assert main([]) == 2

    def test_unknown_experiment_errors(self, capsys):
        assert main(["tableX"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--workloads", "nosuch"], "--workloads: unknown workload(s) nosuch"),
            (["--workloads", "go,go"], "--workloads: duplicate names in 'go,go'"),
            (["--jobs", "0"], "--jobs must be a positive integer"),
            (["--faults", "nonsense"], "--faults: unknown fault site 'nonsense'"),
            (["--timeout-s", "-1", "--no-strict"], "--timeout-s must be positive"),
            (["--scale", "0"], "--scale: scale must be positive, got 0"),
            (["--scale", "-1"], "--scale: scale must be positive, got -1"),
            (
                ["--reuse-assoc", "0"],
                "--reuse-entries/--reuse-assoc: associativity must be positive, got 0",
            ),
            (
                ["--reuse-entries", "0"],
                "--reuse-entries/--reuse-assoc: entries must be positive, got 0",
            ),
            (
                ["--trace-capacity", "0"],
                "--trace-capacity/--trace-ways/--trace-max-len: "
                "capacity must be positive, got 0",
            ),
            (
                ["--trace-ways", "0"],
                "--trace-capacity/--trace-ways/--trace-max-len: "
                "ways must be positive, got 0",
            ),
            (
                ["--reuse-entries", "10", "--reuse-assoc", "4"],
                "--reuse-entries/--reuse-assoc: "
                "entries must be a multiple of associativity",
            ),
            (
                ["--buffer-capacity", "0"],
                "--buffer-capacity: buffer_capacity must be positive",
            ),
            (
                ["--trace-max-len", "0"],
                "--trace-capacity/--trace-ways/--trace-max-len: "
                "max_trace_len must be at least 1",
            ),
            (
                ["--trace-capacity", "10", "--trace-ways", "4"],
                "--trace-capacity/--trace-ways/--trace-max-len: "
                "capacity must be a multiple of ways",
            ),
            (["--workloads", "compress,"], "--workloads: empty name in 'compress,'"),
            (["--workloads", "compress, nosuch"], "--workloads: unknown workload(s) nosuch ("),
        ],
    )
    def test_bad_option_values_exit_2(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table1", *argv])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before anything ran
        errors = [line for line in captured.err.splitlines() if "error" in line]
        assert len(errors) == 1
        assert errors[0].startswith(f"repro-run: error: {message}")

    def test_markdown_gets_sidecar_manifest(self, tmp_path, capsys):
        report = tmp_path / "report.md"
        code = main(["table2", "--workloads", "compress", "--markdown", str(report)])
        assert code == 0
        sidecar = tmp_path / "report.md.manifest.json"
        assert report.exists() and sidecar.exists()
        manifest = json.loads(sidecar.read_text())
        assert manifest["kind"] == "suite"
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert list(manifest["workloads"]) == ["compress"]
        golden = json.loads(GOLDEN_DIGESTS.read_text())["primary"]["compress"]
        assert manifest["workloads"]["compress"]["result_digest"] == golden

    def test_workload_names_are_stripped(self, capsys):
        code = main(["table2", "--workloads", "compress, li"])
        assert code == 0
        out = capsys.readouterr().out
        assert "compress" in out and "li" in out

    def test_runs_single_experiment_on_subset(self, capsys):
        code = main(["table2", "--workloads", "m88ksim"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "m88ksim" in out

    def test_closed_stdout_exits_quietly(self):
        """``repro-run ... | head -1``: the reader goes away early, so
        writing the tables raises EPIPE; the run must end without a
        traceback."""
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.harness.cli", "table1",
             "--workloads", "compress", "--no-cache"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        # Closed before the suite finishes simulating, so before any write.
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=300) == 1
        assert "Traceback" not in stderr
        assert "BrokenPipeError" not in stderr
