"""Tests for the benchmark's own checks.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402


@pytest.fixture(scope="module")
def prepared(tmp_path_factory):
    """The ``cc_run`` inputs, written once for the module."""
    scratch = tmp_path_factory.mktemp("bench")
    return scratch, bench.Bench(ROOT, scratch).prepare()


def test_seed_orders_the_input_sets():
    assert bench.input_order(0) == ("primary", "secondary")
    assert bench.input_order(7) == ("secondary", "primary")


def test_recorded_outputs_exist_for_every_request_and_input_set():
    for kind in ("primary", "secondary"):
        names = sorted(path.name for path in (bench.EXPECTED / kind).iterdir())
        assert "suite.txt" in names
        assert len([n for n in names if n.startswith("cc_")]) == 8


def test_suite_header_time_is_masked_and_count_read():
    text = "# suite: 8 workloads, 1,775,069 instructions, 31.4s\n\n== T1 ==\n"
    masked, count = bench.normalize_suite(text)
    assert masked == "# suite: 8 workloads, 1,775,069 instructions, <T>s\n\n== T1 ==\n"
    assert count == 1775069


@pytest.mark.parametrize("kind", ["primary", "secondary"])
def test_cc_request_passes_against_its_recorded_output(prepared, kind):
    scratch, info = prepared
    outcome = bench.Bench(ROOT, scratch).cc_request("go", info["programs"]["go"], kind)
    assert outcome.error is None
    assert outcome.instructions > 0


def test_corrupted_expected_output_is_a_failure(prepared, tmp_path):
    scratch, info = prepared
    corrupted = tmp_path / "expected"
    shutil.copytree(bench.EXPECTED, corrupted)
    path = corrupted / "primary" / "cc_go.txt"
    text = path.read_text()
    # One changed digit in the program's output.
    index = next(i for i, ch in enumerate(text) if ch.isdigit())
    path.write_text(text[:index] + str((int(text[index]) + 1) % 10) + text[index + 1:])
    runner = bench.Bench(ROOT, scratch, expected=corrupted)
    program = info["programs"]["go"]
    outcomes = [runner.cc_request("go", program, "primary")]
    path.unlink()
    outcomes.append(runner.cc_request("go", program, "primary"))
    assert "differs" in outcomes[0].error
    assert "no expected output" in outcomes[1].error
    values, detail = bench.measure(lambda kind: outcomes, ("primary", "secondary"), seconds=0)
    assert (detail["attempted"], detail["failed"]) == (4, 4)
    assert detail["error_rate"] == 1.0


def test_nonzero_exit_is_a_failure():
    sample = bench.Sample(1.0, 1.0, 10.0, 3, "", "boom")
    assert "exit code 3" in bench.judge(sample, "x", "x", "req")


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        spec["command"] + ["--workload", "cc_run", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
