"""Smoke tests for the scripts under ``examples/``.

Each example runs as its own process, the way a reader would start it,
on the small ``compress`` workload where it takes one.  All five start
together and each test waits for its own, so the file costs about as
long as the slowest example rather than the sum of all five.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

EXAMPLES = {
    "quickstart.py": ([], "dynamic instructions :"),
    "compiler_explorer.py": ([], "--- execution "),
    "custom_analysis.py": (["compress"], "repetition by instruction type for 'compress':"),
    "reuse_buffer_sweep.py": (["compress"], "   8192x4"),
    "workload_report.py": (["compress"], "-- reuse buffer, 8K 4-way (Table 10) --"),
}


@pytest.fixture(scope="module")
def example_processes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    processes = {
        script: subprocess.Popen(
            [sys.executable, str(ROOT / "examples" / script), *args],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for script, (args, _) in EXAMPLES.items()
    }
    yield processes
    for process in processes.values():
        if process.poll() is None:
            process.kill()
            process.communicate()


def test_every_example_is_listed():
    assert sorted(p.name for p in (ROOT / "examples").glob("*.py")) == sorted(EXAMPLES)


@pytest.mark.parametrize("script", sorted(EXAMPLES))
def test_example_runs(script, example_processes):
    out, err = example_processes[script].communicate(timeout=120)
    assert example_processes[script].returncode == 0, err
    assert EXAMPLES[script][1] in out
