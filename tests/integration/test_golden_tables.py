"""Golden tables: every experiment, rendered from the session's suite
runs, must equal the recorded ``repro-run --all`` output that the
benchmark checks against (``perfbench/expected/<input>/suite.txt``).

This pins every EXPERIMENTS.md number by value, not only by shape.  The
files are read, never written: an intended change to a number means
re-recording them with ``perfbench/record_expected.py`` and saying why.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.harness.experiments import EXPERIMENT_ORDER, EXPERIMENTS

EXPECTED = Path(__file__).resolve().parents[2] / "perfbench" / "expected"


def render_suite(results) -> str:
    """``repro-run --all`` stdout with the wall-clock time masked as ``<T>``."""
    total = sum(result.run.analyzed_instructions for result in results.values())
    parts = [f"# suite: {len(results)} workloads, {total:,} instructions, <T>s\n\n"]
    for exp_id in EXPERIMENT_ORDER:
        exp = EXPERIMENTS[exp_id]
        parts.append(f"== {exp.paper_ref}: {exp.title} [{exp_id}] ==\n")
        parts.append(f"{exp.render(results)}\n\n")
    return "".join(parts)


@pytest.mark.parametrize(
    "input_kind, fixture",
    [("primary", "suite_results"), ("secondary", "secondary_results")],
)
def test_rendered_tables_match_recorded_output(input_kind, fixture, request):
    results = request.getfixturevalue(fixture)
    expected = (EXPECTED / input_kind / "suite.txt").read_text()
    assert render_suite(results) == expected
