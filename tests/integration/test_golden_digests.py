"""Golden result digests: every workload's :func:`result_digest`, from the
session's suite runs, must equal ``tests/golden/result_digests.json``.

The golden tables pin what the experiments render; the digest also pins
report fields no table shows (``run.output``, reuse-buffer occupancy,
trace rejection counts, ...).  An intended change means replacing the
file's mapping with the one the failure message prints and saying why.

``result_digests_small_geometry.json`` pins ``compress`` and ``li`` at a
small geometry (:data:`SMALL_GEOMETRY`), where the rarely taken branches
run all the time: a full repetition buffer, reuse-buffer and trace-table
LRU eviction, and ``too-long`` trace splits.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.harness import SuiteConfig, result_digest, run_suite

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"
GOLDEN = GOLDEN_DIR / "result_digests.json"
GOLDEN_SMALL = GOLDEN_DIR / "result_digests_small_geometry.json"

SMALL_GEOMETRY = dict(
    buffer_capacity=64,
    reuse_entries=256,
    reuse_associativity=2,
    trace_capacity=64,
    trace_ways=2,
    trace_max_len=4,
)


@pytest.mark.parametrize(
    "input_kind, fixture",
    [("primary", "suite_results"), ("secondary", "secondary_results")],
)
def test_result_digests_match_golden(input_kind, fixture, request):
    results = request.getfixturevalue(fixture)
    digests = {name: result_digest(result) for name, result in results.items()}
    expected = json.loads(GOLDEN.read_text())[input_kind]
    assert digests == expected, (
        f"{input_kind} digests changed; new mapping:\n"
        + json.dumps(digests, indent=2)
    )


@pytest.mark.parametrize("input_kind", ["primary", "secondary"])
def test_small_geometry_digests_match_golden(input_kind):
    config = SuiteConfig(input_kind=input_kind, **SMALL_GEOMETRY)
    results = run_suite(config, names=["compress", "li"])
    digests = {name: result_digest(result) for name, result in results.items()}
    expected = json.loads(GOLDEN_SMALL.read_text())[input_kind]
    assert digests == expected, (
        f"{input_kind} small-geometry digests changed; new mapping:\n"
        + json.dumps(digests, indent=2)
    )
