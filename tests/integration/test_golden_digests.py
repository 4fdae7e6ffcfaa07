"""Golden result digests: every workload's :func:`result_digest`, from the
session's suite runs, must equal ``tests/golden/result_digests.json``.

The golden tables pin what the experiments render; the digest also pins
report fields no table shows (``run.output``, reuse-buffer occupancy,
trace rejection counts, ...).  An intended change means replacing the
file's mapping with the one the failure message prints and saying why.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.harness import result_digest

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "result_digests.json"


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
