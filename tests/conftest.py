"""Shared fixtures.

The full suite run is expensive (~35 s per input set with every analyzer
attached), so it is session-scoped and shared by all shape, integration
and golden-table tests, and the harness-level cache makes repeated
requests free.
"""

from __future__ import annotations

import pytest

from repro.harness import SuiteConfig, run_suite


@pytest.fixture(scope="session")
def suite_results():
    """Full eight-workload suite at scale 1 with the paper configuration."""
    return run_suite(SuiteConfig(scale=1))


@pytest.fixture(scope="session")
def secondary_results():
    """The paper's input-sensitivity check: a second input set."""
    return run_suite(SuiteConfig(scale=1, input_kind="secondary"))
