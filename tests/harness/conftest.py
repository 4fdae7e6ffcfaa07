"""Shared fixtures for the harness tests."""

from __future__ import annotations

import pytest

from repro.harness import runner


@pytest.fixture
def isolated_runner():
    """An empty in-memory result cache and no disk cache, restored after.

    A test that faults, times or counts a workload's run must not be
    served a result an earlier test left in the process-wide cache.
    """
    saved = dict(runner._CACHE)
    runner._CACHE.clear()
    previous_dir = runner.cache_directory()
    runner.set_cache_dir(None)
    try:
        yield
    finally:
        runner.set_cache_dir(previous_dir)
        runner._CACHE.clear()
        runner._CACHE.update(saved)
