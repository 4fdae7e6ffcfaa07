"""Real faults at the persistent cache's seams.

A store whose ``fsync`` fails stands in for a writer that dies
mid-write (full disk, I/O error); bytes scribbled over an entry stand
in for on-disk rot.  The suite-level twins are in ``test_chaos.py``.
"""

from __future__ import annotations

import logging
import os

import pytest

from repro.harness.cache import ResultCache
from repro.harness.runner import SuiteConfig


def _raise_enospc(fd):
    raise OSError(28, "No space left on device")


@pytest.fixture
def failing_fsync(monkeypatch):
    """Every ``os.fsync`` raises, as on a full disk."""
    monkeypatch.setattr(os, "fsync", _raise_enospc)


class TestCacheFaultSites:
    def test_torn_write_leaves_previous_entry_intact(self, tmp_path, monkeypatch):
        """A writer killed mid-write can never tear an entry."""
        cache = ResultCache(tmp_path)
        config = SuiteConfig()
        cache.store("go", config, {"generation": 1})
        with monkeypatch.context() as patch:
            patch.setattr(os, "fsync", _raise_enospc)
            with pytest.raises(OSError, match="No space left"):
                cache.store("go", config, {"generation": 2})
        # The old entry survives untouched and no temp files leak.
        assert cache.load("go", config) == {"generation": 1}
        assert list(tmp_path.glob("*.tmp")) == []

    def test_torn_first_write_leaves_no_entry(self, tmp_path, caplog, failing_fsync):
        cache = ResultCache(tmp_path)
        config = SuiteConfig()
        with pytest.raises(OSError, match="No space left"):
            cache.store("go", config, {"generation": 1})
        with caplog.at_level(logging.WARNING, logger="repro.harness.cache"):
            assert cache.load("go", config) is None
        assert list(tmp_path.glob("*")) == []
        # A clean miss, not a corrupt eviction.
        assert not caplog.records

    def test_corrupt_store_is_evicted_on_load(self, tmp_path, caplog):
        cache = ResultCache(tmp_path)
        config = SuiteConfig()
        cache.store("go", config, {"generation": 1})
        path = cache.path_for("go", config)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2] + b"\xde\xad")
        with caplog.at_level(logging.WARNING, logger="repro.harness.cache"):
            assert cache.load("go", config) is None  # scribbled -> miss
        evictions = [r for r in caplog.records if "corrupt result-cache entry" in r.message]
        assert len(evictions) == 1
        assert not path.exists()  # evicted
