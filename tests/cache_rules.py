"""The cache rules both loaders share, written once.

TestSnapshot (tests/test_lexicon.py) and TestSlot (tests/test_index.py)
each run them for their loader: where a slot is, and when none is written.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from lexiscope._snapshot import slot_path


def _parsed(load, source):
    """What load gives with no cache at all, from a parse."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", "cache")
        patch.setenv("HOME", "home")
        return load(source)


class CacheRules:
    """Set kind (the slot kind), load (the loader, as a staticmethod) and source (a source it reads)."""

    @pytest.mark.parametrize("home", ["absolute", "relative"])
    def test_relative_cache_home_is_not_used(self, tmp_path, monkeypatch, home):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        monkeypatch.setenv("XDG_CACHE_HOME", "cache")
        monkeypatch.setenv("HOME", str(tmp_path / "home") if home == "absolute" else "home")
        expected = _parsed(self.load, self.source)
        for _ in range(2):
            assert self.load(self.source) == expected
        written = [p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()]
        if home == "absolute":
            assert written == [f"home/.cache/lexiscope/{slot_path(self.kind, self.source).name}"]
        else:
            assert written == []

    @pytest.mark.parametrize("blocked", ["cache", "cache/lexiscope"])
    def test_cache_path_that_is_a_file_is_skipped(self, tmp_path, monkeypatch, blocked):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        (tmp_path / blocked).parent.mkdir(exist_ok=True)
        (tmp_path / blocked).write_text("not a directory")
        expected = _parsed(self.load, self.source)
        for _ in range(2):
            assert self.load(self.source) == expected
        assert (tmp_path / blocked).read_text() == "not a directory"
        assert [p.name for p in (tmp_path / blocked).parent.iterdir()] == [Path(blocked).name]

    def test_read_only_cache_directory_is_skipped(self, slots):
        slots.parent.mkdir()
        slots.mkdir(mode=0o500)
        expected = _parsed(self.load, self.source)
        try:
            for _ in range(2):
                assert self.load(self.source) == expected
            if os.geteuid() != 0:  # root writes through the mode
                assert list(slots.iterdir()) == []
        finally:
            slots.chmod(0o700)

    def test_concurrent_first_loads_leave_one_snapshot(self, slots):
        expected = _parsed(self.load, self.source)
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(self.load, self.source) for _ in range(8)]
            loaded = [future.result(timeout=60) for future in futures]
        assert all(result == expected for result in loaded)
        assert list(slots.iterdir()) == [slot_path(self.kind, self.source)]
        assert self.load(self.source) == expected
