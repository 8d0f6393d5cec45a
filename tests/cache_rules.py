"""The cache rules every slot shares, written once.

TestSnapshot (tests/test_lexicon.py), TestSlot (tests/test_index.py) and
TestScanSlot (tests/test_extractor.py) each run them for their slot: where
a slot is, when none is written, when a stat signature is trusted, and
which slots a write sweeps away.
"""

import os
import shutil
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import pytest

from lexiscope import _snapshot
from lexiscope._snapshot import slot_path


def _parsed(load, source):
    """What load gives with no cache at all, from a parse."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", "cache")
        patch.setenv("HOME", "home")
        return load(source)


def _no_hash(path):
    raise AssertionError(f"hashed {path}")


def _signature(status):
    return status.st_size, status.st_mtime_ns, status.st_ino, status.st_dev


class CacheRules:
    """Set kind (the slot kind), load (the loader, as a staticmethod), source (a source it reads)
    and edit (a file of the source, relative to it, and a same-length replacement that loads).
    """

    def _copy(self, tmp_path, name="copy"):
        """A copy of source, with the source's mtimes."""
        target = tmp_path / name
        (shutil.copytree if self.source.is_dir() else shutil.copy2)(self.source, target)
        return target

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

    def test_edit_inside_the_racy_window_is_seen(self, tmp_path, slots):
        source = self._copy(tmp_path)
        original = self.load(source)
        name, old, new = self.edit
        edited = source / name
        before = edited.stat()
        edited.write_bytes(edited.read_bytes().replace(old, new, 1))
        os.utime(edited, ns=(before.st_atime_ns, before.st_mtime_ns))
        # The stamp's signature still holds; the file's ctime, inside the
        # window, is what sends the load to hash it.
        assert _signature(edited.stat()) == _signature(before)
        reloaded = self.load(source)
        assert reloaded == _parsed(self.load, source) != original
        assert list(slots.iterdir()) == [slot_path(self.kind, source)]

    def test_settled_source_is_read_without_hashing(self, tmp_path, slots, monkeypatch):
        source = self._copy(tmp_path)
        copied = time.time_ns()
        clock = SimpleNamespace(time_ns=lambda: copied)
        monkeypatch.setattr(_snapshot, "time", clock)
        expected = self.load(source)  # stamped as the copy was made, inside the window of its ctime
        [slot] = slots.iterdir()
        stamped = slot.read_bytes()
        clock.time_ns = lambda: copied + 3600 * 10**9
        with monkeypatch.context() as patch:
            patch.setattr(_snapshot, "file_digest", _no_hash)
            with pytest.raises(AssertionError, match="hashed"):
                self.load(source)
        # An hour on, a hashed read finds every file settled and stamps the slot again ...
        assert self.load(source) == expected
        assert slot.read_bytes() != stamped
        # ... so the next read trusts the stat and hashes no source byte.
        with monkeypatch.context() as patch:
            patch.setattr(_snapshot, "file_digest", _no_hash)
            assert self.load(source) == expected
        assert list(slots.iterdir()) == [slot]
        # An edit, settled too by the clock, shows in the file's signature.
        name, old, new = self.edit
        edited = source / name
        edited.write_bytes(edited.read_bytes().replace(old, new, 1))
        assert self.load(source) == _parsed(self.load, source) != expected

    def test_only_a_file_whose_stamp_no_longer_holds_is_hashed(self, tmp_path, slots, monkeypatch):
        source = self._copy(tmp_path)
        clock = SimpleNamespace(time_ns=lambda: time.time_ns() + 3600 * 10**9)
        monkeypatch.setattr(_snapshot, "time", clock)
        expected = self.load(source)  # an hour on: every file of the copy is settled
        name, old, new = self.edit
        edited = source / name
        edited.write_bytes(edited.read_bytes().replace(old, new, 1))
        hashed = []
        digest = _snapshot.file_digest

        def counted(path):
            hashed.append(Path(path))
            return digest(path)

        with monkeypatch.context() as patch:
            patch.setattr(_snapshot, "file_digest", counted)
            reloaded = self.load(source)
        assert reloaded == _parsed(self.load, source) != expected
        # The edited file is hashed; every other file of the source keeps its stamped sha256.
        inside = [path for path in hashed if path == source or source in path.parents]
        assert inside == [edited]

    def test_slot_of_a_deleted_source_is_swept_by_the_next_write(self, tmp_path, slots):
        first, second, third = (self._copy(tmp_path, name) for name in ("first", "second", "third"))
        for source in (first, second):
            self.load(source)
        (shutil.rmtree if first.is_dir() else os.unlink)(first)
        assert len(list(slots.iterdir())) == 2
        self.load(third)
        assert sorted(slots.iterdir()) == sorted(slot_path(self.kind, path) for path in (second, third))

    def test_write_removes_legacy_snapshots_and_slots_without_a_stamp(self, slots):
        slots.mkdir(parents=True)
        legacy = slots / f"{'0' * 64}.marshal"
        stampless = slots / f"{self.kind}-{'1' * 64}.marshal"
        other_kind = slots / f"{'index' if self.kind == 'lexicon' else 'lexicon'}-{'2' * 64}.marshal"
        kept = [other_kind, slots / "notes.txt", slots / f"{'3' * 63}.marshal"]
        for path in (legacy, stampless, *kept):
            path.write_bytes(b"\0" * 100)
        expected = _parsed(self.load, self.source)
        assert self.load(self.source) == expected
        assert sorted(slots.iterdir()) == sorted([slot_path(self.kind, self.source), *kept])
