"""Warm equals cold under any file history: a model-based test of the cache.

A Hypothesis state machine acts on one small Java tree, one drawn
dictionary and one cache.  It edits, adds, removes and renames source
files, rewrites a file at the same size under its old mtime, replaces an
index by rename, edits the dictionary, damages, truncates and deletes
slots, and moves the clock on.  Between those steps it runs commands
through main([...]), each twice: first with no cache (XDG_CACHE_HOME and
HOME relative), then with the cache.  Both runs must give the same exit
code, stdout and index bytes.
"""

import contextlib
import io
import os
import shutil
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule, run_state_machine_as_test

from lexiscope import _snapshot
from lexiscope.cli import main
from lexiscope.extractor import _SCANNER

from test_lexicon import _dictionaries

_SOURCES = ("A.java", "B.java", "pkg/C.java", "pkg/D.java")
_INDEXES = ("a.json", "b.json")
_WORDS = ("form", "shape", "car", "sports", "nile", "run", "ran", "forms", "zork", "get")


def _camel(words, upper):
    name = "".join(word.capitalize() for word in words)
    return name if upper else name[0].lower() + name[1:]


# A file, slot or offset is picked by a drawn number, so that a replay draws
# the same data whatever files a step finds.
_picks = st.integers(0, 2**32)


def _picked(items, pick):
    return items[pick % len(items)]


_names = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3)


@st.composite
def _java(draw):
    """A small Java class over dictionary words: fields, and methods with parameters."""
    members = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            members.append(f"    int {_camel(draw(_names), False)};\n")
        else:
            parameters = ", ".join(f"int {_camel(draw(_names), False)}" for _ in range(draw(st.integers(0, 2))))
            members.append(f"    void {_camel(draw(_names), False)}({parameters}) {{ }}\n")
    return f"class {_camel(draw(_names), True)} {{\n{''.join(members)}}}\n"


_commands = st.one_of(
    st.tuples(st.just("analyze"), st.sampled_from(("tree", "tree/pkg")), st.sampled_from(_INDEXES)),
    st.tuples(st.just("stats"), st.sampled_from(_INDEXES), st.sampled_from(("table", "json", "csv"))),
    st.tuples(st.just("topwords"), st.sampled_from(_INDEXES), st.integers(1, 5)),
    st.tuples(st.just("domain"), st.booleans()),
    st.tuples(
        st.just("locate"),
        st.sampled_from(_INDEXES),
        st.lists(st.sampled_from(_WORDS), min_size=1, max_size=2).map(" ".join),
        st.integers(0, 2),
        st.sampled_from(("synonym,hypernym,hyponym", "none", "hyponym")),
    ),
)


def _tail_span(content):
    """(start, end) of a slot's tail in its bytes, or None when the tail is empty or the lengths do not fit."""
    if len(content) < 80:
        return None
    start = 72 + int.from_bytes(content[64:72], "little")
    end = len(content) - 8 - int.from_bytes(content[-8:], "little")
    return (start, end) if start < end else None


class _Clock:
    """A clock ahead of the real one by offset, and the file times _snapshot reads shifted to match.

    A file time set while the offset was o reads as its real value plus o,
    also after the clock has moved on.  So a file changed before a move
    looks older by the move, and one changed after it looks as new as it
    is: the model makes no history a real file system could not.
    """

    def __init__(self):
        self.offset = 0
        self.epochs = {}  # (dev, inode, "m" or "c", real ns) -> the offset when that time was set

    def time_ns(self):
        return time.time_ns() + self.offset

    def _shifted(self, status, which, ns):
        return ns + self.epochs.get((status.st_dev, status.st_ino, which, ns), self.offset)

    def stat(self, path):
        status = os.stat(path)
        return SimpleNamespace(
            st_mode=status.st_mode,
            st_size=status.st_size,
            st_ino=status.st_ino,
            st_dev=status.st_dev,
            st_mtime_ns=self._shifted(status, "m", status.st_mtime_ns),
            st_ctime_ns=self._shifted(status, "c", status.st_ctime_ns),
        )

    def advance(self, ns, files):
        for path in files:
            status = os.stat(path)
            for which, value in (("m", status.st_mtime_ns), ("c", status.st_ctime_ns)):
                self.epochs.setdefault((status.st_dev, status.st_ino, which, value), self.offset)
        self.offset += ns
        time.sleep(0.02)  # a later change gets a later file time, also where file times are coarse


class _ShiftedOs:
    """The os module as _snapshot sees it: stat reads the clock's file times."""

    def __init__(self, clock):
        self.stat = clock.stat

    def __getattr__(self, name):
        return getattr(os, name)


class CacheModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.work = Path(tempfile.mkdtemp(prefix="lexiscope-model-"))
        self.tree = self.work / "tree"
        self.dict = self.work / "dict"
        self.slots = self.work / "cache" / "lexiscope"
        (self.tree / "pkg").mkdir(parents=True)
        self.dict.mkdir()
        self.clock = _Clock()
        self.patch = pytest.MonkeyPatch()
        self.patch.setattr(_snapshot, "time", SimpleNamespace(time_ns=self.clock.time_ns))
        self.patch.setattr(_snapshot, "os", _ShiftedOs(self.clock))
        self.patch.setenv("HOME", "home")
        self.patch.delenv("LEXISCOPE_DICT", raising=False)

    def teardown(self):
        self.patch.undo()
        shutil.rmtree(self.work, ignore_errors=True)

    def _files(self):
        """Every file of the model but the slots: sources, dictionary and indexes."""
        return sorted(
            path for path in self.work.rglob("*") if path.is_file() and self.work / "cache" not in path.parents
        )

    def _slot_files(self):
        return sorted(self.slots.glob("*.marshal")) if self.slots.is_dir() else []

    def _sources(self):
        return sorted(path for path in self.tree.rglob("*.java"))

    def _write_dictionary(self, files, only=None):
        for name in {*files, *(path.name for path in self.dict.iterdir())}:
            if only is not None and name != only:
                continue
            path = self.dict / name
            if name in files:
                path.write_text(files[name], encoding="utf-8")
            else:
                path.unlink()

    @initialize(case=_dictionaries(), sources=st.dictionaries(st.sampled_from(_SOURCES), _java(), min_size=1))
    def start(self, case, sources):
        self._write_dictionary(case[0])
        for name, text in sources.items():
            (self.tree / name).write_text(text)
        self.run([("analyze", "tree", "a.json"), ("analyze", "tree/pkg", "b.json")])

    @rule(name=st.sampled_from(_SOURCES), text=_java())
    def write_source(self, name, text):
        (self.tree / name).write_text(text)

    @rule(pick=_picks)
    def remove_source(self, pick):
        sources = self._sources()
        if sources:
            _picked(sources, pick).unlink()

    @rule(pick=_picks, name=st.sampled_from(_SOURCES))
    def rename_source(self, pick, name):
        sources = self._sources()
        if sources:
            os.replace(_picked(sources, pick), self.tree / name)

    @rule(pick=_picks, at=_picks, letter=st.sampled_from("aefmnorsz"))
    def rewrite_at_the_same_size(self, pick, at, letter):
        """Change a letter in place and set the mtime back: only the ctime tells."""
        path = _picked(self._files(), pick)
        before = self.clock.stat(path)
        content = bytearray(path.read_bytes())
        letters = [i for i, byte in enumerate(content) if chr(byte).isalpha() and chr(byte).islower()]
        if letters:
            content[letters[at % len(letters)]] = ord(letter)
        with open(path, "r+b") as handle:
            handle.write(content)
        os.utime(path, ns=(os.stat(path).st_atime_ns, before.st_mtime_ns - self.clock.offset))
        assert self.clock.stat(path).st_mtime_ns == before.st_mtime_ns

    @rule(target_name=st.sampled_from(_INDEXES), source_name=st.sampled_from(_INDEXES))
    def replace_index(self, target_name, source_name):
        source = self.work / source_name
        if not source.is_file():
            return
        temp = self.work / "replacement.tmp"
        temp.write_bytes(source.read_bytes())
        os.replace(temp, self.work / target_name)

    @rule(case=_dictionaries(), one=st.sampled_from((False, False, True)), pick=_picks)
    def edit_dictionary(self, case, one, pick):
        """Write a newly drawn dictionary, or one file of it (which may not fit the others)."""
        files = case[0]
        self._write_dictionary(files, _picked(sorted(files), pick) if one else None)

    @rule(pick=_picks, where=st.sampled_from(("anywhere", "stamp", "tail")), at=_picks, bit=st.integers(0, 7))
    def flip_a_slot_byte(self, pick, where, at, bit):
        """Flip a bit anywhere in a slot, in its stamp, or in a tail: a dictionary shard, as only that slot has one."""
        slots = self._slot_files()
        if where == "tail":
            slots = [path for path in slots if _tail_span(path.read_bytes())] or slots
        if not slots:
            return
        path = _picked(slots, pick)
        content = bytearray(path.read_bytes())
        if not content:
            return
        start, end = 0, len(content)
        stamp = len(content) - 8 - int.from_bytes(content[-8:], "little")
        if where == "stamp" and 64 <= stamp < len(content):
            start = stamp
        elif where == "tail" and _tail_span(content):
            start, end = _tail_span(content)
        content[start + at % (end - start)] ^= 1 << bit
        with open(path, "r+b") as handle:
            handle.write(content)

    @rule(pick=_picks, keep=_picks, delete=st.booleans())
    def truncate_or_delete_a_slot(self, pick, keep, delete):
        slots = self._slot_files()
        if not slots:
            return
        path = _picked(slots, pick)
        if delete:
            path.unlink()
        else:
            os.truncate(path, keep % max(path.stat().st_size, 1))

    @rule(seconds=st.sampled_from((1, 3, 3600)))
    def advance_the_clock(self, seconds):
        self.clock.advance(seconds * 10**9, [*self._files(), Path(_SCANNER)])

    def _argv(self, command):
        dictionary = ["--dict", str(self.dict)]
        kind = command[0]
        if kind == "analyze":
            _, source, out = command
            project = "alpha" if out == "a.json" else "beta"
            return ["analyze", str(self.work / source), *dictionary, "-o", str(self.work / out), "--project", project]
        if kind == "stats":
            return ["stats", str(self.work / command[1]), "--format", command[2]]
        if kind == "topwords":
            return ["topwords", str(self.work / command[1]), "-k", str(command[2])]
        if kind == "domain":
            semantic = ["--semantic", *dictionary] if command[1] else []
            return ["domain", *(str(self.work / name) for name in _INDEXES), "-k", "5", *semantic]
        _, index, phrase, depth, relations = command
        return ["locate", str(self.work / index), phrase, *dictionary, "--depth", str(depth), "--relations", relations]

    def _run(self, argv, cache):
        self.patch.setenv("XDG_CACHE_HOME", str(self.work / "cache") if cache else "cache")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        indexes = [(self.work / name).read_bytes() if (self.work / name).is_file() else None for name in _INDEXES]
        return code, out.getvalue(), indexes

    @rule(commands=st.lists(_commands, min_size=1, max_size=4))
    def run(self, commands):
        for command in commands:
            argv = self._argv(command)
            # Cold first: the files and slots the cached run leaves are what the next step sees.
            cold = self._run(argv, cache=False)
            warm = self._run(argv, cache=True)
            assert warm == cold, argv

    @invariant()
    def no_write_leaves_a_temporary_file(self):
        assert list(self.slots.glob("*.tmp")) == []


TestCacheModel = CacheModel.TestCase
TestCacheModel.settings = settings(
    max_examples=20,
    stateful_step_count=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large, HealthCheck.filter_too_much],
)


if __name__ == "__main__":
    # The long profile, for a change to a slot: PYTHONPATH=src python tests/test_cache_model.py
    run_state_machine_as_test(
        CacheModel,
        settings=settings(TestCacheModel.settings, max_examples=1000, stateful_step_count=40, database=None),
    )
