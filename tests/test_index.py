import copy
import dataclasses
import enum
import errno
import hashlib
import json
import marshal
import os
import pickle
import shutil
import stat
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from itertools import chain
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lexiscope.index as index_module
from lexiscope._snapshot import _open_slot, content_key, slot_path
from lexiscope.cli import main
from lexiscope.extractor import KINDS, SchemaError, SourceNode, extract_project, ingest_nodes
from lexiscope.index import FORMAT_VERSION, InvalidIndexError, ProjectIndex, load_index, save_index
from lexiscope.lexicon import PosTag
from lexiscope.locator import _candidate_postings
from lexiscope.vocabulary import ProjectVocabulary, VocabularyEntry, build_vocabulary, default_stoplist

from cache_rules import CacheRules
from conftest import FIXTURES, MINICORPUS, MINIDICT
from test_locator import _node_trees


@pytest.fixture
def sample_index(lexicon):
    nodes, file_count = extract_project(MINICORPUS)
    vocabulary = build_vocabulary(
        nodes, lexicon, default_stoplist(), project_name="minicorpus", file_count=file_count
    )
    return ProjectIndex(nodes, vocabulary)


class TestRoundTrip:
    def test_save_load_identity(self, sample_index, tmp_path):
        path = tmp_path / "index.json"
        save_index(sample_index, path)
        loaded = load_index(path)
        assert loaded.nodes == sample_index.nodes
        assert loaded.vocabulary == sample_index.vocabulary

    def test_save_is_byte_deterministic(self, sample_index, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_index(sample_index, first)
        save_index(sample_index, second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("failure", [OSError(errno.ENOSPC, "No space left on device"), KeyboardInterrupt()],
                             ids=["disk-full", "interrupted"])
    def test_failed_write_leaves_the_previous_index(self, sample_index, tmp_path, monkeypatch, failure):
        path = tmp_path / "index.json"
        path.write_text("previous")

        class HalfWritten:
            """A text file whose write stores half its text, then raises."""

            def __init__(self, *args, **kwargs):
                self.file = open(*args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.file.close()

            def write(self, text):
                self.file.write(text[: len(text) // 2])
                self.file.flush()
                raise failure

        monkeypatch.setattr(index_module, "open", HalfWritten, raising=False)
        with pytest.raises(type(failure)):
            save_index(sample_index, path)
        assert path.read_text() == "previous"
        assert [p.name for p in tmp_path.iterdir()] == ["index.json"]

    def test_saved_file_has_the_mode_of_a_new_file(self, sample_index, tmp_path):
        umask = os.umask(0o027)
        try:
            (tmp_path / "plain.txt").write_text("")
            save_index(sample_index, tmp_path / "index.json")
        finally:
            os.umask(umask)
        modes = {stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("plain.txt", "index.json")}
        assert modes == {0o640}

    def test_replaced_file_keeps_its_mode_and_owner(self, sample_index, tmp_path):
        path = tmp_path / "index.json"
        path.write_text("previous")
        path.chmod(0o600)
        owner = (12345, 12345) if os.geteuid() == 0 else (os.getuid(), os.getgid())
        if os.geteuid() == 0:
            os.chown(path, *owner)
        save_index(sample_index, path)
        status = path.stat()
        assert stat.S_IMODE(status.st_mode) == 0o600
        assert (status.st_uid, status.st_gid) == owner
        assert load_index(path) == sample_index
        assert [p.name for p in tmp_path.iterdir()] == ["index.json"]

    def test_pipe_at_the_target_is_written_through(self, sample_index, tmp_path):
        path = tmp_path / "index.json"
        os.mkfifo(path)
        # Both ends are open before the save, so neither waits for the
        # other, and the reader sees the end once the save and hold close.
        hold = os.open(path, os.O_RDWR)
        read_end = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        os.set_blocking(read_end, True)

        def drain():
            with open(read_end, "rb") as handle:
                return handle.read()

        with ThreadPoolExecutor(max_workers=1) as pool:
            received = pool.submit(drain)
            try:
                save_index(sample_index, path)
            finally:
                os.close(hold)
            document = received.result(timeout=60)
        assert stat.S_ISFIFO(os.lstat(path).st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["index.json"]
        copy = tmp_path / "copy.json"
        save_index(sample_index, copy)
        assert document == copy.read_bytes()

    @pytest.mark.parametrize("other_name", ["symlink", "hard-link"])
    def test_file_with_another_name_is_written_through(self, sample_index, tmp_path, other_name):
        target = tmp_path / "target.json"
        target.write_text("previous")
        path = tmp_path / "index.json"
        if other_name == "symlink":
            path.symlink_to(target)
        else:
            os.link(target, path)
        save_index(sample_index, path)
        assert path.is_symlink() == (other_name == "symlink")
        assert os.path.samefile(path, target)
        assert load_index(target) == sample_index
        assert sorted(p.name for p in tmp_path.iterdir()) == ["index.json", "target.json"]

    def test_file_in_a_read_only_directory_is_written_in_place(self, sample_index, tmp_path, monkeypatch):
        directory = tmp_path / "read-only"
        directory.mkdir()
        path = directory / "index.json"
        path.write_text("previous")
        directory.chmod(0o500)
        if os.geteuid() == 0:  # root makes files through the mode; refuse as the mode would
            make = os.open

            def refused(name, flags, *args):
                if flags & os.O_CREAT and Path(name).parent == directory:
                    raise PermissionError(errno.EACCES, "Permission denied", str(name))
                return make(name, flags, *args)

            monkeypatch.setattr(os, "open", refused)
        try:
            save_index(sample_index, path)
        finally:
            directory.chmod(0o700)
        assert load_index(path) == sample_index
        assert [p.name for p in directory.iterdir()] == ["index.json"]


def _node(node_id, kind, name, parent):
    return {"id": node_id, "kind": kind, "name": name, "file": "a.java", "line": 2, "parent": parent}


def _write_document(tmp_path, mutate):
    document = {
        "formatVersion": 1,
        "projectName": "p",
        "fileCount": 1,
        "nodes": [
            {"id": 0, "kind": "class", "name": "Car", "file": "a.java", "line": 1, "parent": None}
        ],
        "vocabulary": [
            {
                "word": "car",
                "recognized": True,
                "pos": "noun",
                "total": 1,
                "counts": {"class": 1, "method": 0, "parameter": 0, "field": 0},
            }
        ],
    }
    mutate(document)
    path = tmp_path / "index.json"
    path.write_text(json.dumps(document))
    return path


# One mutation of a valid document per rule that load_index enforces.
_INVALID_DOCUMENTS = {
    "bad-version": lambda d: d.update(formatVersion=2),
    "missing-nodes": lambda d: d.pop("nodes"),
    "non-dense-ids": lambda d: d["nodes"][0].update(id=5),
    "bad-kind": lambda d: d["nodes"][0].update(kind="module"),
    "bad-name": lambda d: d["nodes"][0].update(name="not valid!"),
    "forward-parent": lambda d: d["nodes"][0].update(parent=0),
    "total-mismatch": lambda d: d["vocabulary"][0].update(total=7),
    "recognized-without-pos": lambda d: d["vocabulary"][0].update(pos=None),
    "unknown-pos": lambda d: d["vocabulary"][0].update(pos="article"),
    "missing-counts": lambda d: d["vocabulary"][0].pop("counts"),
    "duplicate-word": lambda d: d["vocabulary"].append(dict(d["vocabulary"][0])),
    "parentless-field": lambda d: d["nodes"][0].update(kind="field"),
    "parameter-under-field": lambda d: d["nodes"].extend(
        [_node(1, "field", "wheels", 0), _node(2, "parameter", "speed", 1)]
    ),
    "method-under-method": lambda d: d["nodes"].extend(
        [_node(1, "method", "drive", 0), _node(2, "method", "steer", 1)]
    ),
    "empty-file": lambda d: d["nodes"][0].update(file=""),
    "boolean-line": lambda d: d["nodes"][0].update(line=True),
    "boolean-file-count": lambda d: d.update(fileCount=True),
    "boolean-total": lambda d: d["vocabulary"][0].update(total=True),
    "boolean-id": lambda d: d["nodes"].append(_node(True, "method", "drive", 0)),
    "capitalized-pos": lambda d: d["vocabulary"][0].update(pos="Noun"),
    "upper-case-pos": lambda d: d["vocabulary"][0].update(pos="NOUN"),
    "int-pos": lambda d: d["vocabulary"][0].update(pos=1),
    "list-pos": lambda d: d["vocabulary"][0].update(pos=["noun"]),
    "bool-format-version": lambda d: d.update(formatVersion=True),
    "float-format-version": lambda d: d.update(formatVersion=1.0),
}


class TestValidation:
    def test_valid_document_loads(self, tmp_path):
        path = _write_document(tmp_path, lambda d: None)
        index = load_index(path)
        assert index.nodes[0].name == "Car"
        assert list(index.vocabulary.entries) == ["car"]

    @pytest.mark.parametrize("mutate", list(_INVALID_DOCUMENTS.values()), ids=list(_INVALID_DOCUMENTS))
    def test_invalid_documents_rejected(self, tmp_path, mutate):
        path = _write_document(tmp_path, mutate)
        with pytest.raises(InvalidIndexError):
            load_index(path)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(InvalidIndexError):
            load_index(tmp_path / "missing.json")

    def test_not_json(self, tmp_path):
        path = tmp_path / "index.json"
        path.write_text("not json at all")
        with pytest.raises(InvalidIndexError):
            load_index(path)


_ODD_VALUES = (None, True, False, "", "not valid!", "module", -1, 0, 1, 5, 2.5, "1")


@st.composite
def _node_records(draw):
    """A well-formed node-record list, then at most one field set to an odd value."""
    records = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(KINDS))
        required = "method" if kind == "parameter" else "class"
        parents = [position for position, r in enumerate(records) if r["kind"] == required]
        if not parents or kind == "class" and draw(st.booleans()):
            kind, parent = "class", None
        else:
            parent = draw(st.sampled_from(parents))
        name = draw(st.sampled_from(("Car", "drive")))
        line = draw(st.integers(1, 9))
        records.append({"kind": kind, "name": name, "file": "a.java", "line": line, "parent": parent})
    if records and draw(st.booleans()):
        record = draw(st.sampled_from(records))
        field = draw(st.sampled_from(("kind", "name", "file", "line", "parent")))
        record[field] = draw(st.sampled_from(_ODD_VALUES))
    return records


@given(_node_records())
def test_index_load_and_jsonl_ingest_agree(tmp_path_factory, records):
    try:
        expected = ingest_nodes(json.dumps(record) for record in records)
    except SchemaError:
        expected = None
    document = {
        "formatVersion": 1,
        "projectName": "p",
        "fileCount": 1,
        "nodes": [{"id": position, **record} for position, record in enumerate(records)],
        "vocabulary": [],
    }
    path = tmp_path_factory.getbasetemp() / "agree.json"
    path.write_text(json.dumps(document))
    try:
        loaded = load_index(path).nodes
    except InvalidIndexError:
        loaded = None
    assert loaded == expected


def _reference_bytes(index):
    """The index as the json module's encoder writes it: the writer's oracle."""
    vocabulary = index.vocabulary
    document = {
        "formatVersion": FORMAT_VERSION,
        "projectName": vocabulary.project_name,
        "fileCount": vocabulary.file_count,
        "nodes": [
            {
                "id": node.id,
                "kind": node.kind,
                "name": node.name,
                "file": node.file_path,
                "line": node.line,
                "parent": node.parent_id,
            }
            for node in index.nodes
        ],
        "vocabulary": [
            {
                "word": entry.word,
                "recognized": entry.recognized,
                "pos": str(entry.pos) if entry.pos is not None else None,
                "total": entry.total,
                "counts": {kind: entry.counts_by_kind.get(kind, 0) for kind in KINDS},
            }
            for entry in sorted(vocabulary.entries.values(), key=lambda e: e.word)
        ],
    }
    return (json.dumps(document, indent=2) + "\n").encode("utf-8")


# Text with non-ASCII, control characters, quotes, backslashes and the
# line and paragraph separators, which the encoder must escape.
_awkward_text = st.text(
    st.sampled_from(["a", "Z", "_", "/", " ", "é", "日", "\U0001f600", '"', "\\", "\n", "\t",
                     "\x00", "\x1f", "\x7f", "\u2028", "\u2029", "\ud800"])
    | st.characters(),
    max_size=8,
)
_counts = st.integers(0, 10**12)


@st.composite
def _indexes(draw):
    files = draw(st.lists(_awkward_text.filter(bool), min_size=1, max_size=3))
    nodes = []
    for node_id in range(draw(st.integers(0, 8))):
        parent = draw(st.none() | st.integers(0, max(0, node_id - 1)))
        nodes.append(SourceNode(
            node_id,
            draw(st.sampled_from(KINDS)),
            draw(st.sampled_from(("Car", "drive", "$x", "_y1"))),
            draw(st.sampled_from(files)),
            draw(st.integers(1, 10**9)),
            parent,
        ))
    vocabulary = ProjectVocabulary(draw(_awkward_text), draw(_counts))
    for word in draw(st.lists(_awkward_text.filter(bool), max_size=4, unique=True)):
        by_kind = draw(st.dictionaries(st.sampled_from(KINDS), _counts))
        vocabulary.entries[word] = VocabularyEntry(
            word,
            draw(st.booleans()),
            draw(st.none() | st.sampled_from(list(PosTag))),
            draw(_counts),
            by_kind,
        )
    return ProjectIndex(nodes, vocabulary)


class _RenamedNode(SourceNode):
    """A node whose name, which save_index writes, is not the name it holds."""

    name = property(lambda self: "Other")


def _index_of(nodes, entries, project_name="p"):
    return ProjectIndex(nodes, ProjectVocabulary(project_name, 2, {entry.word: entry for entry in entries}))


# Quotes, a backslash, control characters, a line separator, non-ASCII and
# astral characters and a lone surrogate: each is escaped.
_AWKWARD = 'q"\\/\n\t\x00\x7f\u2028é日\U0001f600\ud800'

# The writer fills each list's layout with one %: the cases it renders apart.
_DOCUMENTS = {
    "empty-lists": _index_of([], []),
    "parent-null": _index_of(
        [
            SourceNode(0, "class", "Car", "Car.java", 1, None),
            SourceNode(1, "method", "drive", "Car.java", 2, 0),
            SourceNode(2, "parameter", "speed", "Car.java", 2, 1),
            SourceNode(3, "class", "Bus", "Bus.java", 1, None),
            SourceNode(4, "field", "wheels", "Bus.java", 2, 3),
        ],
        [VocabularyEntry("car", True, PosTag.NOUN, 1, {"class": 1, "method": 0, "parameter": 0, "field": 0})],
    ),
    "escaped-and-non-ascii": _index_of(
        [SourceNode(0, "class", "Café", f"{_AWKWARD}/日本.java", 1, None)],
        [VocabularyEntry(_AWKWARD, True, PosTag.VERB, 3, {"class": 1, "method": 2, "parameter": 0, "field": 0})],
        project_name=_AWKWARD,
    ),
    "node-read-by-attribute": _index_of([_RenamedNode(0, "class", "Car", "Car.java", 1, None)], []),
    "entry-without-pos": _index_of(
        [],
        [
            VocabularyEntry("zork", False, None, 1, {"class": 0, "method": 0, "parameter": 0, "field": 1}),
            VocabularyEntry("fast", True, PosTag.ADJECTIVE, 4, {"class": 0, "method": 4, "parameter": 0, "field": 0}),
            VocabularyEntry("soon", True, PosTag.ADVERB, 1, {"class": 1}),  # a missing count writes 0
        ],
    ),
}


@settings(max_examples=150, deadline=None)
@given(_indexes())
@example(index=_DOCUMENTS["empty-lists"])
@example(index=_DOCUMENTS["parent-null"])
@example(index=_DOCUMENTS["escaped-and-non-ascii"])
@example(index=_DOCUMENTS["node-read-by-attribute"])
@example(index=_DOCUMENTS["entry-without-pos"])
def test_save_writes_the_json_encoders_bytes(tmp_path_factory, index):
    path = tmp_path_factory.getbasetemp() / "writer.json"
    save_index(index, path)
    assert path.read_bytes() == _reference_bytes(index)


# --- the index slot --------------------------------------------------------


def _parsed(path):
    """The unchanged parse of the file at path, as a load without a slot gives it."""
    return index_module._index_from_document(json.loads(Path(path).read_text(encoding="utf-8")), path)


@contextmanager
def _no_parse():
    with mock.patch.object(index_module, "_index_from_document", side_effect=AssertionError("parsed")):
        yield


def _typed_values(index):
    """Every value of the index in order, each with its type, so that 1 and True differ."""
    vocabulary = index.vocabulary
    values = [vocabulary.project_name, vocabulary.file_count, *chain.from_iterable(index.nodes)]
    for word, entry in vocabulary.entries.items():
        values += [word, entry.word, entry.recognized, entry.pos, entry.total]
        values += chain(*entry.counts_by_kind.items())
    return [(type(value), value) for value in values]


def _assert_same_index(loaded, parsed):
    assert _typed_values(loaded) == _typed_values(parsed)
    assert loaded.nodes == parsed.nodes
    assert all(type(node) is SourceNode for node in loaded.nodes)
    assert loaded.vocabulary == parsed.vocabulary
    entries, expected = loaded.vocabulary.entries.values(), parsed.vocabulary.entries.values()
    assert [(e.word, list(e.counts_by_kind)) for e in entries] == [
        (e.word, list(e.counts_by_kind)) for e in expected
    ]
    assert all(entry.pos is None or type(entry.pos) is PosTag for entry in entries)


_entry_counts = st.lists(_counts, min_size=4, max_size=4).filter(any)


@st.composite
def _valid_indexes(draw):
    vocabulary = ProjectVocabulary(draw(_awkward_text), draw(_counts))
    for word in draw(st.lists(_awkward_text.filter(bool), max_size=6, unique=True)):
        counts = dict(zip(KINDS, draw(_entry_counts)))
        pos = draw(st.none() | st.sampled_from(list(PosTag)))
        vocabulary.entries[word] = VocabularyEntry(word, pos is not None, pos, sum(counts.values()), counts)
    return ProjectIndex(draw(_node_trees()), vocabulary)


def _loaded(path):
    """What load_index gives for path: the index, or the text of its InvalidIndexError."""
    try:
        return load_index(path)
    except InvalidIndexError as exc:
        return str(exc)


def _assert_load_after_save_is_the_parse(tmp_path_factory, index, slotted):
    """Save index, then load it from the cache and with no cache: the same index, or the same error.

    A slotted index's first load reads the slot save_index wrote.
    """
    path = tmp_path_factory.getbasetemp() / "saved.json"
    slot_path("index", path).unlink(missing_ok=True)
    save_index(index, path)
    with _no_parse() if slotted else nullcontext():
        first = _loaded(path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", "cache")
        patch.setenv("HOME", "home")
        parsed = _loaded(path)
    if isinstance(parsed, str):
        assert first == parsed
    else:
        _assert_same_index(first, parsed)


@settings(max_examples=150, deadline=None)
@given(_indexes())
def test_load_after_save_is_the_parse(tmp_path_factory, index):
    _assert_load_after_save_is_the_parse(tmp_path_factory, index, slotted=False)


@settings(max_examples=150, deadline=None)
@given(_valid_indexes())
def test_first_load_after_save_reads_the_slot(tmp_path_factory, index):
    _assert_load_after_save_is_the_parse(tmp_path_factory, index, slotted=True)


@settings(max_examples=150, deadline=None)
@given(_valid_indexes())
def test_warm_load_equals_the_parse(tmp_path_factory, index):
    path = tmp_path_factory.getbasetemp() / "warm.json"
    save_index(index, path)
    slot_path("index", path).unlink(missing_ok=True)
    parsed = _parsed(path)
    cold = load_index(path)
    with _no_parse():
        warm = load_index(path)
    _assert_same_index(cold, parsed)
    _assert_same_index(warm, parsed)


@pytest.fixture
def golden(tmp_path):
    """A copy of the minicorpus index."""
    path = tmp_path / "minicorpus.json"
    shutil.copyfile(FIXTURES / "minicorpus_index.json", path)
    return path


def _signed(key: bytes, head: bytes, stamp: bytes) -> bytes:
    """The slot of key, head and stamp (with its length), an empty tail and a valid sha256."""
    rest = key + len(head).to_bytes(8, "little") + head + stamp
    return hashlib.sha256(rest).digest() + rest


def _stamp_tail(data: bytes) -> bytes:
    """A slot's stamp and the stamp's 8-byte length, which end it."""
    return data[len(data) - 8 - int.from_bytes(data[-8:], "little") :]


def _head(data: bytes) -> bytes:
    """An index slot's head, its payload: what its head length, after the key, says follows."""
    return data[72 : 72 + int.from_bytes(data[64:72], "little")]


def _reshaped(change):
    """The slot with its stored tuple as change leaves it, under its key and stamp, with a valid digest."""

    def damage(data):
        stored = marshal.loads(_head(data))
        return _signed(data[32:64], marshal.dumps(change(stored)), _stamp_tail(data))

    return damage


def _flipped(data: bytes, offset: int) -> bytes:
    return data[:offset] + bytes([data[offset] ^ 1]) + data[offset + 1 :]


def _with_rows(change):
    """The slot with its vocabulary rows, the head's eighth field, as change leaves them."""
    return _reshaped(lambda stored: stored[:7] + (change(stored[7]),) + stored[8:])


def _small_index():
    """A one-class, one-word index that gets a slot."""
    counts = {"class": 1, "method": 0, "parameter": 0, "field": 0}
    entry = VocabularyEntry("car", True, PosTag.NOUN, 1, counts)
    node = SourceNode(0, "class", "Car", "a.java", 1, None)
    return ProjectIndex([node], ProjectVocabulary("p", 1, {"car": entry}))


class _Text(str):
    pass


class _OtherPos(enum.IntEnum):
    """A pos written as "noun" whose int is a verb's."""

    NOUN = PosTag.VERB

    def __str__(self):
        return "noun"


def _node_change(**fields):
    return lambda nodes, vocabulary, entry: nodes.__setitem__(0, nodes[0]._replace(**fields))


def _entry_change(**fields):
    return lambda nodes, vocabulary, entry: vars(entry).update(fields)


# One change of _small_index per way its values can break a rule of the
# parse, or come back from it other than they went in.
_UNSLOTTED = {
    "id-not-its-position": _node_change(id=5),
    "boolean-id": _node_change(id=False),
    "bad-name": _node_change(name="not valid!"),
    "parentless-field": _node_change(kind="field"),
    "boolean-line": _node_change(line=True),
    "float-line": _node_change(line=1.5),
    "empty-file": _node_change(file_path=""),
    "str-subclass-name": _node_change(name=_Text("Car")),
    "node-subclass": lambda nodes, vocabulary, entry: nodes.__setitem__(0, _RenamedNode(*nodes[0])),
    "boolean-file-count": lambda nodes, vocabulary, entry: setattr(vocabulary, "file_count", True),
    "negative-file-count": lambda nodes, vocabulary, entry: setattr(vocabulary, "file_count", -1),
    "boolean-total": _entry_change(total=True),
    "total-mismatch": _entry_change(total=7),
    "pos-name-for-a-pos": _entry_change(pos="noun"),
    "int-pos": _entry_change(pos=1),
    "pos-of-another-enum": _entry_change(pos=_OtherPos.NOUN),
    "recognized-without-pos": _entry_change(pos=None),
    "int-recognized": _entry_change(recognized=1),
    "float-count": lambda nodes, vocabulary, entry: entry.counts_by_kind.update({"class": 1.0}),
    "count-beyond-kinds": lambda nodes, vocabulary, entry: entry.counts_by_kind.update({"module": 0}),
    "missing-count": lambda nodes, vocabulary, entry: entry.counts_by_kind.pop("field"),
    "duplicate-word": lambda nodes, vocabulary, entry: vocabulary.entries.update(cars=dataclasses.replace(entry)),
    # Written as the escapes of one astral character, which is what they load as.
    "surrogate-pair-word": _entry_change(word="\ud83d\ude00"),
    "surrogate-pair-file": _node_change(file_path="a\udbff\udfff.java"),
}


class TestSlot(CacheRules):
    kind, load, source = "index", staticmethod(load_index), FIXTURES / "minicorpus_index.json"
    edit = "", b'"projectName": "minicorpus"', b'"projectName": "minicorpuz"'

    def test_second_load_reads_the_slot(self, golden, slots, monkeypatch):
        parsed = _parsed(golden)
        _assert_same_index(load_index(golden), parsed)
        [slot] = slots.iterdir()
        assert slot == slot_path("index", golden)
        assert slot.name == f"index-{hashlib.sha256(os.fsencode(golden)).hexdigest()}.marshal"
        assert stat.S_IMODE(slot.stat().st_mode) == 0o600
        data = slot.read_bytes()
        assert data[:32] == hashlib.sha256(data[32:]).digest()
        assert data[32:64] == content_key(index_module._SLOT_FORMAT, [hashlib.sha256(golden.read_bytes()).digest()])
        with _no_parse():
            _assert_same_index(load_index(golden), parsed)
            # A relative path to the same file finds the same slot.
            monkeypatch.chdir(golden.parent)
            _assert_same_index(load_index(golden.name), parsed)
        assert list(slots.iterdir()) == [slot]

    @pytest.mark.parametrize(
        "damage, reaches_payload",
        [
            pytest.param(lambda data: data[: len(data) // 2], False, id="truncated"),
            pytest.param(lambda data: data[:20], False, id="shorter-than-a-digest"),
            pytest.param(  # the payload's last byte, the digest left as it was
                lambda data: _flipped(data, len(data) - len(_stamp_tail(data)) - 1), False, id="flipped-byte"
            ),
            pytest.param(lambda data: _signed(data[32:64], b"\xff", _stamp_tail(data)), True, id="not-marshal"),
            pytest.param(_reshaped(list), True, id="list-for-the-tuple"),
            pytest.param(_reshaped(lambda stored: stored[:-1]), True, id="too-few-fields"),
            pytest.param(_reshaped(lambda stored: stored + ((),)), True, id="too-many-fields"),
            pytest.param(_reshaped(lambda stored: stored[:3] + (stored[3][:-1],) + stored[4:]), True, id="short-column"),
            pytest.param(_reshaped(lambda stored: stored[:2] + (list(stored[2]),) + stored[3:]), True, id="list-column"),
            pytest.param(_with_rows(list), True, id="list-of-rows"),
            pytest.param(_reshaped(lambda stored: stored[:-1] + ({},)), True, id="postings-not-bytes"),
            pytest.param(_with_rows(lambda rows: (rows[0][:-1],) + rows[1:]), True, id="row-short-of-a-count"),
            pytest.param(_with_rows(lambda rows: (rows[0] + (0,),) + rows[1:]), True, id="row-with-a-fifth-count"),
            pytest.param(_with_rows(lambda rows: (rows[0][:1],) + rows[1:]), True, id="row-of-one-field"),
            pytest.param(_with_rows(lambda rows: ((rows[0][0], 9) + rows[0][2:],) + rows[1:]), True, id="unknown-pos"),
            pytest.param(_with_rows(lambda rows: ((rows[0][0], [1]) + rows[0][2:],) + rows[1:]), True, id="list-pos"),
            pytest.param(_with_rows(lambda rows: rows + ((rows[0][0],) + rows[1][1:],)), True, id="repeated-word"),
            pytest.param(lambda data: _signed(bytes(32), _head(data), _stamp_tail(data)), False, id="other-key"),
            pytest.param(  # the sha256, then the payload
                lambda data: hashlib.sha256(_head(data)).digest() + _head(data), False, id="index-1"
            ),
        ],
    )
    def test_damaged_slot_is_parsed_again(self, golden, slots, damage, reaches_payload):
        parsed = _parsed(golden)
        load_index(golden)
        [slot] = slots.iterdir()
        key, _payload, _tail, stamp = _open_slot(slot)
        slot.write_bytes(damage(slot.read_bytes()))
        if reaches_payload:
            # The slot itself is sound; the payload's checks are what turn it away.
            opened = _open_slot(slot)
            assert opened is not None and opened[0] == key and opened[2:] == (b"", stamp)
            assert index_module._index_from_slot(opened[1]) is None
        _assert_same_index(load_index(golden), parsed)
        # The parse wrote the slot again.
        with _no_parse():
            _assert_same_index(load_index(golden), parsed)
        assert list(slots.iterdir()) == [slot]

    def test_slot_of_the_earlier_layout_is_parsed_again_and_replaced(self, golden, slots):
        # Before every slot kind shared one layout, an index slot held no head
        # length: its sha256 (of all the rest), key, payload and stamp.
        parsed = _parsed(golden)
        load_index(golden)
        [slot] = slots.iterdir()
        data = slot.read_bytes()
        key = content_key(b"lexiscope-index-3", [hashlib.sha256(golden.read_bytes()).digest()])
        rest = key + _head(data) + _stamp_tail(data)
        slot.write_bytes(hashlib.sha256(rest).digest() + rest)
        assert _open_slot(slot) is None
        _assert_same_index(load_index(golden), parsed)
        assert _open_slot(slot)[:3] == (data[32:64], _head(data), b"")
        with _no_parse():
            _assert_same_index(load_index(golden), parsed)
        assert list(slots.iterdir()) == [slot]

    def test_slot_of_other_bytes_is_replaced(self, golden, slots, tmp_path):
        other = _write_document(tmp_path, lambda d: None)
        load_index(other)
        [other_slot] = slots.iterdir()
        slot = slot_path("index", golden)
        shutil.copyfile(other_slot, slot)
        parsed = _parsed(golden)
        _assert_same_index(load_index(golden), parsed)
        assert slot.read_bytes() != other_slot.read_bytes()
        with _no_parse():
            _assert_same_index(load_index(golden), parsed)

    def test_one_slot_per_path(self, tmp_path, slots):
        for name in ("first", "second", "third"):
            path = _write_document(tmp_path, lambda d: d.update(projectName=name))
            assert load_index(path).vocabulary.project_name == name
            with _no_parse():
                assert load_index(path).vocabulary.project_name == name
        assert list(slots.iterdir()) == [slot_path("index", path)]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize("through", ["pipe", "symlink-to-a-pipe"])
    def test_documents_read_through_one_pipe_are_never_cached(self, golden, tmp_path, slots, through):
        # As `lexiscope stats <(cat a.json)` then `<(cat b.json)` do: one path, other bytes.
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        path = pipe if through == "pipe" else tmp_path / "link"
        if path != pipe:
            path.symlink_to(pipe)

        def feed(data):
            with open(pipe, "wb") as out:
                out.write(data)

        with ThreadPoolExecutor(max_workers=1) as pool:
            for name in ("first", "second"):
                document = golden.read_bytes().replace(self.edit[1], f'"projectName": "{name}"'.encode())
                fed = pool.submit(feed, document)
                try:
                    assert load_index(path).vocabulary.project_name == name
                finally:
                    if not fed.done():  # a load that never read the pipe: open it, so the feeder ends
                        os.close(os.open(pipe, os.O_RDONLY | os.O_NONBLOCK))
                        fed.exception(timeout=60)
                fed.result(timeout=60)
        assert not slots.exists() or list(slots.iterdir()) == []

    @pytest.mark.parametrize("mutate", list(_INVALID_DOCUMENTS.values()), ids=list(_INVALID_DOCUMENTS))
    def test_primed_slot_does_not_let_an_invalid_document_load(self, tmp_path, slots, monkeypatch, mutate):
        path = _write_document(tmp_path, lambda d: None)
        load_index(path)
        [slot] = slots.iterdir()
        primed = slot.read_bytes()
        _write_document(tmp_path, mutate)
        with pytest.raises(InvalidIndexError) as with_slot:
            load_index(path)
        assert slot.read_bytes() == primed
        monkeypatch.setenv("XDG_CACHE_HOME", "cache")
        monkeypatch.setenv("HOME", "home")
        with pytest.raises(InvalidIndexError) as without:
            load_index(path)
        assert str(with_slot.value) == str(without.value)

    def test_save_index_writes_the_slot_of_a_valid_index(self, sample_index, tmp_path, slots):
        path = tmp_path / "index.json"
        save_index(sample_index, path)
        [slot] = slots.iterdir()
        assert slot == slot_path("index", path)
        digest = hashlib.sha256(path.read_bytes()).digest()
        assert _open_slot(slot)[0] == content_key(index_module._SLOT_FORMAT, [digest])
        parsed = _parsed(path)
        with _no_parse():
            _assert_same_index(load_index(path), parsed)
        assert list(slots.iterdir()) == [slot]

    @pytest.mark.parametrize("change", list(_UNSLOTTED.values()), ids=list(_UNSLOTTED))
    def test_save_index_writes_no_slot_for_a_value_the_parse_would_not_give(self, tmp_path, slots, change):
        index = _small_index()
        change(index.nodes, index.vocabulary, index.vocabulary.entries["car"])
        path = tmp_path / "index.json"
        save_index(index, path)
        assert not slots.exists()
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("XDG_CACHE_HOME", "cache")
            patch.setenv("HOME", "home")
            parsed = _loaded(path)
        loaded = _loaded(path)
        if isinstance(parsed, str):
            assert loaded == parsed
        else:
            _assert_same_index(loaded, parsed)

    def test_slot_that_holds_the_saved_bytes_is_kept(self, sample_index, tmp_path, slots, monkeypatch):
        path = tmp_path / "index.json"
        save_index(sample_index, path)
        [slot] = slots.iterdir()
        kept = slot.read_bytes()
        monkeypatch.setattr(index_module, "_checked_payload", mock.Mock(side_effect=AssertionError("rebuilt")))
        save_index(sample_index, path)
        assert list(slots.iterdir()) == [slot] and slot.read_bytes() == kept
        with _no_parse():
            assert load_index(path) == sample_index

    @pytest.mark.parametrize("when", ["before-the-hash", "before-the-slot-is-written"])
    def test_file_replaced_after_the_save_gets_no_slot(self, sample_index, tmp_path, slots, monkeypatch, when):
        path = tmp_path / "index.json"
        (tmp_path / "other").mkdir()
        other = _write_document(tmp_path / "other", lambda d: None)
        name = "_write_index_file" if when == "before-the-hash" else "_checked_payload"
        step = getattr(index_module, name)

        def replacing(*args):
            result = step(*args)
            shutil.copyfile(other, tmp_path / "replacement")
            os.replace(tmp_path / "replacement", path)
            return result

        monkeypatch.setattr(index_module, name, replacing)
        save_index(sample_index, path)
        assert not slots.exists() or list(slots.iterdir()) == []
        monkeypatch.undo()
        _assert_same_index(load_index(path), _parsed(other))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize("target", ["pipe", "symlink-to-a-device"])
    def test_target_that_is_not_a_regular_file_gets_no_slot(self, sample_index, tmp_path, slots, target):
        path = tmp_path / "index.json"
        if target == "symlink-to-a-device":
            path.symlink_to(os.devnull)
            save_index(sample_index, path)
        else:
            os.mkfifo(path)
            # Both ends are open before the save, so neither waits for the other.
            hold = os.open(path, os.O_RDWR)
            read_end = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
            os.set_blocking(read_end, True)

            def drain():
                with open(read_end, "rb") as handle:
                    return handle.read()

            with ThreadPoolExecutor(max_workers=1) as pool:
                received = pool.submit(drain)
                try:
                    save_index(sample_index, path)
                finally:
                    os.close(hold)
                assert received.result(timeout=60) == _reference_bytes(sample_index)
        assert not slots.exists()

    def test_save_without_a_cache_writes_no_slot(self, sample_index, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("XDG_CACHE_HOME", "cache")
        monkeypatch.setenv("HOME", "home")
        save_index(sample_index, "index.json")
        assert [p.name for p in tmp_path.iterdir()] == ["index.json"]
        assert load_index("index.json") == sample_index

    def test_warm_index_is_a_project_index_like_a_parsed_one(self, golden, slots):
        cold = load_index(golden)
        with _no_parse():
            warm = load_index(golden)
        assert warm == cold and cold == warm
        assert type(warm) is ProjectIndex and repr(warm) == repr(cold)
        assert [field.name for field in dataclasses.fields(warm)] == ["nodes", "vocabulary"]
        assert dataclasses.asdict(warm) == dataclasses.asdict(cold)
        for index in (cold, warm):
            trimmed = dataclasses.replace(index, nodes=index.nodes[:1])
            assert (trimmed.nodes, trimmed.vocabulary) == (cold.nodes[:1], cold.vocabulary)
            assert trimmed != cold and cold != trimmed
            assert dataclasses.replace(index) == cold
            # A copy has no slot: its postings are those of its own nodes, stored nowhere.
            assert trimmed.postings == _candidate_postings(cold.nodes[:1])
        _key, head, tail, _stamp = _open_slot(slot_path("index", golden))
        assert tail == b"" and marshal.loads(head)[-1] == b""

    @pytest.mark.parametrize(
        "duplicate", [copy.copy, copy.deepcopy, lambda index: pickle.loads(pickle.dumps(index))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copy_of_a_warm_index_carries_only_its_fields(self, golden, slots, duplicate):
        cold = load_index(golden)
        postings = cold.postings  # stored in the slot's head
        with _no_parse():
            warm = load_index(golden)
        assert marshal.loads(warm._stored[-1]) == postings
        copied = duplicate(warm)
        assert type(copied) is ProjectIndex and copied == cold
        assert vars(copied) == {"nodes": cold.nodes, "vocabulary": cold.vocabulary}
        assert copied._slot is None and copied._stored is None
        with mock.patch.object(index_module.locator, "_candidate_postings", side_effect=AssertionError("built")):
            assert warm.postings == postings

    def test_warm_commands_build_only_the_part_they_read(self, golden, tmp_path, slots, capsys):
        other = tmp_path / "other.json"
        other.write_bytes(golden.read_bytes().replace(*self.edit[1:]))
        for path in (golden, other):
            load_index(path)
        built = mock.Mock(side_effect=AssertionError("built"))
        with _no_parse():
            with mock.patch.object(index_module, "_nodes_from_columns", built):
                for argv in (["stats", str(golden)], ["topwords", str(golden)], ["domain", str(golden), str(other)]):
                    assert main(argv) == 0
            with mock.patch.object(index_module, "VocabularyEntry", built):
                assert main(["locate", str(golden), "find word form", "--dict", str(MINIDICT)]) == 0
        assert "WordTools.java:2 method getType 5" in capsys.readouterr().out
