import dataclasses
import hashlib
import json
import marshal
import os
import shutil
import stat
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lexiscope.index as index_module
from lexiscope._snapshot import _open_slot, content_key, slot_path
from lexiscope.cli import main
from lexiscope.extractor import KINDS, SchemaError, SourceNode, extract_project, ingest_nodes
from lexiscope.index import FORMAT_VERSION, InvalidIndexError, ProjectIndex, load_index, save_index
from lexiscope.lexicon import PosTag
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


@settings(max_examples=150, deadline=None)
@given(_indexes())
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


def _assert_same_index(loaded, parsed):
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


def _signed(rest: bytes) -> bytes:
    return hashlib.sha256(rest).digest() + rest


def _stamp_tail(data: bytes) -> bytes:
    """A slot's stamp and the stamp's 8-byte length, which end it."""
    return data[len(data) - 8 - int.from_bytes(data[-8:], "little") :]


def _reshaped(change):
    """The slot with its stored tuple as change leaves it, under its key and stamp, with a valid digest."""

    def damage(data):
        tail = _stamp_tail(data)
        stored = marshal.loads(data[64 : -len(tail)])
        return _signed(data[32:64] + marshal.dumps(change(stored)) + tail)

    return damage


def _flipped(data: bytes, offset: int) -> bytes:
    return data[:offset] + bytes([data[offset] ^ 1]) + data[offset + 1 :]


def _with_rows(change):
    return _reshaped(lambda stored: stored[:-1] + (change(stored[-1]),))


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
            pytest.param(lambda data: _signed(data[32:64] + b"\xff" + _stamp_tail(data)), True, id="not-marshal"),
            pytest.param(_reshaped(list), True, id="list-for-the-tuple"),
            pytest.param(_reshaped(lambda stored: stored[:-1]), True, id="too-few-fields"),
            pytest.param(_reshaped(lambda stored: stored + ((),)), True, id="too-many-fields"),
            pytest.param(_reshaped(lambda stored: stored[:3] + (stored[3][:-1],) + stored[4:]), True, id="short-column"),
            pytest.param(_reshaped(lambda stored: stored[:2] + (list(stored[2]),) + stored[3:]), True, id="list-column"),
            pytest.param(_reshaped(lambda stored: stored[:-1] + (list(stored[-1]),)), True, id="list-of-rows"),
            pytest.param(_with_rows(lambda rows: (rows[0][:-1],) + rows[1:]), True, id="row-short-of-a-count"),
            pytest.param(_with_rows(lambda rows: (rows[0] + (0,),) + rows[1:]), True, id="row-with-a-fifth-count"),
            pytest.param(_with_rows(lambda rows: (rows[0][:1],) + rows[1:]), True, id="row-of-one-field"),
            pytest.param(_with_rows(lambda rows: ((rows[0][0], 9) + rows[0][2:],) + rows[1:]), True, id="unknown-pos"),
            pytest.param(_with_rows(lambda rows: ((rows[0][0], [1]) + rows[0][2:],) + rows[1:]), True, id="list-pos"),
            pytest.param(_with_rows(lambda rows: rows + ((rows[0][0],) + rows[1][1:],)), True, id="repeated-word"),
            pytest.param(lambda data: _signed(bytes(32) + data[64:]), False, id="other-key"),
            pytest.param(  # the sha256, then the payload
                lambda data: _signed(data[64 : -len(_stamp_tail(data))]), False, id="index-1"
            ),
        ],
    )
    def test_damaged_slot_is_parsed_again(self, golden, slots, damage, reaches_payload):
        parsed = _parsed(golden)
        load_index(golden)
        [slot] = slots.iterdir()
        key, _payload, stamp = _open_slot(slot)
        slot.write_bytes(damage(slot.read_bytes()))
        if reaches_payload:
            # The slot itself is sound; the payload's checks are what turn it away.
            opened = _open_slot(slot)
            assert opened is not None and opened[0] == key and opened[2] == stamp
            assert index_module._index_from_slot(opened[1]) is None
        _assert_same_index(load_index(golden), parsed)
        # The parse wrote the slot again.
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

    def test_save_index_writes_no_slot(self, sample_index, tmp_path, slots):
        save_index(sample_index, tmp_path / "index.json")
        assert not slots.exists()

    def test_warm_index_is_a_project_index_like_a_parsed_one(self, golden, slots):
        cold = load_index(golden)
        with _no_parse():
            warm = load_index(golden)
        assert warm == cold and cold == warm
        assert [field.name for field in dataclasses.fields(warm)] == ["nodes", "vocabulary"]
        assert dataclasses.asdict(warm) == dataclasses.asdict(cold)
        for index in (cold, warm):
            trimmed = dataclasses.replace(index, nodes=index.nodes[:1])
            assert (trimmed.nodes, trimmed.vocabulary) == (cold.nodes[:1], cold.vocabulary)
            assert trimmed != cold and cold != trimmed
            assert dataclasses.replace(index) == cold

    def test_warm_commands_build_only_the_part_they_read(self, golden, tmp_path, slots, capsys):
        other = tmp_path / "other.json"
        other.write_bytes(golden.read_bytes().replace(*self.edit[1:]))
        for path in (golden, other):
            load_index(path)
        built = mock.Mock(side_effect=AssertionError("built"))
        with _no_parse():
            with mock.patch.object(index_module, "SourceNode", built):
                for argv in (["stats", str(golden)], ["topwords", str(golden)], ["domain", str(golden), str(other)]):
                    assert main(argv) == 0
            with mock.patch.object(index_module, "VocabularyEntry", built):
                assert main(["locate", str(golden), "find word form", "--dict", str(MINIDICT)]) == 0
        assert "WordTools.java:2 method getType 5" in capsys.readouterr().out
