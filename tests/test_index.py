import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexiscope.extractor import KINDS, SchemaError, SourceNode, extract_project, ingest_nodes
from lexiscope.index import FORMAT_VERSION, InvalidIndexError, ProjectIndex, load_index, save_index
from lexiscope.lexicon import PosTag
from lexiscope.vocabulary import ProjectVocabulary, VocabularyEntry, build_vocabulary, default_stoplist

from conftest import MINICORPUS


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


class TestValidation:
    def test_valid_document_loads(self, tmp_path):
        path = _write_document(tmp_path, lambda d: None)
        index = load_index(path)
        assert index.nodes[0].name == "Car"
        assert list(index.vocabulary.entries) == ["car"]

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(formatVersion=2),
            lambda d: d.pop("nodes"),
            lambda d: d["nodes"][0].update(id=5),
            lambda d: d["nodes"][0].update(kind="module"),
            lambda d: d["nodes"][0].update(name="not valid!"),
            lambda d: d["nodes"][0].update(parent=0),
            lambda d: d["vocabulary"][0].update(total=7),
            lambda d: d["vocabulary"][0].update(pos=None),
            lambda d: d["vocabulary"][0].update(pos="article"),
            lambda d: d["vocabulary"][0].pop("counts"),
            lambda d: d["vocabulary"].append(dict(d["vocabulary"][0])),
            lambda d: d["nodes"][0].update(kind="field"),
            lambda d: d["nodes"].extend(
                [_node(1, "field", "wheels", 0), _node(2, "parameter", "speed", 1)]
            ),
            lambda d: d["nodes"].extend(
                [_node(1, "method", "drive", 0), _node(2, "method", "steer", 1)]
            ),
            lambda d: d["nodes"][0].update(file=""),
            lambda d: d["nodes"][0].update(line=True),
            lambda d: d.update(fileCount=True),
            lambda d: d["vocabulary"][0].update(total=True),
            lambda d: d["nodes"].append(_node(True, "method", "drive", 0)),
            lambda d: d["vocabulary"][0].update(pos="Noun"),
            lambda d: d["vocabulary"][0].update(pos="NOUN"),
            lambda d: d["vocabulary"][0].update(pos=1),
            lambda d: d["vocabulary"][0].update(pos=["noun"]),
            lambda d: d.update(formatVersion=True),
            lambda d: d.update(formatVersion=1.0),
        ],
        ids=[
            "bad-version",
            "missing-nodes",
            "non-dense-ids",
            "bad-kind",
            "bad-name",
            "forward-parent",
            "total-mismatch",
            "recognized-without-pos",
            "unknown-pos",
            "missing-counts",
            "duplicate-word",
            "parentless-field",
            "parameter-under-field",
            "method-under-method",
            "empty-file",
            "boolean-line",
            "boolean-file-count",
            "boolean-total",
            "boolean-id",
            "capitalized-pos",
            "upper-case-pos",
            "int-pos",
            "list-pos",
            "bool-format-version",
            "float-format-version",
        ],
    )
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

