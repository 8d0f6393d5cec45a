"""Persist one analyzed project as a version-tagged JSON index file.

The index is a single human-readable document: project metadata, the
extracted nodes, and the vocabulary entries (sorted by word).  Writing is
byte-deterministic for identical inputs, and loading re-validates every
structural invariant, so round-trips are exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _encode
from pathlib import Path

from .extractor import KINDS, SourceNode, _validate_node
from .lexicon import PosTag
from .vocabulary import ProjectVocabulary, VocabularyEntry

__all__ = ["FORMAT_VERSION", "InvalidIndexError", "ProjectIndex", "load_index", "save_index"]

FORMAT_VERSION = 1

# The exact pos names save_index writes; no other spelling loads.
_POS_NAMES = {str(tag): tag for tag in PosTag}


class InvalidIndexError(Exception):
    """The index file is unreadable or violates the schema."""


@dataclass
class ProjectIndex:
    nodes: list[SourceNode]
    vocabulary: ProjectVocabulary


# The layout json.dumps(document, indent=2) gives one node and one
# vocabulary entry; save_index fills it in without the pure-Python encoder.
_NODE_LAYOUT = (
    '\n    {\n      "id": %d,\n      "kind": %s,\n      "name": %s,\n      "file": %s,'
    '\n      "line": %d,\n      "parent": %s\n    }'
)
_ENTRY_LAYOUT = (
    '\n    {\n      "word": %s,\n      "recognized": %s,\n      "pos": %s,\n      "total": %d,'
    '\n      "counts": {' + ",".join("\n        %s: %%d" % _encode(kind) for kind in KINDS)
    + '\n      }\n    }'
)
_DOCUMENT_LAYOUT = (
    '{\n  "formatVersion": %d,\n  "projectName": %s,\n  "fileCount": %d,'
    '\n  "nodes": %s,\n  "vocabulary": %s\n}\n'
)


def _json_list(items: list[str]) -> str:
    return "[" + ",".join(items) + "\n  ]" if items else "[]"


def save_index(index: ProjectIndex, path: str | Path) -> None:
    """Write the bytes json.dumps(document, indent=2) + "\\n" would give."""
    vocabulary = index.vocabulary
    nodes = [
        _NODE_LAYOUT % (
            node.id,
            _encode(node.kind),
            _encode(node.name),
            _encode(node.file_path),
            node.line,
            "null" if node.parent_id is None else "%d" % node.parent_id,
        )
        for node in index.nodes
    ]
    entries = [
        _ENTRY_LAYOUT % (
            _encode(entry.word),
            "true" if entry.recognized else "false",
            "null" if entry.pos is None else _encode(str(entry.pos)),
            entry.total,
            *[entry.counts_by_kind.get(kind, 0) for kind in KINDS],
        )
        for entry in sorted(vocabulary.entries.values(), key=lambda e: e.word)
    ]
    document = _DOCUMENT_LAYOUT % (
        FORMAT_VERSION,
        _encode(vocabulary.project_name),
        vocabulary.file_count,
        _json_list(nodes),
        _json_list(entries),
    )
    Path(path).write_text(document, encoding="utf-8")


def load_index(path: str | Path) -> ProjectIndex:
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidIndexError(f"cannot read index {path}: {exc}") from exc

    version = document.get("formatVersion") if isinstance(document, dict) else None
    if type(version) is not int or version != FORMAT_VERSION:
        raise InvalidIndexError(f"unsupported index format in {path}")
    project_name = document.get("projectName")
    file_count = document.get("fileCount")
    if not isinstance(project_name, str) or type(file_count) is not int or file_count < 0:
        raise InvalidIndexError(f"bad project metadata in {path}")

    nodes: list[SourceNode] = []
    for position, raw in enumerate(_expect_list(document, "nodes", path)):
        try:
            node = _validate_node(raw, nodes)
        except ValueError as exc:
            raise InvalidIndexError(f"node {position}: {exc} in {path}") from exc
        node_id = raw.get("id")
        if type(node_id) is not int or node_id != position:
            raise InvalidIndexError(f"node ids must be dense from 0 (node {position}) in {path}")
        nodes.append(node)

    vocabulary = ProjectVocabulary(project_name, file_count)
    for raw in _expect_list(document, "vocabulary", path):
        entry = _parse_entry(raw, path)
        if entry.word in vocabulary.entries:
            raise InvalidIndexError(f"duplicate vocabulary word {entry.word!r} in {path}")
        vocabulary.entries[entry.word] = entry

    return ProjectIndex(nodes, vocabulary)


def _expect_list(document: dict, key: str, path) -> list:
    value = document.get(key)
    if not isinstance(value, list):
        raise InvalidIndexError(f"missing {key} list in {path}")
    return value


def _parse_entry(raw, path) -> VocabularyEntry:
    if not isinstance(raw, dict):
        raise InvalidIndexError(f"vocabulary entry is not an object in {path}")
    word = raw.get("word")
    recognized = raw.get("recognized")
    pos_name = raw.get("pos")
    total = raw.get("total")
    counts = raw.get("counts")
    if not isinstance(word, str) or not word:
        raise InvalidIndexError(f"bad vocabulary word {word!r} in {path}")
    if not isinstance(recognized, bool):
        raise InvalidIndexError(f"{word}: recognized must be a boolean in {path}")
    if pos_name is None:
        pos = None
    elif isinstance(pos_name, str) and pos_name in _POS_NAMES:
        pos = _POS_NAMES[pos_name]
    else:
        raise InvalidIndexError(f"{word}: unknown pos {pos_name!r} in {path}")
    if recognized != (pos is not None):
        raise InvalidIndexError(f"{word}: recognized flag disagrees with pos in {path}")
    if not isinstance(counts, dict) or set(counts) != set(KINDS):
        raise InvalidIndexError(f"{word}: counts must cover all node kinds in {path}")
    by_kind = {}
    for kind in KINDS:
        value = counts[kind]
        if type(value) is not int or value < 0:
            raise InvalidIndexError(f"{word}: bad count for {kind} in {path}")
        by_kind[kind] = value
    if type(total) is not int or total != sum(by_kind.values()) or total < 1:
        raise InvalidIndexError(f"{word}: total must equal the sum of counts in {path}")
    return VocabularyEntry(word, recognized, pos, total, by_kind)
