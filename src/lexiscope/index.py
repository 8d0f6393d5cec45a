"""Persist one analyzed project as a version-tagged JSON index file.

The index is a single human-readable document: project metadata, the
extracted nodes, and the vocabulary entries (sorted by word).  Writing is
byte-deterministic for identical inputs, and loading re-validates every
structural invariant, so round-trips are exact.  A load of bytes that an
earlier load from the same path validated reads the marshalled slot that
load left in the cache instead, and builds each part of the index on its
first access.
"""

from __future__ import annotations

import contextlib
import io
import json
import marshal
import os
import stat
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from json.encoder import encode_basestring_ascii as _encode
from pathlib import Path

from ._snapshot import Slot
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
    _write_index_file(Path(path), document)


def _write_index_file(path: Path, document: str) -> None:
    """Write the document at path, in a new file renamed over it where that keeps what path is.

    A missing path, or a regular file with no other name, gets a temporary
    file beside it that is renamed into place, so a failed or interrupted
    write leaves the previous index as it was.  The new file has the mode
    write_text would give it: the umask's for a new file, the old file's
    mode and owner for an existing one.  Anything else at path (a link, a
    device, a pipe, a file with other names), an owner the writer cannot
    give, and a directory where no file can be made are written in place,
    as write_text writes them.
    """
    try:
        status = os.lstat(path)
    except FileNotFoundError:
        status = None
    handle = None
    if status is None or (stat.S_ISREG(status.st_mode) and status.st_nlink == 1):
        temp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
        with contextlib.suppress(OSError):
            handle = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    if handle is not None and status is not None:
        try:
            os.fchmod(handle, stat.S_IMODE(status.st_mode))
            made = os.fstat(handle)
            if (made.st_uid, made.st_gid) != (status.st_uid, status.st_gid):
                os.fchown(handle, status.st_uid, status.st_gid)
        except OSError:
            os.close(handle)
            with contextlib.suppress(OSError):
                os.unlink(temp)
            handle = None
    if handle is None:
        path.write_text(document, encoding="utf-8")
        return
    try:
        with open(handle, "w", encoding="utf-8") as out:
            out.write(document)
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise


def load_index(path: str | Path) -> ProjectIndex:
    """Read and validate an index file.

    Raises InvalidIndexError if the file cannot be read or breaks any rule
    of the format.  A successful parse is stored in the file's cache slot
    (see _snapshot), keyed by the bytes of the index file; a later load of
    the same bytes from the same path reads the slot without parsing, and
    without hashing the file while the slot's stamp holds.  Its nodes and
    its vocabulary are each built on first access.
    A slot that is missing, damaged, of another shape or of other bytes
    only means a parse, so every InvalidIndexError comes from the parse.
    """
    slot = Slot.of("index", path, _SLOT_FORMAT, [Path(path)])
    payload = None if slot is None else slot.read()
    index = None if payload is None else _index_from_slot(payload)
    if index is not None:
        return index
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InvalidIndexError(f"cannot read index {path}: {exc}") from exc
    # The bytes, and then the text, are dropped as soon as they are used, so
    # neither sits beside the parsed document.
    try:
        # Decoded as Path.read_text decodes, newlines translated.
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
        del data
        document = json.loads(text)
        del text
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidIndexError(f"cannot read index {path}: {exc}") from exc
    index = _index_from_document(document, path)
    if slot is not None:
        slot.write([_slot_payload(index)])
    return index


def _index_from_document(document, path) -> ProjectIndex:
    """Validate a decoded index document into a ProjectIndex."""
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


# Bump when the parse, the index format or the slot layout changes, so that
# no slot of an older format is read.
_SLOT_FORMAT = b"lexiscope-index-3"

# A slot stores a pos as its int value, or None.
_POS_OF_INT = {None: None, **{int(tag): tag for tag in PosTag}}

_ROW_LENGTH = 3 + len(KINDS)


def _slot_payload(index: ProjectIndex) -> bytes:
    """The marshalled (project name, file count, node columns, vocabulary rows).

    The node columns are kind, name, file, line and parent; a node's id is
    its position.  A row is a word, its pos as an int or None, its total
    and its four counts in KINDS order.
    """
    vocabulary = index.vocabulary
    _ids, kinds, names, files, lines, parents = zip(*index.nodes) if index.nodes else ((),) * 6
    # One object per distinct kind and file, which marshal writes once.
    same: dict[str, str] = {}
    kinds, files = (tuple([same.setdefault(value, value) for value in column]) for column in (kinds, files))
    rows = tuple(
        (entry.word, None if entry.pos is None else int(entry.pos), entry.total,
         *[entry.counts_by_kind[kind] for kind in KINDS])
        for entry in vocabulary.entries.values()
    )
    return marshal.dumps(
        (vocabulary.project_name, vocabulary.file_count, kinds, names, files, lines, parents, rows)
    )


def _index_from_slot(payload: memoryview) -> ProjectIndex | None:
    """The index a slot payload holds, or None for a bad shape.

    The columns and rows are checked here; the nodes and entries are built
    from them on first access.
    """
    try:
        stored = marshal.loads(payload)
    except (EOFError, ValueError, TypeError):
        return None
    if not (isinstance(stored, tuple) and len(stored) == 8):
        return None
    project_name, file_count, kinds, names, files, lines, parents, rows = stored
    columns = (kinds, names, files, lines, parents)
    if not (all(type(column) is tuple and len(column) == len(kinds) for column in columns)
            and type(rows) is tuple):
        return None
    try:
        if not (all(type(row) is tuple and len(row) == _ROW_LENGTH and row[1] in _POS_OF_INT for row in rows)
                and len({row[0] for row in rows}) == len(rows)):
            return None
    except TypeError:  # an unhashable pos or word
        return None
    return _SlotIndex(stored=(project_name, file_count, columns, rows))


class _SlotIndex(ProjectIndex):
    """An index read from its cache slot, whose nodes and vocabulary are each built on first access.

    It takes ProjectIndex's fields too, so dataclasses.replace gives a copy
    of the fields it is handed, and it equals a ProjectIndex of the same
    nodes and vocabulary, as the parse of its file does.
    """

    def __init__(self, nodes=None, vocabulary=None, *, stored=None):
        self._stored = stored
        if stored is None:
            super().__init__(nodes, vocabulary)

    def __eq__(self, other):
        if not isinstance(other, ProjectIndex):
            return NotImplemented
        return (self.nodes, self.vocabulary) == (other.nodes, other.vocabulary)

    @cached_property
    def nodes(self) -> list[SourceNode]:
        columns = self._stored[2]
        # tuple.__new__ over the zipped columns makes each node without a Python call.
        return list(map(tuple.__new__, repeat(SourceNode), zip(range(len(columns[0])), *columns)))

    @cached_property
    def vocabulary(self) -> ProjectVocabulary:
        project_name, file_count, _columns, rows = self._stored
        entries = {
            word: VocabularyEntry(word, pos is not None, _POS_OF_INT[pos], total, dict(zip(KINDS, counts)))
            for word, pos, total, *counts in rows
        }
        return ProjectVocabulary(project_name, file_count, entries)
