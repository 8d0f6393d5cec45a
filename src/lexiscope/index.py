"""Persist one analyzed project as a version-tagged JSON index file.

The index is a single human-readable document: project metadata, the
extracted nodes, and the vocabulary entries (sorted by word).  Writing is
byte-deterministic for identical inputs, and loading re-validates every
structural invariant, so round-trips are exact.  A load of bytes that an
earlier load or save of the same path validated reads the marshalled slot
that load or save left in the cache instead, and builds each part of the
index on its first access.  A save writes the slot only for values that
pass the parse's rules and that the parse gives back as they are, so a
slot is only ever what a parse of its file gives.  Its head also holds
the nodes' candidate postings once locate has built them
(ProjectIndex.postings).  An index slot has no tail (only the dictionary
slot has one), so the whole slot is read at once and a warm index holds
no open file.  An index read from a slot is a plain ProjectIndex too; a
copy or a pickle of any index carries only its nodes and its vocabulary.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import marshal
import os
import re
import stat
from dataclasses import dataclass
from functools import cached_property
from itertools import count
from json.encoder import encode_basestring_ascii as _encode
from operator import attrgetter
from pathlib import Path

from . import locator
from ._snapshot import _CHUNK, Slot
from .extractor import KINDS, SourceNode, _good_columns, _node_columns, _node_from_record, _nodes_from_columns
from .extractor import _decode_fault, _validate_node
from .lexicon import PosTag
from .vocabulary import ProjectVocabulary, VocabularyEntry

__all__ = ["FORMAT_VERSION", "InvalidIndexError", "ProjectIndex", "load_index", "save_index"]

FORMAT_VERSION = 1

# The exact pos names save_index writes; no other spelling loads.
_POS_NAMES = {str(tag): tag for tag in PosTag}
_KIND_SET = frozenset(KINDS)

# json.loads reads an escaped high surrogate and the escaped low surrogate
# after it as one character, so a string holding such a pair does not come
# back from the file as it went in.
_SURROGATE_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")


class InvalidIndexError(Exception):
    """The index file is unreadable or violates the schema."""


@dataclass
class ProjectIndex:
    nodes: list[SourceNode]
    vocabulary: ProjectVocabulary

    # The Slot that load_index read or wrote this index through, and the tuple
    # its head holds (see _head); neither is a field.
    _slot = None
    _stored = None

    def __getattr__(self, name):
        """A field _index_from_slot left unset (no other index gets here), built from _stored and kept."""
        stored = self._stored
        if stored is None or name not in ("nodes", "vocabulary"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        project_name, file_count, *columns, rows, _postings = stored
        if name == "nodes":
            value = _nodes_from_columns(columns)
        else:
            entries = {
                word: VocabularyEntry(word, pos is not None, _POS_OF_INT[pos], total, dict(zip(KINDS, counts)))
                for word, pos, total, *counts in rows
            }
            value = ProjectVocabulary(project_name, file_count, entries)
        self.__dict__[name] = value
        return value

    def __reduce__(self):
        """A copy or pickle carries the fields only, as a dataclasses.replace copy does: no slot, no postings."""
        return ProjectIndex, (self.nodes, self.vocabulary)

    @cached_property
    def postings(self) -> dict[str, tuple[int, ...]]:
        """locate's candidate postings of the nodes (locator._candidate_postings), read from the slot's head.

        When the head holds none, they are built and the head is written
        again with them, through the load's own slot: so only while the
        file is as the load found it, under the bytes they were built from.
        """
        postings = None
        if self._stored is not None:
            with contextlib.suppress(EOFError, ValueError, TypeError):
                postings = marshal.loads(self._stored[-1])
        if type(postings) is not dict:
            postings = locator._candidate_postings(self.nodes)
            if self._slot is not None:
                self._slot.write(marshal.dumps((*self._stored[:-1], marshal.dumps(postings))))
        return postings


# The layout json.dumps(document, indent=2) gives one node and one
# vocabulary entry; save_index fills in each list's layout, repeated, with
# one % instead of the pure-Python encoder.
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


_NODE_FIELDS = attrgetter("id", "kind", "name", "file_path", "line", "parent_id")
_ENTRY_FIELDS = attrgetter("word", "recognized", "pos", "total", "counts_by_kind")


def _json_list(layout: str, count: int, columns: list) -> str:
    """The JSON list of count items in layout, item n's values each column's n-th, in one %."""
    if not count:
        return "[]"
    values = [None] * (len(columns) * count)
    for position, column in enumerate(columns):
        values[position :: len(columns)] = column
    return "[" + ",".join([layout] * count) % tuple(values) + "\n  ]"


def save_index(index: ProjectIndex, path: str | Path) -> None:
    """Write the bytes json.dumps(document, indent=2) + "\\n" would give, then the file's cache slot.

    The slot holds what load_index's parse of those bytes gives, so the
    first load of the file reads it instead of parsing.  It is written
    only when the file at path, hashed after the write, holds the bytes
    this save wrote (a file replaced in between, a target that is not a
    regular file and a missing cache get none), and when the values pass
    the parse's rules and come back from it as they are (see
    _checked_payload).  A slot that already holds these bytes is kept.
    """
    path = Path(path)
    vocabulary = index.vocabulary
    entries = sorted(vocabulary.entries.values(), key=lambda e: e.word)
    digest = _write_index_file(path, _document(index.nodes, vocabulary, entries))
    slot = Slot.of("index", path, _SLOT_FORMAT, [path])
    if slot is None or slot.read() is not None or slot.digests != (digest,):
        return
    payload = _checked_payload(index.nodes, vocabulary, entries)
    if payload is not None:
        slot.write(payload)


def _document(nodes: list[SourceNode], vocabulary: ProjectVocabulary, entries: list[VocabularyEntry]) -> str:
    """The index document, entries in the given order.

    Each distinct kind and file path is encoded once.
    """
    ids, kinds, names, files, lines, parents = zip(*map(_NODE_FIELDS, nodes)) if nodes else ((),) * 6
    encoded = {text: _encode(text) for text in {*kinds, *files}}
    words, recognized, poses, totals, counts = zip(*map(_ENTRY_FIELDS, entries)) if entries else ((),) * 5
    return _DOCUMENT_LAYOUT % (
        FORMAT_VERSION,
        _encode(vocabulary.project_name),
        vocabulary.file_count,
        _json_list(_NODE_LAYOUT, len(nodes), [
            ids,
            map(encoded.__getitem__, kinds),
            map(_encode, names),
            map(encoded.__getitem__, files),
            lines,
            ["null" if parent is None else "%d" % parent for parent in parents],
        ]),
        _json_list(_ENTRY_LAYOUT, len(entries), [
            map(_encode, words),
            ["true" if flag else "false" for flag in recognized],
            ["null" if pos is None else _encode(str(pos)) for pos in poses],
            totals,
            *[[by_kind.get(kind, 0) for by_kind in counts] for kind in KINDS],
        ]),
    )


def _write_index_file(path: Path, document: str) -> bytes:
    """Write the document at path, in a new file renamed over it where that keeps what path is.

    Returns the sha256 of the bytes written, hashed as they are written.

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
        with open(path, "wb") as out:
            return _write_hashed(out, document)
    try:
        with open(handle, "wb") as out:
            digest = _write_hashed(out, document)
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise
    return digest


def _write_hashed(out, document: str) -> bytes:
    """Write the document's UTF-8 bytes a chunk at a time; the sha256 of the bytes."""
    digest = hashlib.sha256()
    for start in range(0, len(document), _CHUNK):
        chunk = document[start : start + _CHUNK].encode("utf-8")
        digest.update(chunk)
        out.write(chunk)
    return digest.digest()


def load_index(path: str | Path) -> ProjectIndex:
    """Read and validate an index file.

    Raises InvalidIndexError if the file cannot be read or breaks any rule
    of the format.  A successful parse is stored in the file's cache slot
    (see _snapshot), keyed by the bytes of the index file, as save_index
    stores what the parse would give; a later load of
    the same bytes from the same path reads the slot without parsing, and
    without hashing the file while the slot's stamp holds.  Its nodes and
    its vocabulary are each built on first access.
    A slot that is missing, damaged, of another shape or of other bytes
    only means a parse, so every InvalidIndexError comes from the parse.
    Neither path stores postings; the index's postings property does.
    """
    slot = Slot.of("index", path, _SLOT_FORMAT, [Path(path)])
    payload = None if slot is None else slot.read()
    index = None if payload is None else _index_from_slot(payload)
    if index is not None:
        index._slot = slot
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
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, nesting or digits past the decoder's limits
        raise InvalidIndexError(f"cannot read index {path}: {_decode_fault(exc)}") from exc
    index = _index_from_document(document, path)
    if slot is not None:
        vocabulary = index.vocabulary
        index._slot = slot
        index._stored = _head(vocabulary, _node_columns(index.nodes), vocabulary.entries.values())
        slot.write(marshal.dumps(index._stored))
    return index


def _index_from_document(document, path) -> ProjectIndex:
    """Validate a decoded index document into a ProjectIndex."""
    version = document.get("formatVersion") if isinstance(document, dict) else None
    if type(version) is not int or version != FORMAT_VERSION:
        raise InvalidIndexError(f"unsupported index format in {path}")
    project_name = document.get("projectName")
    file_count = document.get("fileCount")
    if not _good_metadata(project_name, file_count):
        raise InvalidIndexError(f"bad project metadata in {path}")

    nodes: list[SourceNode] = []
    for position, raw in enumerate(_expect_list(document, "nodes", path)):
        try:
            node = _node_from_record(raw, nodes)
        except ValueError as exc:
            raise InvalidIndexError(f"node {position}: {exc} in {path}") from exc
        node_id = raw.get("id")
        if type(node_id) is not int or node_id != position:
            raise InvalidIndexError(f"node ids must be dense from 0 (node {position}) in {path}")
        nodes.append(node)

    entries = {}
    for raw in _expect_list(document, "vocabulary", path):
        if not isinstance(raw, dict):
            raise InvalidIndexError(f"vocabulary entry is not an object in {path}")
        word, recognized, pos_name, total, counts = map(raw.get, ("word", "recognized", "pos", "total", "counts"))
        try:
            pos = _check_entry(word, recognized, pos_name, total, counts)
        except ValueError as exc:
            raise InvalidIndexError(f"{exc} in {path}") from exc
        if word in entries:
            raise InvalidIndexError(f"duplicate vocabulary word {word!r} in {path}")
        entries[word] = VocabularyEntry(word, recognized, pos, total, {kind: counts[kind] for kind in KINDS})

    return ProjectIndex(nodes, ProjectVocabulary(project_name, file_count, entries))


def _good_metadata(project_name, file_count) -> bool:
    """The project-metadata rule shared by index load and save_index."""
    return isinstance(project_name, str) and type(file_count) is int and file_count >= 0


def _expect_list(document: dict, key: str, path) -> list:
    value = document.get(key)
    if not isinstance(value, list):
        raise InvalidIndexError(f"missing {key} list in {path}")
    return value


def _check_entry(word, recognized, pos_name, total, counts) -> PosTag | None:
    """The vocabulary-entry rules shared by index load and save_index; the pos that pos_name names.

    The arguments are one entry's field values, its pos as the name the
    file holds.  Raises ValueError with the reason on any violation.
    """
    if not isinstance(word, str) or not word:
        raise ValueError(f"bad vocabulary word {word!r}")
    if not isinstance(recognized, bool):
        raise ValueError(f"{word}: recognized must be a boolean")
    if pos_name is None:
        pos = None
    elif isinstance(pos_name, str) and pos_name in _POS_NAMES:
        pos = _POS_NAMES[pos_name]
    else:
        raise ValueError(f"{word}: unknown pos {pos_name!r}")
    if recognized != (pos is not None):
        raise ValueError(f"{word}: recognized flag disagrees with pos")
    if not isinstance(counts, dict) or counts.keys() != _KIND_SET:
        raise ValueError(f"{word}: counts must cover all node kinds")
    for kind in KINDS:
        value = counts[kind]
        if type(value) is not int or value < 0:
            raise ValueError(f"{word}: bad count for {kind}")
    if type(total) is not int or total != sum(counts.values()) or total < 1:
        raise ValueError(f"{word}: total must equal the sum of counts")
    return pos


# Bump when the parse, the index format or the slot layout changes, so that
# no slot of an older format is read.
_SLOT_FORMAT = b"lexiscope-index-5"

# A slot stores a pos as its int value, or None.
_POS_OF_INT = {None: None, **{int(tag): tag for tag in PosTag}}
_NAME_OF_POS = {None: None, **{tag: name for name, tag in _POS_NAMES.items()}}

_ROW_LENGTH = 3 + len(KINDS)


def _head(vocabulary: ProjectVocabulary, node_columns, entries) -> tuple:
    """(project name, file count, five node columns, vocabulary rows, postings): an index slot's head, unmarshalled.

    The node columns are extractor._node_columns'; a node's id is its
    position.  A row is a word, its pos as an int or None, its total and
    its four counts in KINDS order, one per entry.  The postings are
    b"" until ProjectIndex.postings stores them, marshalled, in their place.
    """
    rows = tuple(
        (entry.word, None if entry.pos is None else int(entry.pos), entry.total,
         *[entry.counts_by_kind[kind] for kind in KINDS])
        for entry in entries
    )
    return (vocabulary.project_name, vocabulary.file_count, *node_columns, rows, b"")


def _checked_payload(nodes: list[SourceNode], vocabulary: ProjectVocabulary, entries: list[VocabularyEntry]):
    """The slot payload of the index save_index wrote, or None when its parse could not give it.

    The values go through the parse's own rules.  On top of those, every
    node must be a SourceNode whose id is its position, every pos a PosTag
    or None, and every string one that json.loads gives back as it is;
    a bool or float where an int goes already breaks a rule, and a str or
    int subclass is one marshal cannot write.
    """
    if not _good_metadata(vocabulary.project_name, vocabulary.file_count) or {*map(type, nodes)} - {SourceNode}:
        return None
    ids = [node.id for node in nodes]
    if {*map(type, ids)} - {int} or ids != list(range(len(ids))):
        return None
    node_columns = kinds, names, files, lines, parents = _node_columns(nodes)
    try:
        for position, kind, name, file_path, line, parent in zip(count(), kinds, names, files, lines, parents):
            _validate_node(kind, name, file_path, line, parent, nodes, position)
        for entry in entries:
            if entry.pos is not None and type(entry.pos) is not PosTag:
                return None
            _check_entry(entry.word, entry.recognized, _NAME_OF_POS[entry.pos], entry.total, entry.counts_by_kind)
    except ValueError:
        return None
    words = [entry.word for entry in entries]
    text = "\0".join([vocabulary.project_name, *set(files), *words])
    if len(set(words)) != len(words) or not text.isascii() and _SURROGATE_PAIR.search(text):
        return None
    try:
        return marshal.dumps(_head(vocabulary, node_columns, entries))
    except ValueError:  # a str or int subclass, which marshal cannot write
        return None


def _index_from_slot(payload: bytes) -> ProjectIndex | None:
    """The index a slot payload holds, or None for a bad shape.

    The tuple is checked here and kept as _stored; the nodes and entries
    are built from it on first access (ProjectIndex.__getattr__), the
    postings when locate reads them (ProjectIndex.postings).
    """
    try:
        stored = marshal.loads(payload)
    except (EOFError, ValueError, TypeError):
        return None
    if not (isinstance(stored, tuple) and len(stored) == 9):
        return None
    rows, postings = stored[7:]
    if not (_good_columns(stored[2:7]) and type(rows) is tuple and type(postings) is bytes):
        return None
    try:
        if not (all(type(row) is tuple and len(row) == _ROW_LENGTH and row[1] in _POS_OF_INT for row in rows)
                and len({row[0] for row in rows}) == len(rows)):
            return None
    except TypeError:  # an unhashable pos or word
        return None
    index = ProjectIndex.__new__(ProjectIndex)
    index._stored = stored
    return index
