"""Load a WordNet-format dictionary and answer word queries against it.

Works with the WordNet 3.x plain-text database layout: an ``index.<pos>``
and ``data.<pos>`` file per part of speech, plus optional ``<pos>.exc``
morphology exception lists.  Only the pieces this toolkit needs are kept:
lemmas, sense order, tag counts, synset membership, and the hypernym /
hyponym pointer graph.  Glosses, sense keys, verb frames and every other
pointer type are parsed past and dropped.
"""

from __future__ import annotations

import enum
import hashlib
import marshal
import threading
from bisect import bisect_right
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

from ._snapshot import Slot

__all__ = [
    "PosTag",
    "Lexicon",
    "LexiconError",
    "MissingFileError",
    "MalformedLineError",
    "SELF",
    "SYNONYM",
    "HYPERNYM",
    "HYPONYM",
    "RELATIONS",
    "load_lexicon",
    "lemmatize",
    "surface_forms",
    "classify",
    "related_words",
    "best_first",
]


class PosTag(enum.IntEnum):
    """The four parts of speech; numeric order doubles as tie-break rank."""

    NOUN = 1
    VERB = 2
    ADJECTIVE = 3
    ADVERB = 4

    def __str__(self) -> str:
        return self.name.lower()


# File suffix per tag, in load order.
_POS_FILES = {
    PosTag.NOUN: "noun",
    PosTag.VERB: "verb",
    PosTag.ADJECTIVE: "adj",
    PosTag.ADVERB: "adv",
}

# Index/data pos character to the plain int stored in the lexicon.  's' is
# the satellite-adjective synset type; it folds into ADJECTIVE.
_POS_CHARS = {
    "n": PosTag.NOUN.value,
    "v": PosTag.VERB.value,
    "a": PosTag.ADJECTIVE.value,
    "s": PosTag.ADJECTIVE.value,
    "r": PosTag.ADVERB.value,
}

_HYPERNYM_PTRS = ("@", "@i")
_HYPONYM_PTRS = ("~", "~i")

# Relation labels used throughout the toolkit.
SELF = "self"
SYNONYM = "synonym"
HYPERNYM = "hypernym"
HYPONYM = "hyponym"
RELATIONS = frozenset({SYNONYM, HYPERNYM, HYPONYM})

# Tie-break between relations at one distance; best_first's middle key.
_RELATION_RANK = {SELF: 0, SYNONYM: 1, HYPERNYM: 2, HYPONYM: 3}

# Morphy-style suffix detachments: (suffix, replacement) tried in order.
_DETACHMENTS: dict[PosTag, tuple[tuple[str, str], ...]] = {
    PosTag.NOUN: (
        ("s", ""),
        ("ses", "s"),
        ("xes", "x"),
        ("zes", "z"),
        ("ches", "ch"),
        ("shes", "sh"),
        ("ies", "y"),
    ),
    PosTag.VERB: (
        ("s", ""),
        ("ies", "y"),
        ("es", "e"),
        ("es", ""),
        ("ed", "e"),
        ("ed", ""),
        ("ing", "e"),
        ("ing", ""),
    ),
    PosTag.ADJECTIVE: (
        ("er", ""),
        ("est", ""),
        ("er", "e"),
        ("est", "e"),
    ),
    PosTag.ADVERB: (),
}

_VOWELS = set("aeiou")

# The tags in PosTag order, as a tuple: iterating the enum class itself
# costs an enum iterator on every lemmatize call.
_POS_ORDER = tuple(PosTag)


def _detachments_by_last_letter() -> dict[str, tuple[tuple[PosTag, str, str, bool], ...]]:
    """The detachments under the last letter of their suffix, in candidate order.

    Each is (pos, suffix, replacement, whether a doubled final consonant
    is undone too), by part of speech and then as _DETACHMENTS lists
    them.  Only a rule whose suffix ends in a token's last letter can
    detach from it, and dropping the others keeps the order of the rest.
    """
    table: dict[str, list] = {}
    for pos in _POS_ORDER:
        for suffix, replacement in _DETACHMENTS[pos]:
            undouble = suffix in ("ing", "ed") and not replacement
            table.setdefault(suffix[-1], []).append((pos, suffix, replacement, undouble))
    return {letter: tuple(rules) for letter, rules in table.items()}


_DETACHMENTS_BY_LAST = _detachments_by_last_letter()

# (offset, pos): a synset key.
SynsetKey = tuple[int, int]


class LexiconError(Exception):
    """Base error for dictionary loading problems."""


class MissingFileError(LexiconError):
    """A required index/data file is absent from the dictionary directory."""


class MalformedLineError(LexiconError):
    """A dictionary file line could not be parsed; loading aborts."""

    def __init__(self, file_name: str, line_number: int, reason: str):
        super().__init__(f"{file_name}, line {line_number}: {reason}")
        self.file_name = file_name
        self.line_number = line_number
        self.reason = reason


@dataclass(frozen=True)
class Lexicon:
    """A loaded dictionary: two read-only lemma and synset mappings and the exception lists.

    ``entries`` maps a lemma to ``{pos: (tag_count, synset keys in sense
    order)}``; ``synsets`` maps a ``(offset, pos)`` key to ``(lemmas,
    hypernym keys, hyponym keys)``; ``exceptions`` is a plain dict mapping a
    pos to its ``{inflected form: base forms}`` table.  A pos is the plain
    int value of its PosTag, which hashes and compares equal to it.

    ``entries`` and ``synsets`` are read-only mappings (``get``, ``[]``,
    ``in``, ``len`` and iteration, in no particular order), views of one
    list of pieces: each table's shards, then the class table that
    classification reads (see _Shards).  After a parse the list is whole.
    Read from the dictionary's snapshot, a shard is read from the
    snapshot's file, checked against its sha256 and unmarshalled the first
    time a key in it is looked up, so a command reads only the part of the
    dictionary it asks for; the first classification reads the class table
    whole, checked the same way, and no shard.  A piece that fails its
    check makes the lexicon parse the dictionary and answer every later
    lookup from that parse, which holds the same content; a lookup raises
    LexiconError instead when a dictionary file changed since the load.
    Nothing modifies a lexicon's content after loading, so it is safe to
    share across threads for reading: two threads may both load one piece,
    and either equal copy is kept; one parse serves them all.
    """

    entries: Mapping[str, dict[int, tuple[int, tuple[SynsetKey, ...]]]]
    synsets: Mapping[SynsetKey, tuple[tuple[str, ...], tuple[SynsetKey, ...], tuple[SynsetKey, ...]]]
    exceptions: dict[int, dict[str, tuple[str, ...]]]

    def __len__(self) -> int:
        return len(self.entries)


def load_lexicon(dictionary_directory: str | Path) -> Lexicon:
    """Load index/data (and optional .exc) files into a Lexicon.

    Raises MissingFileError if any index/data file is absent and
    MalformedLineError (with file and line number) on the first bad line:
    a line filed under another part of speech, a second index line for
    one lemma, a repeated synset offset, an unresolved offset or pointer,
    an indented line after the license header, or an exception line
    without a base form.

    A parse cuts its tables into the pieces a lexicon answers from and
    writes a snapshot of them to the directory's cache slot (see
    _snapshot), keyed by the content of every dictionary file and stamped
    with each file's stat signature; with no cache it marshals and hashes
    nothing.  Later loads of the same content read its header, then a
    shard at a time as lookups reach it and the class table whole when
    they classify, and hash no dictionary file while the stamp holds.  A
    snapshot that is missing, damaged, of other content or cannot be
    written only means a parse, so every error above comes from the parse,
    and so does one found damaged by a lookup (see Lexicon).
    """
    root = Path(dictionary_directory)
    for tag, suffix in _POS_FILES.items():
        for prefix in ("index", "data"):
            if not (root / f"{prefix}.{suffix}").is_file():
                raise MissingFileError(f"missing {prefix}.{suffix} in {root}")

    slot = Slot.of("lexicon", root, _SNAPSHOT_FORMAT, [root / name for name in _DICT_FILES])
    head = None if slot is None else slot.read()
    tables = None if head is None else _open_payload(head, slot.tail, lambda: _parse_again(root, slot))
    if tables is not None:
        return Lexicon(*tables)
    entries, synsets, exceptions = parse = _parse_lexicon(root)
    starts, pieces = _sharded(parse)
    if slot is not None:
        slot.write(*_snapshot_payload(parse, starts, pieces))
    shards = _Shards(pieces)
    return Lexicon(
        _ShardedTable(shards, 0, starts[0], len(entries)), _ShardedTable(shards, _SHARDS, starts[1], len(synsets)),
        exceptions,
    )


def _parse_again(root: Path, slot: Slot) -> list:
    """The pieces' dicts of a parse of the dictionary under root, for a snapshot a lookup found damaged; writes it again.

    The parse stands in for the snapshot the load read, so it must read
    the files the load's key was taken of: a file whose stat is not what
    the load found, before the parse or after it, raises LexiconError.
    """
    changed = slot.changed()
    if changed is None:
        parse = _parse_lexicon(root)
        changed = slot.changed()
    if changed is not None:
        raise LexiconError(f"{changed} changed since the dictionary was loaded")
    starts, pieces = _sharded(parse)
    slot.write(*_snapshot_payload(parse, starts, pieces))
    return pieces


def _parse_lexicon(root: Path):
    """Parse the dictionary files under root into (entries, synsets, exceptions)."""
    entries: dict[str, dict] = {}
    synsets: dict[SynsetKey, tuple] = {}
    exceptions: dict[int, dict] = {}

    for tag, suffix in _POS_FILES.items():
        pos = tag.value
        data_name = f"data.{suffix}"
        for line_no, fields in _dict_lines(root / data_name):
            offset, synset = _parse_data_line(fields, tag, data_name, line_no)
            if (offset, pos) in synsets:
                raise MalformedLineError(data_name, line_no, f"duplicate synset offset {offset}")
            synsets[offset, pos] = synset

        index_name = f"index.{suffix}"
        for line_no, fields in _dict_lines(root / index_name):
            lemma, offsets, tag_count = _parse_index_line(fields, tag, index_name, line_no)
            keys = tuple((offset, pos) for offset in offsets)
            for key in keys:
                if key not in synsets:
                    raise MalformedLineError(
                        index_name, line_no, f"offset {key[0]} not present in {data_name}"
                    )
            entry = entries.setdefault(lemma, {})
            if pos in entry:
                raise MalformedLineError(index_name, line_no, f"duplicate lemma {lemma!r}")
            entry[pos] = (tag_count, keys)

        exc_name = f"{suffix}.exc"
        if (root / exc_name).is_file():
            # inflected_form base_form...
            table = exceptions[pos] = {}
            for line_no, fields in _dict_lines(root / exc_name):
                if len(fields) == 1:
                    raise MalformedLineError(exc_name, line_no, "exception line without a base form")
                form, *bases = (field.lower() for field in fields)
                table[form] = tuple(bases)

    # Pointer targets must resolve; data files carry both directions.  Only
    # a failure reads the pointing file again, to find the line to report.
    for (offset, pos), (_lemmas, hypernyms, hyponyms) in synsets.items():
        for target in hypernyms + hyponyms:
            if target not in synsets:
                data_name = f"data.{_POS_FILES[pos]}"
                line_no = next(
                    (n for n, fields in _dict_lines(root / data_name) if int(fields[0]) == offset), 0
                )
                raise MalformedLineError(
                    data_name, line_no, f"pointer target {target[0]} ({PosTag(target[1])}) unresolved"
                )

    return entries, synsets, exceptions


def _dict_lines(path: Path):
    """Yield (line_number, fields) for real content lines of a dict file.

    WordNet files open with a license block whose lines start with spaces;
    that block and blank lines are skipped.  An indented line after the
    first content line is malformed.
    """
    in_header = True
    try:
        with open(path, encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                fields = line.split()
                if not fields:
                    continue
                if line[0] == " ":
                    if in_header:
                        continue
                    raise MalformedLineError(path.name, line_no, "indented line after the license header")
                in_header = False
                yield line_no, fields
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from exc


def _undecodable(path: Path, exc: UnicodeDecodeError) -> MalformedLineError:
    """The error for a file that is not UTF-8, at its first undecodable line.

    Text reads decode in chunks, so the line is found by reading the file
    again in binary; only a failed load pays for that.
    """
    with open(path, "rb") as handle:
        for line_no, raw in enumerate(handle, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                break
    return MalformedLineError(path.name, line_no, f"not UTF-8 text ({exc.reason})")


def _parse_index_line(fields: list[str], tag: PosTag, file_name: str, line_no: int):
    # lemma pos synset_cnt p_cnt [ptr_symbol...] sense_cnt tagsense_cnt offset...
    try:
        lemma = fields[0].lower()
        if _POS_CHARS[fields[1]] != tag:
            raise ValueError(f"pos {fields[1]!r} is not {tag}")
        synset_cnt = int(fields[2])
        p_cnt = int(fields[3])
        rest = fields[4 + p_cnt:]
        sense_cnt, tag_count = int(rest[0]), int(rest[1])
        if min(p_cnt, sense_cnt, tag_count) < 0:
            raise ValueError("negative count")
        offsets = [int(off) for off in rest[2 : 2 + synset_cnt]]
        if len(offsets) != synset_cnt or len(rest) != 2 + synset_cnt:
            raise ValueError("field count mismatch")
    except (IndexError, KeyError, ValueError) as exc:
        raise MalformedLineError(file_name, line_no, f"bad index line ({exc})") from exc
    if not lemma:
        raise MalformedLineError(file_name, line_no, "empty lemma")
    return lemma, offsets, tag_count


def _parse_data_line(fields: list[str], tag: PosTag, file_name: str, line_no: int):
    # offset lex_filenum ss_type w_cnt (word lex_id)+ p_cnt ptr* ... | gloss
    try:
        if "|" in fields:
            fields = fields[: fields.index("|")]
        offset = int(fields[0])
        if _POS_CHARS[fields[2]] != tag:
            raise ValueError(f"synset type {fields[2]!r} is not {tag}")
        w_cnt = int(fields[3], 16)
        lemmas = tuple(
            _strip_marker(fields[4 + 2 * i]).lower() for i in range(w_cnt)
        )
        cursor = 4 + 2 * w_cnt
        p_cnt = int(fields[cursor])
        if p_cnt < 0:
            raise ValueError("negative pointer count")
        hypernyms: list[SynsetKey] = []
        hyponyms: list[SynsetKey] = []
        for i in range(p_cnt):
            symbol, target, target_pos, _ = fields[cursor + 1 + 4 * i : cursor + 5 + 4 * i]
            target_key = (int(target), _POS_CHARS[target_pos])
            if symbol in _HYPERNYM_PTRS:
                hypernyms.append(target_key)
            elif symbol in _HYPONYM_PTRS:
                hyponyms.append(target_key)
        if not lemmas:
            raise ValueError("synset with no words")
    except (IndexError, KeyError, ValueError) as exc:
        raise MalformedLineError(file_name, line_no, f"bad data line ({exc})") from exc
    return offset, (lemmas, tuple(hypernyms), tuple(hyponyms))


def _strip_marker(word: str) -> str:
    # Adjective entries may carry a syntactic marker suffix: galore(ip)
    if word.endswith(")") and "(" in word:
        return word[: word.index("(")]
    return word


# Bump when the parse, the shape of its tables or the snapshot layout
# changes, so that no snapshot of an older format is read.
_SNAPSHOT_FORMAT = b"lexiscope-lexicon-7"

# Shards per table.  The tail holds the entry shards, the synset shards and
# then the class table, which is piece number _TABLE.
_SHARDS = 1024
_TABLE = 2 * _SHARDS

# Every file a load reads, in a fixed order; an optional file that is
# absent hashes as _snapshot.ABSENT in place of its digest.
_DICT_FILES = tuple(
    name
    for suffix in _POS_FILES.values()
    for name in (f"index.{suffix}", f"data.{suffix}", f"{suffix}.exc")
)


class _Shards:
    """The pieces a lexicon answers from, in one list: the entry shards, the synset shards, then the class table.

    A parse fills the list whole.  Read from a snapshot, the list starts
    all None, and piece i, the tail's bytes ``bounds[i]`` to ``bounds[i +
    1]``, is read and checked against its sha256, ``digests[32 * i : 32 *
    i + 32]``, the first time it is asked for; an empty range is an empty
    shard.  Two threads may both load one piece, and either equal copy
    stays.  A piece that fails its check was damaged after the load
    checked the slot's own sha256: reparse, a parse of the dictionary,
    then refills the whole list in place, run by the first thread to find
    damage while the others wait for it.
    """

    __slots__ = ("pieces", "_tail", "_bounds", "_digests", "_reparse", "_lock")

    def __init__(self, pieces: list, tail=b"", bounds: tuple[int, ...] = (), digests: bytes = b"", reparse=None):
        self.pieces = pieces
        self._tail = tail
        self._bounds = bounds
        self._digests = digests
        self._reparse = reparse
        self._lock = threading.Lock()

    def load(self, number: int):
        piece = self.pieces[number]
        if piece is None:
            blob = self._tail[self._bounds[number] : self._bounds[number + 1]]
            if hashlib.sha256(blob).digest() != self._digests[32 * number : 32 * number + 32]:
                with self._lock:
                    if self.pieces[number] is None:
                        self.pieces[:] = self._reparse()
                return self.pieces[number]
            piece = self.pieces[number] = marshal.loads(blob) if blob else {}
        return piece


class _ShardedTable(Mapping):
    """A read-only mapping stored as _SHARDS pieces of a _Shards, each loaded on first touch.

    The shards hold the keys in sorted ranges: ``starts`` is the first key
    of each shard but the first, so a key belongs to shard
    ``bisect_right(starts, key)``, which is piece ``first`` plus that of
    ``shards``.  The table holds the pieces' list itself, so a loaded
    shard is one index away.
    """

    __slots__ = ("_shards", "_pieces", "_first", "_starts", "_count")

    def __init__(self, shards: _Shards, first: int, starts: tuple, count: int):
        self._shards = shards
        self._pieces = shards.pieces
        self._first = first
        self._starts = starts
        self._count = count

    def _shard(self, key) -> dict | None:
        """The shard that would hold key, loaded; None for a key no key of the table compares with."""
        try:
            number = self._first + bisect_right(self._starts, key)
        except TypeError:
            return None
        shard = self._pieces[number]
        return self._shards.load(number) if shard is None else shard

    def get(self, key, default=None):
        shard = self._shard(key)
        return default if shard is None else shard.get(key, default)

    def __getitem__(self, key):
        shard = self._shard(key)
        if shard is None:
            raise KeyError(key)
        return shard[key]

    def __contains__(self, key) -> bool:
        shard = self._shard(key)
        return shard is not None and key in shard

    def __iter__(self):
        for number in range(self._first, self._first + _SHARDS):
            yield from self._shards.load(number)

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:
        return f"<{type(self).__name__} of {self._count} keys>"


def _sharded(tables):
    """(entry starts, synset starts) of a parse's (entries, synsets, exceptions), and the list of its pieces' dicts.

    Each table's keys are sorted and cut into _SHARDS ranges of near-equal
    size, and each range is a shard, a dict: _SHARDS of entries, then
    _SHARDS of synsets, then the _class_table of the entry shards.  A
    table's starts are the first keys of all its ranges but the first
    (none for an empty table).
    """
    cut = []
    for table in tables[:2]:
        keys = sorted(table)
        cut.append((table, keys, [number * len(keys) // _SHARDS for number in range(_SHARDS + 1)]))
    starts = tuple(tuple(keys[index] for index in cuts[1:-1]) if keys else () for _table, keys, cuts in cut)
    pieces = [
        {key: table[key] for key in keys[low:high]} for table, keys, cuts in cut for low, high in zip(cuts, cuts[1:])
    ]
    pieces.append(_class_table(pieces[:_SHARDS]))
    return starts, pieces


def _class_table(shards) -> dict[str, tuple[int | None, ...]]:
    """The class table of the entries in shards, dicts from lemma to entry, in their order.

    It maps each lemma to its tag count under each part of speech in
    PosTag order, None where it lacks that part of speech.  Equal count
    tuples are one object (415 serve the 126,105 lemmas of the benchmark's
    seed-1 dictionary), and marshal writes each once, so the table
    unmarshals straight into the dict that classification looks lemmas up
    in, in less time and memory than a lemma column, a counts column and a
    dict built from them.
    """
    table = {}
    shared = {}
    share = shared.setdefault
    for shard in shards:
        for lemma, entry in shard.items():
            counts = [None, None, None, None]
            for pos, found in entry.items():
                counts[pos - 1] = found[0]
            counts = tuple(counts)
            table[lemma] = share(counts, counts)
    return table


def _snapshot_payload(tables, starts, pieces) -> tuple[bytes, list[bytes]]:
    """The snapshot of (entries, synsets, exceptions), which _sharded cut: its head, the marshalled header, and its tail's pieces.

    The header is ``(entry count, synset count, exceptions, entry starts,
    synset starts, bounds, digests)``, and the tail's pieces are each of
    _sharded's dicts marshalled on its own, back to back.  ``bounds``
    holds 2 * _SHARDS + 2 offsets into the tail, and an empty shard has
    no bytes; ``digests`` is the sha256s of the pieces' bytes, back to
    back.  A dictionary's payload depends on its content alone, not on the
    process or the order of its files' lines.

    Key ranges rather than a hash: the parse makes its objects in file
    order, which is near key order, so a dump in key order reads memory
    nearly in sequence, about three times faster than in hash order.
    """
    entries, synsets, exceptions = tables
    blobs = [marshal.dumps(shard) if shard else b"" for shard in pieces[:_TABLE]]
    blobs.append(marshal.dumps(pieces[_TABLE]))
    bounds = (0, *accumulate(map(len, blobs)))
    digests = b"".join(hashlib.sha256(blob).digest() for blob in blobs)
    header = marshal.dumps((len(entries), len(synsets), exceptions, *starts, bounds, digests))
    return header, blobs


def _in_order(values) -> bool:
    try:
        return list(values) == sorted(values)
    except TypeError:
        return False


def _open_payload(head: bytes, tail, reparse):
    """The (entries, synsets, exceptions) of a snapshot's head and tail, or None for a bad one.

    Only the header is unmarshalled here; tail is read as lookups reach
    its pieces (see _Shards, which calls reparse for a damaged one).  A
    header that does not unmarshal or is of another shape, offsets that do
    not run in order from 0 to the end of the tail, an empty class table,
    digests of the wrong length, starts out of order or of the wrong
    number, or a count that is negative or is zero where its shards hold
    bytes (or the reverse), gives None.
    """
    try:
        header = marshal.loads(head)
    except (EOFError, ValueError, TypeError):
        return None
    if not (isinstance(header, tuple) and len(header) == 7):
        return None
    entry_count, synset_count, exceptions, entry_starts, synset_starts, bounds, digests = header
    if not (
        isinstance(bounds, tuple)
        and len(bounds) == _TABLE + 2
        and all(type(bound) is int for bound in bounds)
        and bounds[0] == 0
        and bounds[_TABLE] < bounds[-1] == len(tail)
        and _in_order(bounds)
        and type(digests) is bytes
        and len(digests) == 32 * (_TABLE + 1)
        and isinstance(exceptions, dict)
    ):
        return None
    tables = []
    for count, starts, low, high in (
        (entry_count, entry_starts, bounds[0], bounds[_SHARDS]),
        (synset_count, synset_starts, bounds[_SHARDS], bounds[_TABLE]),
    ):
        if not (
            type(count) is int and count >= 0
            and (count > 0) == (high > low)
            and isinstance(starts, tuple)
            and len(starts) == (_SHARDS - 1 if count else 0)
            and _in_order(starts)
        ):
            return None
        tables.append((starts, count))
    shards = _Shards([None] * (_TABLE + 1), tail, bounds, digests, reparse)
    return _ShardedTable(shards, 0, *tables[0]), _ShardedTable(shards, _SHARDS, *tables[1]), exceptions


def lemmatize(lexicon: Lexicon, token: str) -> list[tuple[str, PosTag]]:
    """All (lemma, pos) readings of a token, exact matches first.

    The exact index entry's parts of speech come first, then the
    _inflections candidates whose lemma has that part of speech, each
    reading once.  An empty list means the token is unrecognized.
    """
    entries = lexicon.entries
    exact = entries.get(token, ())
    readings = [(token, pos) for pos in _POS_ORDER if pos in exact]
    for lemma, pos in _inflections(token, _exception_tables(lexicon)):
        if pos in entries.get(lemma, ()) and (lemma, pos) not in readings:
            readings.append((lemma, pos))
    return readings


def _exception_tables(lexicon: Lexicon) -> list[tuple[PosTag, dict[str, tuple[str, ...]]]]:
    return [(pos, table) for pos in _POS_ORDER if (table := lexicon.exceptions.get(pos))]


def _inflections(token: str, exceptions) -> Iterator[tuple[str, PosTag]]:
    """The (lemma, pos) candidates of a token other than its exact entry, in lemmatize's order.

    ``exceptions`` is _exception_tables of the lexicon.  The candidates
    are the token's base forms in each exception table, then the stem of
    each suffix detachment that fits the token; after a bare -ing/-ed
    detachment a doubled final consonant is also undone (running -> runn
    -> run).  Nothing is looked up: a candidate may name no entry, or one
    without its part of speech, and may repeat.
    """
    for pos, table in exceptions:
        for lemma in table.get(token, ()):
            yield lemma, pos
    for pos, suffix, replacement, undouble in _DETACHMENTS_BY_LAST.get(token[-1:], ()):
        if not token.endswith(suffix) or len(token) <= len(suffix):
            continue
        stem = token[: -len(suffix)] + replacement
        yield stem, pos
        if undouble and _ends_doubled(stem):
            yield stem[:-1], pos


def _ends_doubled(stem: str) -> bool:
    return len(stem) >= 2 and stem[-1] == stem[-2] and stem[-1] not in _VOWELS


def surface_forms(lexicon: Lexicon, words) -> dict[str, set[str]]:
    """lemmatize inverted over a set of words: each token to the words it reads as.

    Maps every token that lemmatize reads as one of ``words`` (other than
    by the token being that word) to those words.  A token's readings
    among ``words`` are then ``({token} & words) | forms.get(token, set())``,
    found without looking the token up.  The forms come from the same rules
    as lemmatize, run backwards for each part of speech a word has: the
    exception-list forms whose base forms include the word, ``base +
    suffix`` for each detachment whose replacement ends the word, and the
    doubled final consonant before a bare -ing or -ed detachment (run ->
    running).
    """
    words = set(words)
    # The exception tables inverted once: (base form, pos) -> inflected forms.
    inflected: dict[tuple[str, int], list[str]] = {}
    for pos, table in lexicon.exceptions.items():
        for form, bases in table.items():
            for base in bases:
                if base in words:
                    inflected.setdefault((base, pos), []).append(form)

    forms: dict[str, set[str]] = {}
    for word in words:
        entry = lexicon.entries.get(word)
        if entry is None:
            continue
        for pos in entry:
            for form in inflected.get((word, pos), ()):
                forms.setdefault(form, set()).add(word)
            for suffix, replacement in _DETACHMENTS[pos]:
                base = word[: len(word) - len(replacement)]
                if not base or not word.endswith(replacement):
                    continue
                forms.setdefault(base + suffix, set()).add(word)
                if suffix in ("ing", "ed") and not replacement and _ends_doubled(word + word[-1]):
                    forms.setdefault(word + word[-1] + suffix, set()).add(word)
    return forms


def classify(lexicon: Lexicon, word: str) -> tuple[str, PosTag] | None:
    """Best (lemma, pos) reading of a word, or None if unrecognized.

    The readings are lemmatize's.  The winning part of speech is the one
    whose best candidate has the highest tag count; ties go to the lower
    PosTag (noun first).  Within a part of speech, the first candidate of
    the highest count wins.
    """
    return _classify_all(lexicon, (word,))[word]


def _classify_all(lexicon: Lexicon, words) -> dict[str, tuple[str, PosTag] | None]:
    """classify of each of the words, as a dict from each word to its reading.

    The candidates are lemmatize's, in its order, taken as they come: a
    part of speech keeps its first candidate of the highest tag count, so
    a repeated candidate can never replace it, and no candidate list or
    seen-set is needed.  Each candidate is looked up in the lexicon's class
    table (piece _TABLE of its _Shards), which holds every lemma's tag counts.
    """
    table = lexicon.entries._shards.load(_TABLE)
    exceptions = _exception_tables(lexicon)
    readings: dict[str, tuple[str, PosTag] | None] = {}
    for word in words:
        token = word.lower()
        # pos -> (tag count, lemma) of its best candidate so far; an exact
        # match is the first candidate of each of its parts of speech.
        best = {}
        counts = table.get(token)
        if counts is not None:
            for pos, found in zip(_POS_ORDER, counts):
                if found is not None:
                    best[pos] = (found, token)
        for lemma, pos in _inflections(token, exceptions):
            counts = table.get(lemma)
            if counts is not None:
                found = counts[pos - 1]
                if found is not None and (pos not in best or found > best[pos][0]):
                    best[pos] = (found, lemma)
        reading = None
        top = -1
        for pos in _POS_ORDER:  # ties go to the lower tag
            found = best.get(pos)
            if found is not None and found[0] > top:
                top, reading = found[0], (found[1], pos)
        readings[word] = reading
    return readings


def related_words(
    lexicon: Lexicon,
    word: str,
    relations: frozenset[str] | set[str],
    depth: int,
) -> set[tuple[str, str, int]]:
    """Words related to `word`, as (word, relation, distance) triples.

    Always contains (word, "self", 0).  Synonyms are co-members of any
    synset of the word (distance 1); hypernyms/hyponyms are lemmas of
    synsets reached by up to `depth` pointer hops.  Every relation obeys
    distance <= depth, so depth 0 yields only the self entry.  Seeds come
    from every part of speech the word has.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    result: set[tuple[str, str, int]] = {(word, SELF, 0)}
    entry = lexicon.entries.get(word)
    if entry is None or depth == 0:
        return result

    seeds = [key for _count, keys in entry.values() for key in keys]

    if SYNONYM in relations:
        for key in seeds:
            for lemma in lexicon.synsets[key][0]:
                if lemma != word:
                    result.add((lemma, SYNONYM, 1))

    # Slot 1 of a synset holds its hypernym keys, slot 2 its hyponym keys.
    for relation, slot in ((HYPERNYM, 1), (HYPONYM, 2)):
        if relation not in relations:
            continue
        frontier = list(seeds)
        visited = set(seeds)
        for distance in range(1, depth + 1):
            reached: list[SynsetKey] = []
            for key in frontier:
                for target in lexicon.synsets[key][slot]:
                    if target not in visited:
                        visited.add(target)
                        reached.append(target)
            for target in reached:
                for lemma in lexicon.synsets[target][0]:
                    result.add((lemma, relation, distance))
            frontier = reached
            if not frontier:
                break

    return result


def best_first(triples) -> list[tuple[str, str, int]]:
    """Related-word triples, best first.

    Nearer distance first; at one distance self, synonym, hypernym, then
    hyponym; then the word alphabetically.  The self entry (distance 0)
    always leads.  Where several related words are present, locate and
    domain report the first one in this order.
    """
    return sorted(triples, key=lambda t: (t[2], _RELATION_RANK[t[1]], t[0]))
