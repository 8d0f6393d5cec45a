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
import marshal
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

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
    ``in``, ``len`` and iteration, in no particular order).  After a parse
    they are read-only proxies of its tables.  Read from the dictionary's
    snapshot, each unmarshals a shard of its table the first time a key in
    that shard is looked up, so a command reads only the part of the
    dictionary it asks for.  Nothing modifies a lexicon's content after
    loading, so it is safe to share across threads for reading: two threads
    may both load one shard, and either equal copy is kept.
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

    A parse writes a snapshot of its tables to the directory's cache slot
    (see _snapshot), keyed by the content of every dictionary file and
    stamped with each file's stat signature; later loads of the same
    content read it, a shard at a time as lookups reach it, and hash no
    dictionary file while the stamp holds.  A snapshot that is missing,
    damaged, of other content or cannot be written only means a parse, so
    every error above comes from the parse.
    """
    root = Path(dictionary_directory)
    for tag, suffix in _POS_FILES.items():
        for prefix in ("index", "data"):
            if not (root / f"{prefix}.{suffix}").is_file():
                raise MissingFileError(f"missing {prefix}.{suffix} in {root}")

    slot = Slot.of("lexicon", root, _SNAPSHOT_FORMAT, [root / name for name in _DICT_FILES])
    payload = None if slot is None else slot.read()
    tables = None if payload is None else _open_payload(payload)
    if tables is not None:
        return Lexicon(*tables)
    tables = _parse_lexicon(root)
    if slot is not None:
        slot.write(_snapshot_payload(tables))
    entries, synsets, exceptions = tables
    return Lexicon(MappingProxyType(entries), MappingProxyType(synsets), exceptions)


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
_SNAPSHOT_FORMAT = b"lexiscope-lexicon-5"

# Shards per table.
_SHARDS = 1024

# Every file a load reads, in a fixed order; an optional file that is
# absent hashes as _snapshot.ABSENT in place of its digest.
_DICT_FILES = tuple(
    name
    for suffix in _POS_FILES.values()
    for name in (f"index.{suffix}", f"data.{suffix}", f"{suffix}.exc")
)


class _ShardedTable(Mapping):
    """A read-only mapping stored as marshalled shards, each loaded on first touch.

    The shards hold the keys in sorted ranges: ``starts`` is the first key
    of each shard but the first, so a key belongs to shard
    ``bisect_right(starts, key)``.  ``view`` holds the shards back to back;
    shard i is ``view[bounds[i]:bounds[i + 1]]``, and an empty slice is an
    empty shard.  Slices of a memoryview share the snapshot's buffer, so
    no shard is copied before marshal reads it.
    """

    __slots__ = ("_view", "_bounds", "_starts", "_count", "_loaded")

    def __init__(self, view: memoryview, bounds: tuple[int, ...], starts: tuple, count: int):
        self._view = view
        self._bounds = bounds
        self._starts = starts
        self._count = count
        self._loaded: list[dict | None] = [None] * (len(bounds) - 1)

    def _load(self, index: int) -> dict:
        start, end = self._bounds[index], self._bounds[index + 1]
        # Two threads may both get here for one shard; either equal copy stays.
        shard = self._loaded[index] = marshal.loads(self._view[start:end]) if end > start else {}
        return shard

    def _shard(self, key) -> dict | None:
        """The shard that would hold key, loaded; None for a key no key of the table compares with."""
        try:
            index = bisect_right(self._starts, key)
        except TypeError:
            return None
        shard = self._loaded[index]
        return self._load(index) if shard is None else shard

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
        for index, shard in enumerate(self._loaded):
            yield from self._load(index) if shard is None else shard

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:
        return f"<{type(self).__name__} of {self._count} keys>"


def _snapshot_payload(tables) -> list[bytes]:
    """The snapshot payload of (entries, synsets, exceptions) in chunks: a header, then the shards.

    The payload is the header's length (8 bytes, little-endian), the
    marshalled header ``(entry count, synset count, exceptions, entry
    starts, synset starts, bounds)``, then the marshalled shards back to
    back: _SHARDS of entries, then _SHARDS of synsets.  Each table's keys
    are sorted and cut into _SHARDS ranges of near-equal size; its starts
    are the first keys of all ranges but the first (none for an empty
    table).  ``bounds`` holds 2 * _SHARDS + 1 offsets into the shard bytes;
    an empty shard has no bytes.  A dictionary's payload depends on its
    content alone, not on the process or the order of its files' lines.

    Key ranges rather than a hash: the parse makes its objects in file
    order, which is near key order, so a dump in key order reads memory
    nearly in sequence, about three times faster than in hash order.
    """
    entries, synsets, exceptions = tables
    shards: list[bytes] = []
    bounds = [0]
    starts = []
    for table in (entries, synsets):
        keys = sorted(table)
        cuts = [number * len(keys) // _SHARDS for number in range(_SHARDS + 1)]
        starts.append(tuple(keys[cut] for cut in cuts[1:-1]) if keys else ())
        for low, high in zip(cuts, cuts[1:]):
            shards.append(marshal.dumps({key: table[key] for key in keys[low:high]}) if high > low else b"")
            bounds.append(bounds[-1] + len(shards[-1]))
    header = marshal.dumps((len(entries), len(synsets), exceptions, *starts, tuple(bounds)))
    return [len(header).to_bytes(8, "little"), header, *shards]


def _in_order(values) -> bool:
    try:
        return list(values) == sorted(values)
    except TypeError:
        return False


def _open_payload(payload: memoryview):
    """The (entries, synsets, exceptions) of a snapshot payload, or None for a bad one.

    Only the header is unmarshalled here.  A header that does not
    unmarshal or is of another shape, offsets that do not run in order from
    0 to the end of the shards, starts out of order or of the wrong number,
    or a count that is negative or is zero where its shards hold bytes (or
    the reverse), gives None.
    """
    size = int.from_bytes(payload[:8], "little")
    if len(payload) < 8 + size:
        return None
    try:
        header = marshal.loads(payload[8 : 8 + size])
    except (EOFError, ValueError, TypeError):
        return None
    if not (isinstance(header, tuple) and len(header) == 6):
        return None
    entry_count, synset_count, exceptions, entry_starts, synset_starts, bounds = header
    shards = payload[8 + size :]
    if not (
        isinstance(bounds, tuple)
        and len(bounds) == 2 * _SHARDS + 1
        and all(type(bound) is int for bound in bounds)
        and bounds[0] == 0
        and bounds[-1] == len(shards)
        and _in_order(bounds)
        and isinstance(exceptions, dict)
    ):
        return None
    tables = []
    for count, starts, low, high in (
        (entry_count, entry_starts, bounds[0], bounds[_SHARDS]),
        (synset_count, synset_starts, bounds[_SHARDS], bounds[-1]),
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
    return (
        _ShardedTable(shards, bounds[: _SHARDS + 1], *tables[0]),
        _ShardedTable(shards, bounds[_SHARDS:], *tables[1]),
        exceptions,
    )


def lemmatize(lexicon: Lexicon, token: str) -> list[tuple[str, PosTag]]:
    """All (lemma, pos) readings of a token, exact matches first.

    Candidates come from the exact index entry, the exception lists, and
    the suffix-detachment rules; for bare -ing/-ed detachment a doubled
    final consonant is also undone (running -> runn -> run).  An empty
    list means the token is unrecognized.
    """
    candidates: list[tuple[str, PosTag]] = []
    seen: set[tuple[str, PosTag]] = set()

    def push(lemma: str, pos: PosTag) -> None:
        entry = lexicon.entries.get(lemma)
        if entry is None or pos not in entry:
            return
        if (lemma, pos) not in seen:
            seen.add((lemma, pos))
            candidates.append((lemma, pos))

    for pos in _POS_ORDER:
        push(token, pos)

    for pos in _POS_ORDER:
        for lemma in lexicon.exceptions.get(pos, {}).get(token, ()):
            push(lemma, pos)

    for pos in _POS_ORDER:
        for suffix, replacement in _DETACHMENTS[pos]:
            if not token.endswith(suffix) or len(token) <= len(suffix):
                continue
            stem = token[: -len(suffix)] + replacement
            push(stem, pos)
            if suffix in ("ing", "ed") and not replacement and _ends_doubled(stem):
                push(stem[:-1], pos)

    return candidates


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

    The winning part of speech is the one whose best candidate has the
    highest tag count; ties go to the lower PosTag (noun first).
    """
    best: dict[PosTag, tuple[int, str]] = {}
    for lemma, pos in lemmatize(lexicon, word.lower()):
        count = lexicon.entries[lemma][pos][0]
        if pos not in best or count > best[pos][0]:
            best[pos] = (count, lemma)
    if not best:
        return None
    pos = max(best, key=lambda tag: (best[tag][0], -tag))
    return best[pos][1], pos


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
