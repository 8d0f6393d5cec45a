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
from dataclasses import dataclass
from pathlib import Path

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
    """A loaded dictionary as plain, marshal-native data.

    ``entries`` maps a lemma to ``{pos: (tag_count, synset keys in sense
    order)}``; ``synsets`` maps a ``(offset, pos)`` key to ``(lemmas,
    hypernym keys, hyponym keys)``; ``exceptions`` maps a pos to its
    ``{inflected form: base forms}`` table.  A pos is the plain int value
    of its PosTag, which hashes and compares equal to it.  Nothing modifies
    a lexicon after loading, so it is safe to share across threads for
    reading.
    """

    entries: dict[str, dict[int, tuple[int, tuple[SynsetKey, ...]]]]
    synsets: dict[SynsetKey, tuple[tuple[str, ...], tuple[SynsetKey, ...], tuple[SynsetKey, ...]]]
    exceptions: dict[int, dict[str, tuple[str, ...]]]

    def __len__(self) -> int:
        return len(self.entries)


def load_lexicon(dictionary_directory: str | Path) -> Lexicon:
    """Parse index/data (and optional .exc) files into a Lexicon.

    Raises MissingFileError if any index/data file is absent and
    MalformedLineError (with file and line number) on the first bad line:
    a line filed under another part of speech, a second index line for
    one lemma, a repeated synset offset, an unresolved offset or pointer,
    an indented line after the license header, or an exception line
    without a base form.
    """
    root = Path(dictionary_directory)
    for tag, suffix in _POS_FILES.items():
        for prefix in ("index", "data"):
            if not (root / f"{prefix}.{suffix}").is_file():
                raise MissingFileError(f"missing {prefix}.{suffix} in {root}")

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
            exceptions[pos] = _parse_exceptions(root / exc_name)

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

    return Lexicon(entries, synsets, exceptions)


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
        tag_count = int(rest[1])
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


def _parse_exceptions(path: Path) -> dict[str, tuple[str, ...]]:
    # inflected_form base_form...
    table: dict[str, tuple[str, ...]] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                words = line.lower().split()
                if len(words) == 1:
                    raise MalformedLineError(path.name, line_no, "exception line without a base form")
                if words:
                    table[words[0]] = tuple(words[1:])
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from exc
    return table


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
