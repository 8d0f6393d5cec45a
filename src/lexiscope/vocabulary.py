"""Build per-project software vocabularies and their summary statistics.

Every node name is split into tokens; tokens that pass the filter are
counted once per occurrence, under their best dictionary lemma when
recognized (so "value" and "values" merge) or under their raw text when
not.  Counts are kept separately for class, method, parameter, and field
nodes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dataclass_field
from importlib import resources
from operator import attrgetter
from pathlib import Path

from .extractor import KINDS, SourceNode
# build_vocabulary classifies through _classify_all; classify stays a name of
# this module, where perfbench/layers.py wraps it.
from .lexicon import Lexicon, PosTag, _classify_all, classify  # noqa: F401
from .tokenizer import split_identifier

__all__ = [
    "VocabularyEntry",
    "ProjectVocabulary",
    "load_stoplist",
    "default_stoplist",
    "build_vocabulary",
    "compute_stats",
    "top_k",
    "percent",
]


@dataclass
class VocabularyEntry:
    """Counts for one vocabulary word.

    `word` is the index lemma when the word is recognized, the raw token
    otherwise; `pos` is present exactly when `recognized` is set.
    """

    word: str
    recognized: bool
    pos: PosTag | None
    total: int
    counts_by_kind: dict[str, int]


@dataclass
class ProjectVocabulary:
    project_name: str
    file_count: int
    entries: dict[str, VocabularyEntry] = dataclass_field(default_factory=dict)


def percent(numerator: int, denominator: int) -> int:
    """Whole-number percentage, rounded half-up; 0 when denominator is 0."""
    if denominator == 0:
        return 0
    return (200 * numerator + denominator) // (2 * denominator)


def load_stoplist(path: str | Path) -> frozenset[str]:
    """Read a stoplist file: one lowercase word per line, '#' comments."""
    words = set()
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        word = line.split("#", 1)[0].strip()
        if word:
            words.add(word.lower())
    return frozenset(words)


def default_stoplist() -> frozenset[str]:
    """The stoplist shipped with the package."""
    with resources.as_file(resources.files("lexiscope") / "data/stoplist.txt") as path:
        return load_stoplist(path)


def build_vocabulary(
    nodes: list[SourceNode],
    lexicon: Lexicon,
    stoplist: frozenset[str] = frozenset(),
    *,
    project_name: str = "",
    file_count: int = 0,
) -> ProjectVocabulary:
    """Count every token occurrence from the given nodes.

    Tokens in `stoplist` and tokens shorter than two characters are dropped.
    The entries are in the order their words first occur, in node order,
    and an entry takes the part of speech of the first token, in node
    order, that reads as its word: with `neck` a noun and a verb,
    `necking` before `neck` makes the entry `neck` a verb.
    """
    vocabulary = ProjectVocabulary(project_name, file_count)
    names_of: dict[str, list[str]] = {kind: [] for kind in KINDS}
    for node in nodes:
        names_of[node.kind].append(node.name)
    # Each token at its first occurrence.  A name first occurs no later
    # than its tokens do, so the distinct names give the tokens' order.
    tokens = [
        token
        for token in dict.fromkeys(split_identifier(" ".join(dict.fromkeys(map(attrgetter("name"), nodes)))))
        if len(token) >= 2 and token not in stoplist
    ]
    entries = vocabulary.entries
    entry_of: dict[str, VocabularyEntry] = {}
    for token, found in _classify_all(lexicon, tokens).items():
        word, pos = (token, None) if found is None else found
        entry = entries.get(word)
        if entry is None:
            entry = entries[word] = VocabularyEntry(word, pos is not None, pos, 0, dict.fromkeys(KINDS, 0))
        entry_of[token] = entry
    # The names of one kind split in one call: the pieces are letter runs,
    # so those of the names joined by a space are each name's in turn.
    for kind, names in names_of.items():
        for token, count in Counter(split_identifier(" ".join(names))).items():
            entry = entry_of.get(token)
            if entry is not None:
                entry.counts_by_kind[kind] += count
                entry.total += count
    return vocabulary


def compute_stats(vocabulary: ProjectVocabulary) -> dict[str, int]:
    """Distinct-word totals, recognition split, and POS breakdown.

    Keys, in this order: files, distinct_words, then recognized,
    unrecognized, nouns, verbs, adjectives and adverbs, each followed by
    its whole percent (half-up) under `<key>_pct`: recognized and
    unrecognized over distinct_words, each part of speech over recognized.
    Identities: recognized + unrecognized == distinct_words and
    nouns + verbs + adjectives + adverbs == recognized.
    """
    pos_counts = {tag: 0 for tag in PosTag}
    for entry in vocabulary.entries.values():
        if entry.recognized:
            pos_counts[entry.pos] += 1
    distinct = len(vocabulary.entries)
    recognized = sum(pos_counts.values())
    stats = {"files": vocabulary.file_count, "distinct_words": distinct}
    for key, count, whole in (
        ("recognized", recognized, distinct),
        ("unrecognized", distinct - recognized, distinct),
        ("nouns", pos_counts[PosTag.NOUN], recognized),
        ("verbs", pos_counts[PosTag.VERB], recognized),
        ("adjectives", pos_counts[PosTag.ADJECTIVE], recognized),
        ("adverbs", pos_counts[PosTag.ADVERB], recognized),
    ):
        stats[key] = count
        stats[key + "_pct"] = percent(count, whole)
    return stats


def top_k(vocabulary: ProjectVocabulary, k: int) -> list[VocabularyEntry]:
    """The k most used entries; ties broken alphabetically."""
    if k < 0:
        raise ValueError("k must be >= 0")
    ranked = sorted(vocabulary.entries.values(), key=lambda e: (-e.total, e.word))
    return ranked[:k]
