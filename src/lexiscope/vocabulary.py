"""Build per-project software vocabularies and their summary statistics.

Every node name is split into tokens; tokens that pass the filter are
counted once per occurrence, under their best dictionary lemma when
recognized (so "value" and "values" merge) or under their raw text when
not.  Counts are kept separately for class, method, parameter, and field
nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from importlib import resources
from pathlib import Path

from .extractor import KINDS, SourceNode
from .lexicon import Lexicon, PosTag, classify
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
    """
    vocabulary = ProjectVocabulary(project_name, file_count)
    # Token classification is pure per token; memoize across occurrences.
    classified: dict[str, tuple[str, PosTag] | None] = {}

    for node in nodes:
        for token in split_identifier(node.name):
            if len(token) < 2 or token in stoplist:
                continue
            if token not in classified:
                classified[token] = classify(lexicon, token)
            found = classified[token]
            if found is None:
                word, pos = token, None
            else:
                word, pos = found
            entry = vocabulary.entries.get(word)
            if entry is None:
                entry = VocabularyEntry(
                    word=word,
                    recognized=pos is not None,
                    pos=pos,
                    total=0,
                    counts_by_kind={kind: 0 for kind in KINDS},
                )
                vocabulary.entries[word] = entry
            entry.total += 1
            entry.counts_by_kind[node.kind] += 1

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
