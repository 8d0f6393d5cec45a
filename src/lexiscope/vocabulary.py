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
    "FilterConfig",
    "VocabularyEntry",
    "ProjectVocabulary",
    "ProjectStats",
    "load_stoplist",
    "build_vocabulary",
    "compute_stats",
    "top_k",
    "percent",
]


@dataclass(frozen=True)
class FilterConfig:
    """Which tokens are dropped before counting: stoplist words and single characters."""

    stoplist: frozenset[str] = frozenset()

    def keeps(self, token: str) -> bool:
        return len(token) >= 2 and token not in self.stoplist

    @classmethod
    def default(cls) -> "FilterConfig":
        """The filter with the stoplist shipped with the package."""
        with resources.as_file(resources.files("lexiscope") / "data/stoplist.txt") as path:
            return cls(stoplist=load_stoplist(path))


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


@dataclass(frozen=True)
class ProjectStats:
    """Distinct-word statistics of one project vocabulary.

    Identities: recognized + unrecognized == total_words and
    nouns + verbs + adjectives + adverbs == recognized.  Percentages are
    whole percents (half-up): recognized/unrecognized over total_words,
    each part of speech over recognized.
    """

    file_count: int
    total_words: int
    recognized: int
    unrecognized: int
    nouns: int
    verbs: int
    adjectives: int
    adverbs: int
    recognized_pct: int
    unrecognized_pct: int
    noun_pct: int
    verb_pct: int
    adjective_pct: int
    adverb_pct: int


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


def build_vocabulary(
    nodes: list[SourceNode],
    lexicon: Lexicon,
    filter_config: FilterConfig | None = None,
    *,
    project_name: str = "",
    file_count: int = 0,
) -> ProjectVocabulary:
    """Count every surviving token occurrence from the given nodes."""
    filter_config = filter_config if filter_config is not None else FilterConfig()
    vocabulary = ProjectVocabulary(project_name, file_count)
    # Token classification is pure per token; memoize across occurrences.
    classified: dict[str, tuple[str, PosTag] | None] = {}

    for node in nodes:
        for token in split_identifier(node.name):
            if not filter_config.keeps(token):
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


def compute_stats(vocabulary: ProjectVocabulary) -> ProjectStats:
    """Distinct-word totals, recognition split, and POS breakdown."""
    pos_counts = {tag: 0 for tag in PosTag}
    recognized = 0
    for entry in vocabulary.entries.values():
        if entry.recognized:
            recognized += 1
            pos_counts[entry.pos] += 1
    total = len(vocabulary.entries)
    unrecognized = total - recognized
    return ProjectStats(
        file_count=vocabulary.file_count,
        total_words=total,
        recognized=recognized,
        unrecognized=unrecognized,
        nouns=pos_counts[PosTag.NOUN],
        verbs=pos_counts[PosTag.VERB],
        adjectives=pos_counts[PosTag.ADJECTIVE],
        adverbs=pos_counts[PosTag.ADVERB],
        recognized_pct=percent(recognized, total),
        unrecognized_pct=percent(unrecognized, total),
        noun_pct=percent(pos_counts[PosTag.NOUN], recognized),
        verb_pct=percent(pos_counts[PosTag.VERB], recognized),
        adjective_pct=percent(pos_counts[PosTag.ADJECTIVE], recognized),
        adverb_pct=percent(pos_counts[PosTag.ADVERB], recognized),
    )


def top_k(vocabulary: ProjectVocabulary, k: int) -> list[VocabularyEntry]:
    """The k most used entries; ties broken alphabetically."""
    if k < 0:
        raise ValueError("k must be >= 0")
    ranked = sorted(vocabulary.entries.values(), key=lambda e: (-e.total, e.word))
    return ranked[:k]
