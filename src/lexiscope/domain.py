"""Intersect project vocabularies into a domain vocabulary.

Every word that makes any project's top-K list is a candidate.  A project
supports a candidate when its top-K contains the word itself or, when a
lexicon is given (the semantic merge), a synonym / direct hypernym /
direct hyponym of it.  Support across all projects makes a domain term,
support in at least two makes a potential domain term, and support in
exactly one leaves a single-project word.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lexicon import RELATIONS, Lexicon, best_first, related_words
from .vocabulary import ProjectVocabulary, top_k

__all__ = [
    "DOMAIN",
    "POTENTIAL",
    "SINGLE",
    "DomainTermEntry",
    "DomainVocabulary",
    "build_domain_vocabulary",
]

DOMAIN = "domain"
POTENTIAL = "potential"
SINGLE = "single"


@dataclass(frozen=True)
class DomainTermEntry:
    word: str
    status: str
    per_project_totals: dict[str, int]
    support_count: int
    evidence: dict[str, tuple[str, str]]


@dataclass(frozen=True)
class DomainVocabulary:
    project_names: tuple[str, ...]
    terms: tuple[DomainTermEntry, ...]


def build_domain_vocabulary(
    vocabularies: list[ProjectVocabulary],
    k: int,
    lexicon: Lexicon | None = None,
) -> DomainVocabulary:
    """Intersect the top-k of each vocabulary into ranked domain terms.

    With a lexicon, a project that lacks a word may support it through a
    related word; the evidence is the first present one in `best_first`
    order.
    """
    if len(vocabularies) < 2:
        raise ValueError("need at least 2 project vocabularies")
    if k < 1:
        raise ValueError("k must be >= 1")

    project_names = tuple(v.project_name for v in vocabularies)
    for position, name in enumerate(project_names):
        if name in project_names[:position]:
            raise ValueError(
                f"two projects are named {name!r}; give each its own name with analyze --project"
            )
    tops = {
        vocab.project_name: {entry.word: entry.total for entry in top_k(vocab, k)}
        for vocab in vocabularies
    }
    candidates = sorted(set().union(*tops.values()))

    terms = []
    for word in candidates:
        related: list[tuple[str, str, int]] | None = None
        totals: dict[str, int] = {}
        evidence: dict[str, tuple[str, str]] = {}
        support = 0
        for name in project_names:
            top_words = tops[name]
            totals[name] = top_words.get(word, 0)
            if word in top_words:
                support += 1
                continue
            if lexicon is None:
                continue
            if related is None:
                # The self entry always leads; the word itself is not present.
                related = best_first(related_words(lexicon, word, RELATIONS, 1))[1:]
            for match, relation, _ in related:
                if match in top_words:
                    support += 1
                    evidence[name] = (match, relation)
                    break
        status = _status(support, len(project_names))
        terms.append(DomainTermEntry(word, status, totals, support, evidence))

    terms.sort(key=lambda t: (-t.support_count, -sum(t.per_project_totals.values()), t.word))
    return DomainVocabulary(project_names, tuple(terms))


def _status(support: int, project_count: int) -> str:
    if support == project_count:
        return DOMAIN
    if support >= 2:
        return POTENTIAL
    return SINGLE
