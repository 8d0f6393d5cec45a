"""Intersect project vocabularies into a domain vocabulary.

Every word that makes any project's top-K list is a candidate.  A project
supports a candidate when its top-K contains the word itself or, with the
semantic merge enabled, a synonym / direct hypernym / direct hyponym of
it.  Support across all projects makes a domain term, support in at least
two makes a potential domain term, and support in exactly one leaves a
single-project word.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lexicon import HYPERNYM, HYPONYM, SELF, SYNONYM, Lexicon, related_words
from .vocabulary import ProjectVocabulary, top_k

__all__ = [
    "DOMAIN",
    "POTENTIAL",
    "SINGLE",
    "DomainTermEntry",
    "DomainVocabulary",
    "TooFewProjectsError",
    "build_domain_vocabulary",
    "domain_term_percentage",
]

DOMAIN = "domain"
POTENTIAL = "potential"
SINGLE = "single"

# Deterministic pick when several related words support the same project.
_EVIDENCE_RANK = {SYNONYM: 0, HYPERNYM: 1, HYPONYM: 2}


class TooFewProjectsError(ValueError):
    """A domain vocabulary needs at least two project vocabularies."""


@dataclass(frozen=True)
class DomainTermEntry:
    word: str
    status: str
    per_project_totals: dict[str, int]
    support_count: int
    evidence: dict[str, tuple[str, str]]


@dataclass(frozen=True)
class DomainVocabulary:
    domain_name: str
    project_names: tuple[str, ...]
    k: int
    terms: tuple[DomainTermEntry, ...]


def build_domain_vocabulary(
    vocabularies: list[ProjectVocabulary],
    k: int,
    semantic: bool = False,
    lexicon: Lexicon | None = None,
    domain_name: str = "domain",
) -> DomainVocabulary:
    """Intersect the top-k of each vocabulary into ranked domain terms."""
    if len(vocabularies) < 2:
        raise TooFewProjectsError("need at least 2 project vocabularies")
    if k < 1:
        raise ValueError("k must be >= 1")
    if semantic and lexicon is None:
        raise ValueError("semantic merge requires a lexicon")

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
            if not semantic:
                continue
            if related is None:
                related = sorted(
                    (
                        triple
                        for triple in related_words(
                            lexicon, word, {SYNONYM, HYPERNYM, HYPONYM}, 1
                        )
                        if triple[1] != SELF
                    ),
                    key=lambda t: (_EVIDENCE_RANK[t[1]], t[0]),
                )
            for match, relation, _ in related:
                if match in top_words:
                    support += 1
                    evidence[name] = (match, relation)
                    break
        status = _status(support, len(project_names))
        terms.append(DomainTermEntry(word, status, totals, support, evidence))

    terms.sort(key=lambda t: (-t.support_count, -sum(t.per_project_totals.values()), t.word))
    return DomainVocabulary(domain_name, project_names, k, tuple(terms))


def _status(support: int, project_count: int) -> str:
    if support == project_count:
        return DOMAIN
    if support >= 2:
        return POTENTIAL
    return SINGLE


def domain_term_percentage(
    vocabulary: ProjectVocabulary, domain_vocabulary: DomainVocabulary
) -> float:
    """Share of domain-status terms that appear in the given vocabulary."""
    domain_terms = [t.word for t in domain_vocabulary.terms if t.status == DOMAIN]
    if not domain_terms:
        return 0.0
    present = sum(1 for word in domain_terms if word in vocabulary.entries)
    return 100.0 * present / len(domain_terms)
