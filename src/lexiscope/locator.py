"""Locate the classes and methods that encode a key-phrase.

Each keyword expands through the lexicon into related words; a class or
method matches only when every keyword (or one of its related words)
occurs among the tokens of the candidate's identifier scope.  A method's
scope is its name plus its parameter names; a class's scope is its name
plus its field names.  Matches are scored by how direct each keyword's
match was: an exact occurrence outranks a synonym, which outranks an
is-a relative, and longer pointer chains count for less.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter

from .extractor import SourceNode
from .lexicon import (
    RELATIONS,
    SELF,
    SYNONYM,
    Lexicon,
    best_first,
    lemmatize,
    related_words,
    surface_forms,
)
from .tokenizer import split_identifier

__all__ = [
    "ConceptQuery",
    "ConceptMatch",
    "ScopeError",
    "expand_query",
    "node_scope",
    "locate_concept",
]

_KIND_RANK = {"method": 0, "class": 1}

# The child kind whose names join a candidate's scope.
_SCOPE_CHILD_KIND = {"method": "parameter", "class": "field"}


class ScopeError(ValueError):
    """Scope was requested for a node kind that has none."""


@dataclass(frozen=True)
class ConceptQuery:
    """A key-phrase broken into lowercase keywords, with expansion policy."""

    keywords: tuple[str, ...]
    relations: frozenset[str] = RELATIONS
    depth: int = 1

    def __post_init__(self):
        if not self.keywords:
            raise ValueError("query needs at least one keyword")
        if any(not keyword.isalpha() or not keyword.islower() for keyword in self.keywords):
            raise ValueError("keywords must be lowercase alphabetic words")
        if self.depth < 0:
            raise ValueError("depth must be >= 0")


@dataclass(frozen=True)
class ConceptMatch:
    """One located candidate with per-keyword match evidence.

    `per_keyword` holds each distinct keyword once, in phrase order.
    """

    node_id: int
    kind: str
    score: Fraction
    per_keyword: dict[str, tuple[str, str, int]] = field(compare=False)


def match_weight(relation: str, distance: int) -> Fraction:
    """Score of one keyword match: exact 3, synonym 2, is-a 1/distance."""
    if relation == SELF:
        return Fraction(3)
    if relation == SYNONYM:
        return Fraction(2)
    return Fraction(1, distance)


def expand_query(
    query: ConceptQuery, lexicon: Lexicon
) -> dict[str, set[tuple[str, str, int]]]:
    """Related-word sets per distinct keyword, in phrase order.

    Each set includes the keyword itself.  Keywords are lemmatized first,
    so an inflected query expands through its dictionary forms as well.
    Each distinct lemma is expanded once, also when it has several parts
    of speech.
    """
    expansions: dict[str, set[tuple[str, str, int]]] = {}
    for keyword in dict.fromkeys(query.keywords):
        expansion = set(related_words(lexicon, keyword, query.relations, query.depth))
        for lemma in dict.fromkeys(lemma for lemma, _pos in lemmatize(lexicon, keyword)):
            if lemma != keyword:
                expansion |= related_words(lexicon, lemma, query.relations, query.depth)
        expansions[keyword] = expansion
    return expansions


def node_scope(
    node: SourceNode, all_nodes: list[SourceNode], lexicon: Lexicon
) -> set[str]:
    """Lemmatized identifier tokens of a class or method candidate.

    Every token contributes its raw form plus all of its lemma readings.
    Methods pull in their parameter names; classes pull in their fields.
    """
    child_kind = _SCOPE_CHILD_KIND.get(node.kind)
    if child_kind is None:
        raise ScopeError(f"no scope for {node.kind} nodes")

    names = [node.name] + [
        child.name
        for child in all_nodes
        if child.parent_id == node.id and child.kind == child_kind
    ]
    scope: set[str] = set()
    for name in names:
        for token in split_identifier(name):
            scope.add(token)
            scope.update(lemma for lemma, _pos in lemmatize(lexicon, token))
    return scope


def locate_concept(
    nodes: list[SourceNode],
    query: ConceptQuery,
    lexicon: Lexicon,
    limit: int = 10,
) -> list[ConceptMatch]:
    """Rank candidates where every keyword matches the identifier scope.

    Each class and method is scored from its own scope (the one
    `node_scope` defines), restricted to the query's expansion words.  No
    token is lemmatized: `surface_forms` lists, once per query, the
    inflected forms that read as an expansion word, so a token's scope
    words are itself if it is one and the words it is a form of.  A
    keyword's match is the scope word that comes first in its best-first
    order; the pass reads a candidate's scope words, not the expansion.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    # Per keyword, each expansion word's rank in best-first order and its
    # triple; a word related in several ways keeps its first, best entry.
    tables: dict[str, dict[str, tuple[int, tuple[str, str, int]]]] = {}
    for keyword, expansion in expand_query(query, lexicon).items():
        table = tables[keyword] = {}
        for rank, entry in enumerate(best_first(expansion)):
            table.setdefault(entry[0], (rank, entry))
    wanted = {word for table in tables.values() for word in table}
    forms = surface_forms(lexicon, wanted)

    candidates: list[SourceNode] = []
    children: dict[tuple[int, str], list[str]] = {}
    for node in nodes:
        if node.kind in _KIND_RANK:
            candidates.append(node)
        elif node.parent_id is not None:
            children.setdefault((node.parent_id, node.kind), []).append(node.name)

    # A cache per distinct name (its scope words), so each name is split once.
    name_words: dict[str, set[str]] = {}
    matches: list[tuple] = []
    for node in candidates:
        scope: set[str] = set()
        for name in [node.name, *children.get((node.id, _SCOPE_CHILD_KIND[node.kind]), ())]:
            words = name_words.get(name)
            if words is None:
                words = name_words[name] = set()
                for token in split_identifier(name):
                    if token in wanted:
                        words.add(token)
                    words.update(forms.get(token, ()))
            scope |= words
        if not scope:
            continue
        per_keyword: dict[str, tuple[str, str, int]] = {}
        for keyword, table in tables.items():
            hits = [table[word] for word in scope if word in table]
            if not hits:
                break
            per_keyword[keyword] = min(hits)[1]
        if len(per_keyword) < len(tables):
            continue
        score = sum(
            (match_weight(rel, dist) for _, rel, dist in per_keyword.values()),
            Fraction(0),
        )
        matches.append(
            (
                (-score, _KIND_RANK[node.kind], node.file_path, node.line, node.id),
                ConceptMatch(node.id, node.kind, score, per_keyword),
            )
        )

    # The keys are unique (the node id comes last), so this is the head of a full sort.
    return [match for _, match in heapq.nsmallest(limit, matches, key=itemgetter(0))]
