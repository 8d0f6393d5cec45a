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
    postings: dict[str, tuple[int, ...]] | None = None,
) -> list[ConceptMatch]:
    """Rank candidates where every keyword matches the identifier scope.

    Candidates are matched through postings, the table _candidate_postings
    gives for nodes (built here when not given): each token of a scope (the
    one `node_scope` defines) to the positions of the candidates whose
    scope holds it.  No token is lemmatized: `surface_forms` lists, once
    per query, the inflected forms that read as an expansion word, so the
    candidates that hold a word are those in the postings of the word and
    of its forms.  A keyword's match for a candidate is the first word, in
    the keyword's best-first order, whose postings hold it; only the
    postings of the expansion words and their forms are read.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if postings is None:
        postings = _candidate_postings(nodes)
    ranked = {keyword: best_first(expansion) for keyword, expansion in expand_query(query, lexicon).items()}
    # Per expansion word, the tokens that read as it: the word and its surface forms.
    readers = {word: [word] for entries in ranked.values() for word, _relation, _distance in entries}
    for form, words in surface_forms(lexicon, readers).items():
        for word in words:
            readers[word].append(form)

    # Per matching candidate, its evidence so far: each keyword's first word.
    matched: dict[int, dict[str, tuple[str, str, int]]] | None = None
    for keyword, entries in ranked.items():
        found: dict[int, tuple[str, str, int]] = {}
        done = set()
        for entry in entries:
            if entry[0] in done:  # a word related in several ways keeps its first, best entry
                continue
            done.add(entry[0])
            for token in readers[entry[0]]:
                for position in postings.get(token, ()):
                    found.setdefault(position, entry)
        if matched is None:
            matched = {position: {keyword: entry} for position, entry in found.items()}
        else:
            matched = {
                position: {**evidence, keyword: found[position]}
                for position, evidence in matched.items()
                if position in found
            }
        if not matched:
            return []

    # A score per distinct (relation, distance) evidence, not per match.
    scores: dict[tuple, Fraction] = {}
    matches: list[tuple] = []
    for position in sorted(matched):  # node order, which breaks ties as the full sort would
        node = nodes[position]
        evidence = matched[position]
        weights = tuple(entry[1:] for entry in evidence.values())
        score = scores.get(weights)
        if score is None:
            score = scores[weights] = sum((match_weight(*weight) for weight in weights), Fraction(0))
        matches.append(
            (
                (-score, _KIND_RANK[node.kind], node.file_path, node.line, node.id),
                ConceptMatch(node.id, node.kind, score, evidence),
            )
        )

    # The keys are unique when the ids are (the node id comes last), so
    # this is the head of a full sort; nsmallest keeps ties in node order.
    return [match for _, match in heapq.nsmallest(limit, matches, key=itemgetter(0))]


def _candidate_postings(nodes: list[SourceNode]) -> dict[str, tuple[int, ...]]:
    """Each token of a candidate's scope to the positions in nodes of the candidates whose scope holds it.

    A scope is node_scope's tokens before lemmatizing: those of a class's
    name and its fields' names, or of a method's name and its parameters'
    names, the children found by parent_id and kind.  Positions ascend,
    and tokens come in the order the scopes first hold them, so the table
    (and the slot that stores it) is the same under any hash seed.
    """
    children: dict[tuple[int, str], list[str]] = {}
    for node in nodes:
        if node.kind not in _KIND_RANK and node.parent_id is not None:
            children.setdefault((node.parent_id, node.kind), []).append(node.name)
    # Each distinct name is split once.
    name_tokens: dict[str, list[str]] = {}
    postings: dict[str, list[int]] = {}
    for position, node in enumerate(nodes):
        if node.kind not in _KIND_RANK:
            continue
        scope: dict[str, None] = {}
        for name in [node.name, *children.get((node.id, _SCOPE_CHILD_KIND[node.kind]), ())]:
            tokens = name_tokens.get(name)
            if tokens is None:
                tokens = name_tokens[name] = split_identifier(name)
            scope.update(dict.fromkeys(tokens))
        for token in scope:
            postings.setdefault(token, []).append(position)
    return {token: tuple(positions) for token, positions in postings.items()}
