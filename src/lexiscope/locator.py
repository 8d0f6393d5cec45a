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

from dataclasses import dataclass, field
from fractions import Fraction

from .extractor import SourceNode
from .lexicon import (
    RELATIONS,
    SELF,
    SYNONYM,
    Lexicon,
    best_first,
    lemmatize,
    related_words,
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
    """One located candidate with per-keyword match evidence."""

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
    """Related-word sets per keyword; the keyword itself always included.

    Keywords are lemmatized first, so an inflected query expands through
    its dictionary forms as well.
    """
    expansions: dict[str, set[tuple[str, str, int]]] = {}
    for keyword in query.keywords:
        expansion = set(related_words(lexicon, keyword, query.relations, query.depth))
        for lemma, _pos in lemmatize(lexicon, keyword):
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
            scope.update(_token_readings(lexicon, token))
    return scope


def _token_readings(lexicon: Lexicon, token: str) -> list[str]:
    """The words a token puts into a scope: itself and its lemmas."""
    return [token] + [lemma for lemma, _pos in lemmatize(lexicon, token)]


def locate_concept(
    nodes: list[SourceNode],
    query: ConceptQuery,
    lexicon: Lexicon,
    limit: int = 10,
) -> list[ConceptMatch]:
    """Rank candidates where every keyword matches the identifier scope.

    One pass over `nodes` gathers each candidate's scope names (the scope
    `node_scope` defines), lemmatizing each distinct token once, and posts
    each candidate under the expansion words its scope holds.  A keyword
    matches the union of its words' postings; only candidates in every
    keyword's union are scored.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    expansions = expand_query(query, lexicon)
    keywords = list(dict.fromkeys(query.keywords))
    ranked = {keyword: best_first(expansions[keyword]) for keyword in keywords}
    wanted = {word for words in ranked.values() for word, _rel, _dist in words}

    candidates: list[SourceNode] = []
    children: dict[tuple[int, str], list[str]] = {}
    for node in nodes:
        if node.kind in _KIND_RANK:
            candidates.append(node)
        elif node.parent_id is not None:
            children.setdefault((node.parent_id, node.kind), []).append(node.name)

    # Caches per distinct name (its wanted scope words) and per distinct
    # token (its readings), so each token is split and lemmatized once.
    name_words: dict[str, set[str]] = {}
    token_words: dict[str, list[str]] = {}
    postings: dict[str, list[int]] = {word: [] for word in wanted}
    for position, node in enumerate(candidates):
        scope: set[str] = set()
        for name in [node.name, *children.get((node.id, _SCOPE_CHILD_KIND[node.kind]), ())]:
            words = name_words.get(name)
            if words is None:
                words = set()
                for token in split_identifier(name):
                    readings = token_words.get(token)
                    if readings is None:
                        readings = token_words[token] = _token_readings(lexicon, token)
                    words.update(readings)
                words = name_words[name] = words & wanted
            scope |= words
        for word in scope:
            postings[word].append(position)

    # Per keyword, each candidate's best match is the first ranked word
    # whose posting holds it; the keys of that map are the keyword's union.
    best: dict[str, dict[int, tuple[str, str, int]]] = {}
    for keyword in keywords:
        found: dict[int, tuple[str, str, int]] = {}
        for entry in ranked[keyword]:
            for position in postings[entry[0]]:
                found.setdefault(position, entry)
        best[keyword] = found

    unions = sorted(best.values(), key=len)
    survivors = set(unions[0])
    for union in unions[1:]:
        survivors.intersection_update(union)

    matches: list[tuple] = []
    for position in sorted(survivors):
        node = candidates[position]
        per_keyword = {keyword: best[keyword][position] for keyword in keywords}
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

    matches.sort(key=lambda pair: pair[0])
    return [match for _, match in matches[:limit]]
