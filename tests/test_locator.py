from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lexiscope.locator as locator
from lexiscope.extractor import SourceNode, extract_java
from lexiscope.lexicon import HYPERNYM, HYPONYM, RELATIONS, SELF, SYNONYM
from lexiscope.locator import (
    _KIND_RANK,
    ConceptMatch,
    ConceptQuery,
    ScopeError,
    expand_query,
    locate_concept,
    node_scope,
)
from lexiscope.tokenizer import split_identifier

WORDTOOLS_SRC = """
public class WordTools {
    public String getType(String word) {
        return null;
    }
}
"""

FIND_QUERY = ConceptQuery(("find", "word", "form"))


@pytest.fixture
def wordtools():
    return extract_java(WORDTOOLS_SRC, "WordTools.java")


class TestExpandQuery:
    def test_find_expands_to_get(self, lexicon):
        expansions = expand_query(FIND_QUERY, lexicon)
        assert ("get", HYPERNYM, 1) in expansions["find"]

    def test_self_always_included(self, lexicon):
        expansions = expand_query(FIND_QUERY, lexicon)
        assert ("word", SELF, 0) in expansions["word"]

    def test_form_expands_to_type(self, lexicon):
        expansions = expand_query(FIND_QUERY, lexicon)
        assert ("type", HYPONYM, 1) in expansions["form"]

    def test_inflected_keyword_expands_via_lemma(self, lexicon):
        query = ConceptQuery(("finding", "word", "forms"))
        expansions = expand_query(query, lexicon)
        assert ("get", HYPERNYM, 1) in expansions["finding"]
        assert ("find", SELF, 0) in expansions["finding"]
        assert ("type", HYPONYM, 1) in expansions["forms"]


class TestNodeScope:
    def test_method_scope_includes_parameters(self, lexicon, wordtools):
        method = next(n for n in wordtools if n.kind == "method")
        scope = node_scope(method, wordtools, lexicon)
        assert {"get", "type", "word"} <= scope

    def test_class_scope_includes_fields(self, lexicon):
        nodes = extract_java("class Car { int wheelCount; }", "Car.java")
        scope = node_scope(nodes[0], nodes, lexicon)
        assert {"car", "wheel", "count"} <= scope

    def test_class_scope_excludes_method_names(self, lexicon):
        nodes = extract_java("class Car { void drive(int speed) {} }", "Car.java")
        scope = node_scope(nodes[0], nodes, lexicon)
        assert "drive" not in scope and "speed" not in scope

    def test_scope_contains_lemmas_of_tokens(self, lexicon):
        nodes = extract_java("class Holder { int values; }", "Holder.java")
        scope = node_scope(nodes[0], nodes, lexicon)
        assert "values" in scope and "value" in scope

    def test_parameter_scope_is_an_error(self, lexicon, wordtools):
        parameter = next(n for n in wordtools if n.kind == "parameter")
        with pytest.raises(ScopeError):
            node_scope(parameter, wordtools, lexicon)


class TestLocateConcept:
    def test_find_word_form_locates_get_type(self, lexicon, wordtools):
        matches = locate_concept(wordtools, FIND_QUERY, lexicon)
        assert len(matches) == 1
        hit = matches[0]
        method = next(n for n in wordtools if n.kind == "method")
        assert hit.node_id == method.id and hit.kind == "method"
        assert hit.per_keyword == {
            "find": ("get", HYPERNYM, 1),
            "word": ("word", SELF, 0),
            "form": ("type", HYPONYM, 1),
        }
        assert hit.score == Fraction(5)  # 1 + 3 + 1

    def test_unmatchable_keyword_returns_nothing(self, lexicon, wordtools):
        query = ConceptQuery(("find", "word", "zzzz"))
        assert locate_concept(wordtools, query, lexicon) == []

    def test_relations_disabled_is_fulltext_only(self, lexicon, wordtools):
        query = ConceptQuery(("find", "word", "form"), relations=frozenset(), depth=0)
        assert locate_concept(wordtools, query, lexicon) == []

    def test_exact_match_outranks_relational(self, lexicon):
        src = """
        class Tools {
            void findWordForm() {}
            String getTermType(int x) { return null; }
        }
        """
        nodes = extract_java(src, "Tools.java")
        matches = locate_concept(nodes, FIND_QUERY, lexicon)
        assert [m.score for m in matches] == [Fraction(9), Fraction(3)]
        names = {n.id: n.name for n in nodes}
        assert [names[m.node_id] for m in matches] == ["findWordForm", "getTermType"]

    def test_synonym_weight_between_self_and_isa(self, lexicon):
        nodes = extract_java("class Fleet { void countAutos() {} }", "Fleet.java")
        matches = locate_concept(nodes, ConceptQuery(("car",)), lexicon)
        assert matches and matches[0].per_keyword["car"] == ("auto", SYNONYM, 1)
        assert matches[0].score == Fraction(2)

    def test_hypernym_outranks_hyponym_then_word_order(self, lexicon):
        # vehicle: hypernyms conveyance and transport, hyponyms car and auto.
        src = "class Fleet { void park(Car car, Transport transport, Conveyance conveyance) {} }"
        nodes = extract_java(src, "Fleet.java")
        matches = locate_concept(nodes, ConceptQuery(("vehicle",)), lexicon)
        assert matches and matches[0].per_keyword["vehicle"] == ("conveyance", HYPERNYM, 1)

    def test_methods_rank_before_classes_on_ties(self, lexicon):
        src = "class CarWheel { } class Garage { void carWheel() {} }"
        nodes = extract_java(src, "G.java")
        matches = locate_concept(nodes, ConceptQuery(("car", "wheel")), lexicon)
        assert [m.kind for m in matches[:2]] == ["method", "class"]
        assert matches[0].score == matches[1].score == Fraction(6)

    def test_limit_truncates(self, lexicon):
        src = "class A { void carOne() {} void carTwo() {} void carThree() {} }"
        nodes = extract_java(src, "A.java")
        all_hits = locate_concept(nodes, ConceptQuery(("car",)), lexicon, limit=10)
        one = locate_concept(nodes, ConceptQuery(("car",)), lexicon, limit=1)
        assert len(all_hits) == 3
        assert one == all_hits[:1]

    def test_monotone_in_depth_and_relations(self, lexicon):
        src = """
        class Corpus {
            void findWordForm() {}
            String getTermType(int x) { return null; }
            void autoShape(int word) {}
            void conveyanceTermShape(int word) {}
        }
        """
        nodes = extract_java(src, "Corpus.java")

        def ids(relations, depth):
            query = ConceptQuery(("car", "word", "form"), relations=relations, depth=depth)
            return {m.node_id for m in locate_concept(nodes, query, lexicon, limit=100)}

        assert ids(frozenset(), 0) <= ids(RELATIONS, 0) <= ids(RELATIONS, 1) <= ids(RELATIONS, 2)
        assert ids(frozenset({HYPERNYM}), 1) <= ids(RELATIONS, 1)

    def test_all_keywords_rule_holds_on_every_match(self, lexicon):
        src = """
        class Corpus {
            void findWordForm() {}
            String getTermType(int x) { return null; }
            void wordForm() {}
        }
        """
        nodes = extract_java(src, "Corpus.java")
        matches = locate_concept(nodes, FIND_QUERY, lexicon, limit=100)
        assert matches  # wordForm lacks "find": must be absent
        for match in matches:
            node = next(n for n in nodes if n.id == match.node_id)
            scope = node_scope(node, nodes, lexicon)
            assert set(match.per_keyword) == set(FIND_QUERY.keywords)
            for matched, _relation, _distance in match.per_keyword.values():
                assert matched in scope
        assert all(
            next(n for n in nodes if n.id == m.node_id).name != "wordForm" for m in matches
        )

    def test_deterministic(self, lexicon, wordtools):
        first = locate_concept(wordtools, FIND_QUERY, lexicon)
        second = locate_concept(wordtools, FIND_QUERY, lexicon)
        assert first == second


class TestConceptQueryValidation:
    def test_empty_keywords(self):
        with pytest.raises(ValueError):
            ConceptQuery(())

    def test_non_alphabetic_keyword(self):
        with pytest.raises(ValueError):
            ConceptQuery(("find2",))

    def test_uppercase_keyword(self):
        with pytest.raises(ValueError):
            ConceptQuery(("Find",))

    def test_negative_depth(self):
        with pytest.raises(ValueError):
            ConceptQuery(("find",), depth=-1)


# The match order and score as weights, kept here independent of
# `best_first` and `match_weight`: highest weight first, then relation,
# distance and word.  Is-a weights are divided by the distance.
_REFERENCE_WEIGHTS = {SELF: Fraction(3), SYNONYM: Fraction(2), HYPERNYM: Fraction(1), HYPONYM: Fraction(1)}
_REFERENCE_RANK = {SELF: 0, SYNONYM: 1, HYPERNYM: 2, HYPONYM: 3}


def _reference_weight(relation, distance):
    if relation in (HYPERNYM, HYPONYM):
        return _REFERENCE_WEIGHTS[relation] / distance
    return _REFERENCE_WEIGHTS[relation]


def _reference_locate(nodes, query, lexicon, limit=10):
    """The per-candidate locator: one `node_scope` scan per class and method."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    expansions = expand_query(query, lexicon)

    matches: list[tuple] = []
    for node in nodes:
        if node.kind not in _KIND_RANK:
            continue
        scope = node_scope(node, nodes, lexicon)
        per_keyword: dict[str, tuple[str, str, int]] = {}
        for keyword in query.keywords:
            best: tuple | None = None
            for word, relation, distance in expansions[keyword]:
                if word not in scope:
                    continue
                key = (
                    -_reference_weight(relation, distance),
                    _REFERENCE_RANK[relation],
                    distance,
                    word,
                )
                if best is None or key < best[0]:
                    best = (key, (word, relation, distance))
            if best is None:
                per_keyword = {}
                break
            per_keyword[keyword] = best[1]
        if not per_keyword:
            continue
        score = sum(
            (_reference_weight(rel, dist) for _, rel, dist in per_keyword.values()),
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


# Minidict lemmas, inflections of them (regular and exception-list), and
# words the dictionary does not know.
_LEMMAS = ("car", "auto", "vehicle", "conveyance", "find", "get", "acquire", "word",
           "term", "form", "type", "shape", "value", "set", "name", "count", "good")
_INFLECTIONS = ("cars", "autos", "finding", "found", "gets", "words", "forms", "types",
                "values", "named", "running", "ran", "shapes", "better")
_NON_WORDS = ("zork", "qux", "blah")
_WORDS = _LEMMAS + _INFLECTIONS + _NON_WORDS


@st.composite
def _identifiers(draw, capitalized):
    parts = draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3))
    first = parts[0].capitalize() if capitalized else parts[0]
    return first + "".join(part.capitalize() for part in parts[1:])


@st.composite
def _node_trees(draw):
    """Classes, methods, fields and parameters nested at random, ids dense."""
    nodes: list[SourceNode] = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(("class", "method", "field", "parameter")))
        required = "method" if kind == "parameter" else "class"
        parents = [node.id for node in nodes if node.kind == required]
        if not parents or kind == "class" and draw(st.booleans()):
            kind, parent = "class", None
        else:
            parent = draw(st.sampled_from(parents))
        name = draw(_identifiers(kind == "class"))
        file_path = draw(st.sampled_from(("A.java", "b/B.java")))
        nodes.append(SourceNode(len(nodes), kind, name, file_path, draw(st.integers(1, 4)), parent))
    return nodes


@given(
    nodes=_node_trees(),
    keywords=st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3),
    relations=st.sets(st.sampled_from(sorted(RELATIONS))),
    depth=st.integers(0, 2),
    limit=st.integers(1, 20),
)
@settings(max_examples=300, deadline=None)
def test_locate_agrees_with_per_candidate_reference(lexicon, nodes, keywords, relations, depth, limit):
    query = ConceptQuery(tuple(keywords), relations=frozenset(relations), depth=depth)
    located = locate_concept(nodes, query, lexicon, limit)
    expected = _reference_locate(nodes, query, lexicon, limit)
    assert located == expected
    assert [m.per_keyword for m in located] == [m.per_keyword for m in expected]


def test_each_distinct_token_is_lemmatized_once(lexicon, monkeypatch):
    nodes: list[SourceNode] = [SourceNode(0, "class", "CarShop", "Shop.java", 1)]
    for number in range(300):
        method_id = len(nodes)
        name = ("findCarValues", "getCarWord", "findWordForms")[number % 3]
        nodes.append(SourceNode(method_id, "method", name, "Shop.java", number + 2, 0))
        nodes.append(SourceNode(method_id + 1, "parameter", "wordCount", "Shop.java", number + 2, method_id))
    distinct = {token for node in nodes for token in split_identifier(node.name)}
    query = ConceptQuery(("finding", "car"))

    calls = []
    original = locator.lemmatize

    def counting(lexicon, token):
        calls.append(token)
        return original(lexicon, token)

    monkeypatch.setattr(locator, "lemmatize", counting)
    expand_query(query, lexicon)
    expand_calls = len(calls)
    calls.clear()
    matches = locate_concept(nodes, query, lexicon, limit=500)
    assert len(matches) == 200
    assert len(calls) <= len(distinct) + expand_calls
