import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lexiscope.locator as locator
from lexiscope.extractor import SourceNode, extract_java
from lexiscope.lexicon import (
    HYPERNYM,
    HYPONYM,
    RELATIONS,
    SELF,
    SYNONYM,
    PosTag,
    lemmatize,
    load_lexicon,
    surface_forms,
)
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

from conftest import write_dict
from test_lexicon import _WORDS as _MODEL_WORDS, _dictionaries

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

    def test_each_distinct_lemma_expands_once(self, tmp_path, monkeypatch):
        # "forms" reads as "form" the noun and "form" the verb.
        dictionary = load_lexicon(write_dict(tmp_path / "dict", nouns=["form"], verbs=["form"]))
        assert lemmatize(dictionary, "forms") == [("form", PosTag.NOUN), ("form", PosTag.VERB)]
        calls = []
        original = locator.related_words

        def counting(lexicon, word, relations, depth):
            calls.append(word)
            return original(lexicon, word, relations, depth)

        monkeypatch.setattr(locator, "related_words", counting)
        expansions = expand_query(ConceptQuery(("forms", "form", "forms")), dictionary)
        assert calls == ["forms", "form", "form"]
        assert expansions == {"forms": {("forms", SELF, 0), ("form", SELF, 0)}, "form": {("form", SELF, 0)}}


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

    def test_nearer_hyponym_outranks_farther_hypernym(self, tmp_path):
        # root <- alpha <- beta <- gamma: from beta, gamma is a hyponym at
        # distance 1 and root a hypernym at distance 2.  Minidict has no such
        # keyword, so only this dictionary tells distance-first ranking from
        # relation-first.
        root = write_dict(tmp_path / "dict", nouns=["root", "alpha", "beta", "gamma"])
        (root / "data.noun").write_text(
            "00000001 00 n 01 root 0 001 ~ 00000002 n 0000 | top\n"
            "00000002 00 n 01 alpha 0 002 @ 00000001 n 0000 ~ 00000003 n 0000 | middle\n"
            "00000003 00 n 01 beta 0 002 @ 00000002 n 0000 ~ 00000004 n 0000 | keyword\n"
            "00000004 00 n 01 gamma 0 001 @ 00000003 n 0000 | below\n"
        )
        chain = load_lexicon(root)
        nodes = extract_java("class Tree { void rootGamma() {} }", "Tree.java")
        query = ConceptQuery(("beta",), relations=frozenset({HYPERNYM, HYPONYM}), depth=2)
        matches = locate_concept(nodes, query, chain)
        assert matches == _reference_locate(nodes, query, chain)
        assert [m.per_keyword for m in matches] == [{"beta": ("gamma", HYPONYM, 1)}]

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


def _token_readings(lexicon, token):
    """The words a token puts into a scope: itself and its lemmas."""
    return [token] + [lemma for lemma, _pos in lemmatize(lexicon, token)]


def _reference_token_words(lexicon, tokens, wanted):
    """Each token's scope words among wanted, lemmatizing each distinct token once."""
    token_words: dict[str, set[str]] = {}
    for token in tokens:
        if token not in token_words:
            token_words[token] = set(_token_readings(lexicon, token)) & wanted
    return token_words


# Endings that make inflected forms of a word, regular or not, and a few
# that lemmatize undoes for no part of speech.
_ENDINGS = ("", "s", "es", "ses", "xes", "zes", "ches", "shes", "ies", "ed", "d", "ing",
            "er", "est", "r", "st", "ings", "ly")


@st.composite
def _tokens(draw, words):
    """A token near one of words: a cut, a doubled last letter and an ending, or any text."""
    if words and draw(st.booleans()):
        word = draw(st.sampled_from(sorted(words)))
        stem = word[: len(word) - draw(st.integers(0, 2))]
        if stem and draw(st.booleans()):
            stem += stem[-1]
        return stem + draw(st.sampled_from(_ENDINGS))
    return draw(st.sampled_from(("ran", "went", "geese", "runn", "es", "ing", "sing", "ed"))
                if draw(st.booleans()) else st.text("acdeghilnorsuxyz_", max_size=7))


def _model_lexicon(files):
    """Load a dictionary of the lexicon model test, with a snapshot cache of its own."""
    with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as patch:
        root = Path(directory) / "dict"
        root.mkdir()
        for name, text in files.items():
            (root / name).write_text(text, encoding="utf-8")
        patch.setenv("XDG_CACHE_HOME", str(Path(directory) / "cache"))
        return load_lexicon(root)


@settings(max_examples=200, deadline=None)
@given(case=_dictionaries(), data=st.data())
def test_surface_forms_invert_lemmatize(case, data):
    # Dictionaries of the lexicon model test, whose words include "run"
    # (running, runned) and whose exception lists map ran, went and geese.
    files, entries, _synsets, _exceptions = case
    lexicon = _model_lexicon(files)
    words = sorted(entries) + ["runs", "zork", "ra"]
    wanted = data.draw(st.sets(st.sampled_from(words)))
    tokens = data.draw(st.lists(_tokens(words), max_size=30))
    forms = surface_forms(lexicon, wanted)
    expected = _reference_token_words(lexicon, tokens, wanted)
    assert {token: ({token} & wanted) | forms.get(token, set()) for token in tokens} == expected
    # Every form reads as its words, so the map holds no stray token either.
    for form, form_words in forms.items():
        assert form_words <= set(_token_readings(lexicon, form)) & wanted


def test_surface_forms_of_the_minidict(lexicon):
    forms = surface_forms(lexicon, {"run", "find", "value", "car", "good", "zork"})
    assert forms["running"] == {"run"}
    assert forms["ran"] == {"run"}
    assert forms["found"] == {"find"}
    assert forms["values"] == {"value"}
    assert forms["cars"] == {"car"}
    assert "zorks" not in forms and "zork" not in forms
    tokens = ["running", "ran", "runs", "found", "finding", "values", "cars", "better", "goods", "qux"]
    wanted = {"run", "find", "value", "car", "good"}
    assert {token: ({token} & wanted) | forms.get(token, set()) for token in tokens} == (
        _reference_token_words(lexicon, tokens, wanted)
    )


def test_surface_forms_of_words_that_are_all_ending(tmp_path):
    # lemmatize never strips a whole token: "ies" does not read as "y".
    root = write_dict(tmp_path / "dict", nouns=["y", "ch", "s", "x"], verbs=["e", "y"], adjs=["e"])
    lexicon = load_lexicon(root)
    wanted = {"y", "ch", "s", "x", "e"}
    tokens = ["ies", "ches", "s", "ss", "es", "xes", "ing", "ed", "er", "est", "yer", "ying", "eing", "eed"]
    forms = surface_forms(lexicon, wanted)
    assert {token: ({token} & wanted) | forms.get(token, set()) for token in tokens} == (
        _reference_token_words(lexicon, tokens, wanted)
    )


# Minidict lemmas, inflections of them (regular and exception-list), and
# words the dictionary does not know.
_LEMMAS = ("car", "auto", "vehicle", "conveyance", "find", "get", "acquire", "word",
           "term", "form", "type", "shape", "value", "set", "name", "count", "good")
_INFLECTIONS = ("cars", "autos", "finding", "found", "gets", "words", "forms", "types",
                "values", "named", "running", "ran", "shapes", "better")
_NON_WORDS = ("zork", "qux", "blah")
_WORDS = _LEMMAS + _INFLECTIONS + _NON_WORDS


@st.composite
def _identifiers(draw, words, capitalized):
    parts = draw(st.lists(words, min_size=1, max_size=3))
    first = parts[0].capitalize() if capitalized else parts[0]
    return first + "".join(part.capitalize() for part in parts[1:])


@st.composite
def _node_trees(draw, words=st.sampled_from(_WORDS)):
    """Classes, methods, fields and parameters named from words, nested at random, ids dense."""
    nodes: list[SourceNode] = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(("class", "method", "field", "parameter")))
        required = "method" if kind == "parameter" else "class"
        parents = [node.id for node in nodes if node.kind == required]
        if not parents or kind == "class" and draw(st.booleans()):
            kind, parent = "class", None
        else:
            parent = draw(st.sampled_from(parents))
        name = draw(_identifiers(words, kind == "class"))
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


@given(
    nodes=_node_trees(st.sampled_from(("car", "cars", "auto", "find", "get", "value"))),
    keywords=st.lists(st.sampled_from(("car", "find", "value")), min_size=1, max_size=2),
    depth=st.integers(0, 2),
    limit=st.integers(1, 20),
)
@settings(max_examples=200, deadline=None)
def test_top_matches_are_the_head_of_the_full_ranking(lexicon, nodes, keywords, depth, limit):
    query = ConceptQuery(tuple(keywords), depth=depth)
    ranked = locate_concept(nodes, query, lexicon, limit=len(nodes) + 1)
    assert ranked == sorted(ranked, key=lambda m: (
        -m.score, _KIND_RANK[m.kind], nodes[m.node_id].file_path, nodes[m.node_id].line, m.node_id))
    located = locate_concept(nodes, query, lexicon, limit)
    assert located == ranked[:limit]
    assert [m.per_keyword for m in located] == [m.per_keyword for m in ranked[:limit]]


# The model's words as keywords, and the forms its exception lists map.
_MODEL_KEYWORDS = sorted(word.lower() for word in _MODEL_WORDS if word.isalpha()) + ["geese", "ran", "went"]


@settings(max_examples=100, deadline=None)
@given(case=_dictionaries(), data=st.data())
def test_locate_agrees_with_reference_on_model_dictionaries(case, data):
    # The model has lemmas in several parts of speech, and a word can be a
    # synonym and a hypernym of one keyword at once.  Nodes are named from
    # its words, their inflections and the exception forms.
    files, entries, _synsets, _exceptions = case
    lexicon = _model_lexicon(files)
    words = st.one_of(st.sampled_from(_MODEL_WORDS), _tokens(sorted(entries)))
    nodes = data.draw(_node_trees(words))
    # Keywords mostly from the names' own tokens, so that queries match.
    tokens = sorted({token for node in nodes for token in split_identifier(node.name) if token.isalpha()})
    keywords = data.draw(st.lists(st.sampled_from(tokens + _MODEL_KEYWORDS), min_size=1, max_size=3))
    relations = data.draw(st.sets(st.sampled_from(sorted(RELATIONS)), min_size=1))
    query = ConceptQuery(tuple(keywords), relations=frozenset(relations), depth=data.draw(st.integers(1, 3)))
    limit = data.draw(st.integers(1, 20))
    located = locate_concept(nodes, query, lexicon, limit)
    expected = _reference_locate(nodes, query, lexicon, limit)
    assert located == expected
    # Evidence included, in phrase order, as the CLI prints it.
    assert [list(m.per_keyword.items()) for m in located] == [list(m.per_keyword.items()) for m in expected]


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


def test_locate_lemmatizes_only_its_keywords(lexicon, monkeypatch):
    nodes = extract_java(
        "class CarShop { int wordCount; void findCarValues(int runningTotal) {} void getWords() {} }",
        "Shop.java",
    )
    query = ConceptQuery(("finding", "car"))
    calls = []
    original = locator.lemmatize

    def counting(lexicon, token):
        calls.append(token)
        return original(lexicon, token)

    monkeypatch.setattr(locator, "lemmatize", counting)
    expand_query(query, lexicon)
    expanded = list(calls)
    calls.clear()
    matches = locate_concept(nodes, query, lexicon)
    assert calls == expanded == ["finding", "car"]
    assert matches == _reference_locate(nodes, query, lexicon)
    assert [m.per_keyword["finding"] for m in matches] == [("find", SELF, 0)]
