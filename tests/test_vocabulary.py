import os
import random
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexiscope.extractor import KINDS, SourceNode
from lexiscope.lexicon import (
    Lexicon,
    PosTag,
    _parse_lexicon,
    classify,
    lemmatize,
    load_lexicon,
)
from lexiscope.tokenizer import split_identifier
from lexiscope.vocabulary import (
    ProjectVocabulary,
    VocabularyEntry,
    build_vocabulary,
    compute_stats,
    default_stoplist,
    load_stoplist,
    percent,
    top_k,
)

from conftest import write_dict
from test_lexicon import _WORDS, _dictionaries, _reference_classify, _reference_lemmatize


def node(node_id, kind, name, parent=None):
    return SourceNode(node_id, kind, name, "src/Fixture.java", node_id + 1, parent)


def entry(word, total, pos=None):
    return VocabularyEntry(
        word=word,
        recognized=pos is not None,
        pos=pos,
        total=total,
        counts_by_kind={"class": total, "method": 0, "parameter": 0, "field": 0},
    )


class TestBuildVocabulary:
    def test_single_class_node(self, lexicon):
        vocab = build_vocabulary([node(0, "class", "Car")], lexicon)
        assert set(vocab.entries) == {"car"}
        car = vocab.entries["car"]
        assert car.recognized and car.pos == PosTag.NOUN
        assert car.total == 1
        assert car.counts_by_kind == {"class": 1, "method": 0, "parameter": 0, "field": 0}

    def test_empty_node_list(self, lexicon):
        assert build_vocabulary([], lexicon).entries == {}

    def test_set_value_split_counts(self, lexicon):
        vocab = build_vocabulary([node(0, "method", "setValue")], lexicon)
        assert set(vocab.entries) == {"set", "value"}
        for word in ("set", "value"):
            assert vocab.entries[word].counts_by_kind["method"] == 1
            assert vocab.entries[word].total == 1

    def test_inflections_merge_under_lemma(self, lexicon):
        nodes = [node(0, "field", "value"), node(1, "field", "values")]
        vocab = build_vocabulary(nodes, lexicon)
        assert set(vocab.entries) == {"value"}
        assert vocab.entries["value"].total == 2

    def test_unrecognized_words_keep_raw_text(self, lexicon):
        vocab = build_vocabulary([node(0, "method", "fooBar")], lexicon)
        assert set(vocab.entries) == {"foo", "bar"}
        for word_entry in vocab.entries.values():
            assert not word_entry.recognized
            assert word_entry.pos is None

    def test_stoplist_and_min_length(self, lexicon):
        nodes = [node(0, "method", "ifValue"), node(1, "parameter", "aCar")]
        vocab = build_vocabulary(nodes, lexicon, frozenset({"if"}))
        assert set(vocab.entries) == {"value", "car"}

    def test_counts_by_kind_accumulate(self, lexicon):
        nodes = [
            node(0, "class", "Car"),
            node(1, "field", "carWheel", 0),
            node(2, "parameter", "car", 0),
        ]
        vocab = build_vocabulary(nodes, lexicon)
        car = vocab.entries["car"]
        assert car.counts_by_kind == {"class": 1, "method": 0, "parameter": 1, "field": 1}
        assert car.total == 3

    def test_recognized_iff_pos_present(self, lexicon):
        nodes = [node(i, "method", name) for i, name in enumerate(["setXyzzyValue", "runFoo"])]
        vocab = build_vocabulary(nodes, lexicon)
        for word_entry in vocab.entries.values():
            assert word_entry.recognized == (word_entry.pos is not None)

    def test_order_free(self, lexicon):
        nodes = [
            node(0, "class", "CarWheel"),
            node(1, "method", "setValue", 0),
            node(2, "field", "goodName", 0),
        ]
        shuffled = nodes[:]
        random.Random(7).shuffle(shuffled)
        forward = build_vocabulary(nodes, lexicon)
        backward = build_vocabulary(shuffled, lexicon)
        assert forward.entries == backward.entries

    def test_conservation(self, lexicon):
        from lexiscope.tokenizer import split_identifier

        nodes = [
            node(0, "class", "CarWheel"),
            node(1, "method", "setValue2", 0),
            node(2, "parameter", "newValue", 1),
            node(3, "field", "a", 0),
        ]
        stoplist = frozenset({"new"})
        surviving = sum(
            1
            for n in nodes
            for token in split_identifier(n.name)
            if len(token) >= 2 and token not in stoplist
        )
        vocab = build_vocabulary(nodes, lexicon, stoplist)
        assert sum(e.total for e in vocab.entries.values()) == surviving


    def test_an_entry_takes_the_pos_of_its_first_reading(self, tmp_path):
        # neck is a noun and a verb of one tag count each: neck reads as the
        # noun (ties go to the noun), necking only as the verb.
        neck = load_lexicon(write_dict(tmp_path / "dict", nouns=["neck"], verbs=["neck"]))
        assert classify(neck, "neck") == ("neck", PosTag.NOUN)
        assert classify(neck, "necking") == ("neck", PosTag.VERB)
        nodes = [node(0, "method", "necking"), node(1, "field", "neck")]
        swapped = [node(0, "field", "neck"), node(1, "method", "necking")]
        counts = {"class": 0, "method": 1, "parameter": 0, "field": 1}
        assert build_vocabulary(nodes, neck).entries == {
            "neck": VocabularyEntry("neck", True, PosTag.VERB, 2, counts)
        }
        assert build_vocabulary(swapped, neck).entries == {
            "neck": VocabularyEntry("neck", True, PosTag.NOUN, 2, counts)
        }

    def test_entries_are_in_first_occurrence_order(self, lexicon):
        nodes = [node(0, "class", "WheelCar"), node(1, "field", "zzzValue"), node(2, "method", "setCars")]
        vocab = build_vocabulary(nodes, lexicon)
        assert list(vocab.entries) == ["wheel", "car", "zzz", "value", "set"]


def _reference_build_vocabulary(nodes, lexicon, stoplist=frozenset(), *, project_name="", file_count=0):
    """build_vocabulary as first written: a split per node and an entry update per occurrence."""
    vocabulary = ProjectVocabulary(project_name, file_count)
    classified = {}
    for n in nodes:
        for token in split_identifier(n.name):
            if len(token) < 2 or token in stoplist:
                continue
            if token not in classified:
                classified[token] = _reference_classify(lexicon, token)
            found = classified[token]
            word, pos = (token, None) if found is None else found
            entry = vocabulary.entries.get(word)
            if entry is None:
                entry = vocabulary.entries[word] = VocabularyEntry(
                    word, pos is not None, pos, 0, {kind: 0 for kind in KINDS}
                )
            entry.total += 1
            entry.counts_by_kind[n.kind] += 1
    return vocabulary


# Stems that inflect into readings of the drawn dictionaries, and some that do not.
_STEMS = (*(word.lower() for word in _WORDS), "ran", "went", "geese", "xml", "wheel", "city")
_ENDINGS = ("", "s", "es", "ies", "ed", "ing", "er", "est", "d")


@st.composite
def _pieces(draw):
    """One piece of a name: an inflected stem in one of three cases, a separator, digits or a stray letter run."""
    choice = draw(st.integers(0, 5))
    if choice == 0:
        return draw(st.sampled_from(("_", "$", "7", "42")))
    if choice == 1:
        return draw(st.text("abcXYZ", min_size=1, max_size=3))
    stem = draw(st.sampled_from(_STEMS))
    # The stem as is, less its last letter (shaping) or with it doubled (running).
    stem = draw(st.sampled_from((stem, stem[:-1] or stem, stem + stem[-1])))
    word = stem + draw(st.sampled_from(_ENDINGS))
    return draw(st.sampled_from((word, word.capitalize(), word.upper())))


_NAMES = st.lists(_pieces(), min_size=1, max_size=4).map("".join)


@settings(max_examples=150, deadline=None)
@given(
    _dictionaries(),
    st.lists(st.tuples(st.sampled_from(KINDS), _NAMES), max_size=12),
    st.frozensets(st.sampled_from((*_STEMS, "runs", "cars", "ing", "xy", "ab"))),
)
def test_build_vocabulary_matches_its_reference(case, named, stoplist):
    files = case[0]
    nodes = [SourceNode(i, kind, name, "F.java", i + 1, None) for i, (kind, name) in enumerate(named)]
    tokens = {token for _kind, name in named for token in split_identifier(name)}
    with tempfile.TemporaryDirectory() as directory:
        root = Path(directory) / "dict"
        root.mkdir()
        for name, text in files.items():
            (root / name).write_text(text, encoding="utf-8")
        # The parsed dicts, which only the references read.
        parsed = Lexicon(*_parse_lexicon(root))
        expected = _reference_build_vocabulary(nodes, parsed, stoplist, project_name="p", file_count=3)
        # A parse holds every piece at once; a load from the slot it wrote
        # reads each piece, the class table too, as a lookup first reaches it.
        with mock.patch.dict(os.environ, XDG_CACHE_HOME=os.path.join(directory, "cache")):
            cold, warm = load_lexicon(root), load_lexicon(root)
        assert set(warm.entries._shards.pieces) == {None}
        for lexicon in (cold, warm):
            vocabulary = build_vocabulary(nodes, lexicon, stoplist, project_name="p", file_count=3)
            assert (vocabulary.project_name, vocabulary.file_count) == ("p", 3)
            assert list(vocabulary.entries.items()) == list(expected.entries.items())
            for token in (*tokens, *(token.upper() for token in tokens), ""):
                assert classify(lexicon, token) == _reference_classify(parsed, token), token
                assert lemmatize(lexicon, token) == _reference_lemmatize(parsed, token), token


class TestComputeStats:
    def test_partition_golden(self, lexicon):
        nodes = [
            node(0, "class", "Car"),
            node(1, "method", "setValue", 0),
            node(2, "field", "goodWheel", 0),
            node(3, "parameter", "quicklyFoo", 1),
        ]
        stats = compute_stats(
            build_vocabulary(nodes, lexicon, project_name="demo", file_count=4)
        )
        assert stats["distinct_words"] == 7
        assert (stats["recognized"], stats["unrecognized"]) == (6, 1)
        assert (
            stats["nouns"], stats["verbs"], stats["adjectives"], stats["adverbs"]
        ) == (3, 1, 1, 1)
        assert stats["recognized"] + stats["unrecognized"] == stats["distinct_words"]
        assert (
            stats["nouns"] + stats["verbs"] + stats["adjectives"] + stats["adverbs"]
            == stats["recognized"]
        )
        assert (stats["recognized_pct"], stats["unrecognized_pct"]) == (86, 14)
        assert (
            stats["nouns_pct"], stats["verbs_pct"], stats["adjectives_pct"], stats["adverbs_pct"]
        ) == (50, 17, 17, 17)
        assert stats["files"] == 4

    def test_two_recognized_one_not(self, lexicon):
        nodes = [node(0, "class", "CarWheel"), node(1, "field", "zzz", 0)]
        stats = compute_stats(build_vocabulary(nodes, lexicon))
        assert stats["distinct_words"] == 3
        assert stats["recognized"] == 2
        assert stats["recognized_pct"] == 67
        assert stats["nouns_pct"] == 100

    def test_empty_vocabulary_is_all_zero(self, lexicon):
        stats = compute_stats(build_vocabulary([], lexicon))
        assert stats["distinct_words"] == 0
        assert stats["recognized_pct"] == 0
        assert stats["adverbs_pct"] == 0


class TestPercent:
    @pytest.mark.parametrize(
        "num, den, expected",
        [(1, 8, 13), (2, 3, 67), (1, 3, 33), (0, 0, 0), (5, 5, 100), (0, 9, 0), (1, 200, 1)],
    )
    def test_half_up(self, num, den, expected):
        assert percent(num, den) == expected


class TestTopK:
    def test_zero_k(self):
        vocab = ProjectVocabulary("p", 1, {"name": entry("name", 3)})
        assert top_k(vocab, 0) == []

    def test_most_used_first(self):
        vocab = ProjectVocabulary(
            "glassfish-style",
            10553,
            {
                "name": entry("name", 28727, PosTag.NOUN),
                "value": entry("value", 9067, PosTag.NOUN),
                "type": entry("type", 7550, PosTag.NOUN),
            },
        )
        ranked = top_k(vocab, 2)
        assert [e.word for e in ranked] == ["name", "value"]

    def test_ties_alphabetical(self):
        vocab = ProjectVocabulary(
            "p", 1, {"beta": entry("beta", 5), "alpha": entry("alpha", 5)}
        )
        assert [e.word for e in top_k(vocab, 2)] == ["alpha", "beta"]


class TestStoplist:
    def test_load_stoplist_file(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment\nfoo\n\nBAR  # trailing\n")
        assert load_stoplist(path) == frozenset({"foo", "bar"})

    def test_default_stoplist_contents(self):
        stoplist = default_stoplist()
        assert "a" in stoplist and "z" in stoplist
        assert "public" in stoplist and "while" in stoplist
        assert "class" not in stoplist
        assert "name" not in stoplist
