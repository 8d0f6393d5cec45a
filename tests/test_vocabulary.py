import random

import pytest

from lexiscope.extractor import SourceNode
from lexiscope.lexicon import PosTag
from lexiscope.vocabulary import (
    FilterConfig,
    ProjectVocabulary,
    VocabularyEntry,
    build_vocabulary,
    compute_stats,
    load_stoplist,
    percent,
    top_k,
)

NO_FILTER = FilterConfig(stoplist=frozenset())


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
        vocab = build_vocabulary([node(0, "class", "Car")], lexicon, NO_FILTER)
        assert set(vocab.entries) == {"car"}
        car = vocab.entries["car"]
        assert car.recognized and car.pos == PosTag.NOUN
        assert car.total == 1
        assert car.counts_by_kind == {"class": 1, "method": 0, "parameter": 0, "field": 0}

    def test_empty_node_list(self, lexicon):
        assert build_vocabulary([], lexicon, NO_FILTER).entries == {}

    def test_set_value_split_counts(self, lexicon):
        vocab = build_vocabulary([node(0, "method", "setValue")], lexicon, NO_FILTER)
        assert set(vocab.entries) == {"set", "value"}
        for word in ("set", "value"):
            assert vocab.entries[word].counts_by_kind["method"] == 1
            assert vocab.entries[word].total == 1

    def test_inflections_merge_under_lemma(self, lexicon):
        nodes = [node(0, "field", "value"), node(1, "field", "values")]
        vocab = build_vocabulary(nodes, lexicon, NO_FILTER)
        assert set(vocab.entries) == {"value"}
        assert vocab.entries["value"].total == 2

    def test_unrecognized_words_keep_raw_text(self, lexicon):
        vocab = build_vocabulary([node(0, "method", "fooBar")], lexicon, NO_FILTER)
        assert set(vocab.entries) == {"foo", "bar"}
        for word_entry in vocab.entries.values():
            assert not word_entry.recognized
            assert word_entry.pos is None

    def test_stoplist_and_min_length(self, lexicon):
        config = FilterConfig(stoplist=frozenset({"if"}))
        nodes = [node(0, "method", "ifValue"), node(1, "parameter", "aCar")]
        vocab = build_vocabulary(nodes, lexicon, config)
        assert set(vocab.entries) == {"value", "car"}

    def test_counts_by_kind_accumulate(self, lexicon):
        nodes = [
            node(0, "class", "Car"),
            node(1, "field", "carWheel", 0),
            node(2, "parameter", "car", 0),
        ]
        vocab = build_vocabulary(nodes, lexicon, NO_FILTER)
        car = vocab.entries["car"]
        assert car.counts_by_kind == {"class": 1, "method": 0, "parameter": 1, "field": 1}
        assert car.total == 3

    def test_recognized_iff_pos_present(self, lexicon):
        nodes = [node(i, "method", name) for i, name in enumerate(["setXyzzyValue", "runFoo"])]
        vocab = build_vocabulary(nodes, lexicon, NO_FILTER)
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
        forward = build_vocabulary(nodes, lexicon, NO_FILTER)
        backward = build_vocabulary(shuffled, lexicon, NO_FILTER)
        assert forward.entries == backward.entries

    def test_conservation(self, lexicon):
        from lexiscope.tokenizer import split_identifier

        nodes = [
            node(0, "class", "CarWheel"),
            node(1, "method", "setValue2", 0),
            node(2, "parameter", "newValue", 1),
            node(3, "field", "a", 0),
        ]
        config = FilterConfig(stoplist=frozenset({"new"}))
        surviving = sum(
            1
            for n in nodes
            for token in split_identifier(n.name)
            if config.keeps(token)
        )
        vocab = build_vocabulary(nodes, lexicon, config)
        assert sum(e.total for e in vocab.entries.values()) == surviving


class TestComputeStats:
    def test_partition_golden(self, lexicon):
        nodes = [
            node(0, "class", "Car"),
            node(1, "method", "setValue", 0),
            node(2, "field", "goodWheel", 0),
            node(3, "parameter", "quicklyFoo", 1),
        ]
        stats = compute_stats(
            build_vocabulary(nodes, lexicon, NO_FILTER, project_name="demo", file_count=4)
        )
        assert stats.total_words == 7
        assert (stats.recognized, stats.unrecognized) == (6, 1)
        assert (stats.nouns, stats.verbs, stats.adjectives, stats.adverbs) == (3, 1, 1, 1)
        assert stats.recognized + stats.unrecognized == stats.total_words
        assert stats.nouns + stats.verbs + stats.adjectives + stats.adverbs == stats.recognized
        assert (stats.recognized_pct, stats.unrecognized_pct) == (86, 14)
        assert (stats.noun_pct, stats.verb_pct, stats.adjective_pct, stats.adverb_pct) == (
            50,
            17,
            17,
            17,
        )
        assert stats.file_count == 4

    def test_two_recognized_one_not(self, lexicon):
        nodes = [node(0, "class", "CarWheel"), node(1, "field", "zzz", 0)]
        stats = compute_stats(build_vocabulary(nodes, lexicon, NO_FILTER))
        assert stats.total_words == 3
        assert stats.recognized == 2
        assert stats.recognized_pct == 67
        assert stats.noun_pct == 100

    def test_empty_vocabulary_is_all_zero(self, lexicon):
        stats = compute_stats(build_vocabulary([], lexicon, NO_FILTER))
        assert stats.total_words == 0
        assert stats.recognized_pct == 0
        assert stats.adverb_pct == 0


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
        stoplist = FilterConfig.default().stoplist
        assert "a" in stoplist and "z" in stoplist
        assert "public" in stoplist and "while" in stoplist
        assert "class" not in stoplist
        assert "name" not in stoplist
