import random

import pytest

from lexiscope.domain import (
    DOMAIN,
    POTENTIAL,
    SINGLE,
    build_domain_vocabulary,
)
from lexiscope.vocabulary import ProjectVocabulary, VocabularyEntry


def vocab(name, totals, file_count=1):
    entries = {
        word: VocabularyEntry(
            word=word,
            recognized=False,
            pos=None,
            total=total,
            counts_by_kind={"class": total, "method": 0, "parameter": 0, "field": 0},
        )
        for word, total in totals.items()
    }
    return ProjectVocabulary(name, file_count, entries)


SERVERS = [
    vocab("glassfish", {"name": 28727, "value": 9067, "object": 5277}),
    vocab("jboss", {"name": 11774, "test": 7332, "object": 2962}),
    vocab("jonas", {"name": 6950, "ejb": 2570, "action": 801}),
]


class TestStatuses:
    def test_word_in_all_projects_is_domain(self):
        result = build_domain_vocabulary(SERVERS, k=50)
        by_word = {t.word: t for t in result.terms}
        name = by_word["name"]
        assert name.status == DOMAIN
        assert name.support_count == 3
        assert name.per_project_totals == {
            "glassfish": 28727,
            "jboss": 11774,
            "jonas": 6950,
        }

    def test_word_in_two_projects_is_potential(self):
        result = build_domain_vocabulary(SERVERS, k=50)
        by_word = {t.word: t for t in result.terms}
        assert by_word["object"].status == POTENTIAL
        assert by_word["object"].support_count == 2

    def test_word_in_one_project_is_single(self):
        result = build_domain_vocabulary(SERVERS, k=50)
        by_word = {t.word: t for t in result.terms}
        assert by_word["action"].status == SINGLE
        assert by_word["action"].per_project_totals["glassfish"] == 0

    def test_one_vocabulary_is_too_few(self):
        with pytest.raises(ValueError, match="at least 2"):
            build_domain_vocabulary(SERVERS[:1], k=50)

    def test_repeated_project_name_rejected(self):
        # Totals are keyed by project name: a repeat would hide the earlier project.
        twin = vocab("jboss", {"name": 1, "bean": 4})
        with pytest.raises(ValueError, match="'jboss'.*analyze --project"):
            build_domain_vocabulary(SERVERS + [twin], k=50)

    def test_status_partition(self):
        result = build_domain_vocabulary(SERVERS, k=50)
        words = {t.word for t in result.terms}
        expected = {"name", "value", "object", "test", "ejb", "action"}
        assert words == expected
        assert all(t.status in (DOMAIN, POTENTIAL, SINGLE) for t in result.terms)
        assert len(result.terms) == len(expected)

    def test_sorted_by_support_then_totals_then_word(self):
        result = build_domain_vocabulary(SERVERS, k=50)
        keys = [
            (-t.support_count, -sum(t.per_project_totals.values()), t.word)
            for t in result.terms
        ]
        assert keys == sorted(keys)
        assert result.terms[0].word == "name"

    def test_top_k_truncation_controls_support(self):
        projects = [
            vocab("p1", {"alpha": 9, "beta": 1}),
            vocab("p2", {"alpha": 9, "beta": 8}),
        ]
        result = build_domain_vocabulary(projects, k=1)
        by_word = {t.word: t for t in result.terms}
        assert by_word["alpha"].status == DOMAIN
        assert "beta" not in by_word  # below top-1 everywhere it exists

    def test_identical_vocabularies_all_domain(self):
        projects = [vocab(f"p{i}", {"alpha": 3, "beta": 2, "gamma": 1}) for i in range(4)]
        result = build_domain_vocabulary(projects, k=1000)
        assert all(t.status == DOMAIN for t in result.terms)


class TestSemanticMerge:
    def test_car_supported_via_vehicle_hypernym(self, lexicon):
        projects = [
            vocab("p1", {"car": 12, "alpha": 1}),
            vocab("p2", {"vehicle": 9, "beta": 1}),
        ]
        plain = build_domain_vocabulary(projects, k=50)
        merged = build_domain_vocabulary(projects, k=50, lexicon=lexicon)

        plain_car = {t.word: t for t in plain.terms}["car"]
        merged_car = {t.word: t for t in merged.terms}["car"]
        assert plain_car.support_count == 1 and plain_car.status == SINGLE
        assert merged_car.support_count == 2 and merged_car.status == DOMAIN
        assert merged_car.evidence == {"p2": ("vehicle", "hypernym")}
        assert merged_car.per_project_totals == {"p1": 12, "p2": 0}

        merged_vehicle = {t.word: t for t in merged.terms}["vehicle"]
        assert merged_vehicle.evidence == {"p1": ("car", "hyponym")}

    def test_synonym_support(self, lexicon):
        projects = [vocab("p1", {"car": 5}), vocab("p2", {"auto": 4})]
        merged = build_domain_vocabulary(projects, k=50, lexicon=lexicon)
        by_word = {t.word: t for t in merged.terms}
        assert by_word["car"].evidence == {"p2": ("auto", "synonym")}
        assert by_word["car"].status == DOMAIN

    def test_semantic_never_decreases_support(self, lexicon):
        words = list(lexicon.entries) + ["zork", "grue", "blit"]
        rng = random.Random(42)
        for _ in range(25):
            projects = [
                vocab(
                    f"p{i}",
                    {
                        w: rng.randint(1, 100)
                        for w in rng.sample(words, rng.randint(1, len(words) // 2))
                    },
                )
                for i in range(rng.randint(2, 4))
            ]
            k = rng.randint(1, 12)
            plain = build_domain_vocabulary(projects, k=k)
            merged = build_domain_vocabulary(projects, k=k, lexicon=lexicon)
            plain_support = {t.word: t.support_count for t in plain.terms}
            merged_support = {t.word: t.support_count for t in merged.terms}
            assert set(plain_support) == set(merged_support)
            for word, support in plain_support.items():
                assert merged_support[word] >= support

    @pytest.mark.parametrize(
        "word, present, expected",
        [
            ("vehicle", {"car": 3, "transport": 1}, ("transport", "hypernym")),
            ("vehicle", {"transport": 3, "conveyance": 1}, ("conveyance", "hypernym")),
            ("vehicle", {"car": 3, "auto": 1}, ("auto", "hyponym")),
            ("car", {"vehicle": 3, "auto": 1}, ("auto", "synonym")),
        ],
        ids=["hypernym-beats-hyponym", "hypernym-tie-alphabetical",
             "hyponym-tie-alphabetical", "synonym-beats-hypernym"],
    )
    def test_evidence_is_the_best_related_word(self, lexicon, word, present, expected):
        # Minidict: vehicle's hypernyms are conveyance and transport, its
        # hyponyms car and auto; car and auto are synonyms.
        projects = [vocab("p1", {word: 5}), vocab("p2", present)]
        merged = build_domain_vocabulary(projects, k=50, lexicon=lexicon)
        assert {t.word: t for t in merged.terms}[word].evidence == {"p2": expected}
