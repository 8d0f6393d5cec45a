import marshal
import shutil
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexiscope.lexicon import (
    HYPERNYM,
    HYPONYM,
    RELATIONS,
    SELF,
    SYNONYM,
    MalformedLineError,
    MissingFileError,
    PosTag,
    best_first,
    classify,
    lemmatize,
    load_lexicon,
    related_words,
)

from conftest import MINIDICT, write_dict


def fixture_lemma_count():
    # Independent oracle: count distinct lemmas straight off the index files.
    lemmas = set()
    for name in ("index.noun", "index.verb", "index.adj", "index.adv"):
        for line in (MINIDICT / name).read_text().splitlines():
            if line.strip() and not line.startswith(" "):
                lemmas.add(line.split()[0])
    return len(lemmas)


class TestLoad:
    def test_entry_count_matches_index_files(self, lexicon):
        assert len(lexicon) == fixture_lemma_count() == 23

    def test_synset_counts(self, lexicon):
        assert Counter(pos for _offset, pos in lexicon.synsets) == {
            PosTag.NOUN: 14,
            PosTag.VERB: 6,
            PosTag.ADJECTIVE: 2,
            PosTag.ADVERB: 1,
        }

    def test_ten_lemma_dict_has_ten_entries(self, tmp_path):
        words = ["alpha", "bravo", "charlie", "delta", "echo",
                 "foxtrot", "golf", "hotel", "india", "juliet"]
        lex = load_lexicon(write_dict(tmp_path / "dict", nouns=words))
        assert len(lex) == len(words) == 10

    def test_empty_directory_is_missing_file(self, tmp_path):
        with pytest.raises(MissingFileError):
            load_lexicon(tmp_path)

    def test_partial_directory_is_missing_file(self, tmp_path):
        write_dict(tmp_path / "dict", nouns=["alpha"])
        (tmp_path / "dict" / "data.adv").unlink()
        with pytest.raises(MissingFileError, match="data.adv"):
            load_lexicon(tmp_path / "dict")

    def test_malformed_index_line_reports_file_and_line(self, tmp_path):
        root = write_dict(tmp_path / "dict", nouns=["alpha"])
        (root / "index.noun").write_text("alpha n x 0 1 1 00000001\n")
        with pytest.raises(MalformedLineError) as err:
            load_lexicon(root)
        assert err.value.file_name == "index.noun"
        assert err.value.line_number == 1

    def test_malformed_data_line_aborts(self, tmp_path):
        root = write_dict(tmp_path / "dict", nouns=["alpha"])
        (root / "data.noun").write_text("00000001 00 n ZZ alpha 0 000 | bad\n")
        with pytest.raises(MalformedLineError):
            load_lexicon(root)

    def test_dangling_index_offset_rejected(self, tmp_path):
        root = write_dict(tmp_path / "dict", nouns=["alpha"])
        (root / "index.noun").write_text("alpha n 1 0 1 1 00000099\n")
        with pytest.raises(MalformedLineError, match="00000099|99"):
            load_lexicon(root)

    @pytest.mark.parametrize(
        "file_name, line, accepted_id",
        [
            ("index.verb", "car n 1 0 1 0 00000001", None),
            ("data.verb", "00000199 29 n 01 zap 0 000 | a noun synset among verbs", None),
            ("data.noun", "00000299 03 s 01 zap 0 000 | a satellite among nouns", None),
            ("index.noun", "car n 1 0 1 0 00000001", None),
            ("verb.exc", "went", None),
            ("index.noun", " zap n 1 0 1 0 00000001", None),
            ("data.noun", "00000099 03 n 01 zap 0 001 @ 00000077 n 0000 | points nowhere", None),
            ("data.adj", "00000203 00 s 01 fresh 0 000 | a satellite", (203, PosTag.ADJECTIVE)),
            (
                "data.noun",
                "00000015 03 n 01 finder 0 001 + 00000101 v 0101 | one who finds",
                (15, PosTag.NOUN),
            ),
        ],
        ids=[
            "misfiled-index-line",
            "misfiled-data-line",
            "satellite-outside-data-adj",
            "duplicate-lemma",
            "exception-without-base-form",
            "indented-line-after-header",
            "unresolved-pointer",
            "satellite-in-data-adj",
            "cross-pos-pointer",
        ],
    )
    def test_appended_line_is_checked(self, tmp_path, file_name, line, accepted_id):
        root = tmp_path / "dict"
        shutil.copytree(MINIDICT, root)
        with open(root / file_name, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        if accepted_id is not None:
            _lemmas, hypernyms, hyponyms = load_lexicon(root).synsets[accepted_id]
            assert hypernyms == hyponyms == ()
            return
        with pytest.raises(MalformedLineError) as err:
            load_lexicon(root)
        assert err.value.file_name == file_name
        assert err.value.line_number == len((root / file_name).read_text().splitlines())

    @pytest.mark.parametrize("file_name", ["data.noun", "index.verb", "verb.exc"])
    def test_undecodable_line_is_reported(self, tmp_path, file_name):
        # A long license header puts the bad byte past the first chunk a
        # text read decodes.
        root = tmp_path / "dict"
        shutil.copytree(MINIDICT, root)
        path = root / file_name
        header = b"" if file_name.endswith(".exc") else b"  license text, one of many lines\n" * 500
        path.write_bytes(header + path.read_bytes() + b"caf\xe9 cafe\n")
        with pytest.raises(MalformedLineError, match="not UTF-8") as err:
            load_lexicon(root)
        assert err.value.file_name == file_name
        assert err.value.line_number == path.read_bytes().count(b"\n")

    def test_satellite_adjective_and_marker(self, lexicon):
        entry = lexicon.entries.get("new")
        assert entry is not None
        assert list(entry) == [PosTag.ADJECTIVE]

    def test_determinism(self, lexicon):
        again = load_lexicon(MINIDICT)
        assert again.entries == lexicon.entries
        assert again.synsets == lexicon.synsets

    def test_marshal_round_trip(self, lexicon):
        assert_marshals(lexicon)


class TestRealisticFormat:
    """Lines shaped like the real WordNet 3.1 database files."""

    def _write(self, root):
        root.mkdir()
        (root / "data.noun").write_text(
            "  1 license header line\n"
            "00001740 03 n 02 sports_car 0 sport_car 0 003 @ 00001850 n 0000"
            " #p 00001850 n 0000 %p 00001850 n 0000 | a fast low car\n"
            "00001850 03 n 01 machine 0 002 ~ 00001740 n 0000 + 00002100 v 0101"
            " | a device with moving parts\n"
        )
        (root / "index.noun").write_text(
            "  1 license header line\n"
            "machine n 1 2 ~ + 1 4 00001850\n"
            "sport_car n 1 1 @ 1 0 00001740\n"
            "sports_car n 1 1 @ 1 1 00001740\n"
        )
        (root / "data.verb").write_text(
            "00002100 38 v 02 machine 0 tool 1 001 + 00001850 n 0101"
            " 02 + 08 00 + 11 00 | turn on a machine tool\n"
        )
        (root / "index.verb").write_text("machine v 1 1 + 1 2 00002100\ntool v 1 1 + 1 0 00002100\n")
        (root / "data.adj").write_text(
            "00003000 00 s 02 fast(p) 0 quick 0 001 & 00003000 a 0000 | acting in a short time\n"
        )
        (root / "index.adj").write_text("fast a 1 1 & 1 9 00003000\nquick a 1 1 & 1 3 00003000\n")
        (root / "data.adv").write_text("")
        (root / "index.adv").write_text("")
        return root

    def test_loads_and_keeps_only_isa_pointers(self, tmp_path):
        lex = load_lexicon(self._write(tmp_path / "dict"))
        assert len(lex) == 6
        lemmas, hypernyms, _hyponyms = lex.synsets[(1740, PosTag.NOUN)]
        assert lemmas == ("sports_car", "sport_car")
        assert hypernyms == ((1850, PosTag.NOUN),)
        _lemmas, _hypernyms, hyponyms = lex.synsets[(1850, PosTag.NOUN)]
        assert hyponyms == ((1740, PosTag.NOUN),)

    def test_verb_frames_and_cross_pos_pointers_skipped(self, tmp_path):
        lex = load_lexicon(self._write(tmp_path / "dict"))
        assert lex.synsets[(2100, PosTag.VERB)] == (("machine", "tool"), (), ())

    def test_satellite_and_marker_normalization(self, tmp_path):
        lex = load_lexicon(self._write(tmp_path / "dict"))
        lemmas, _hypernyms, _hyponyms = lex.synsets[(3000, PosTag.ADJECTIVE)]
        assert lemmas == ("fast", "quick")
        assert list(lex.entries.get("fast")) == [PosTag.ADJECTIVE]

    def test_multi_word_lemma_and_synonyms(self, tmp_path):
        lex = load_lexicon(self._write(tmp_path / "dict"))
        related = related_words(lex, "sports_car", {SYNONYM, HYPERNYM}, 1)
        assert ("sport_car", SYNONYM, 1) in related
        assert ("machine", HYPERNYM, 1) in related

    def test_tag_counts_rank_pos(self, tmp_path):
        lex = load_lexicon(self._write(tmp_path / "dict"))
        # machine: noun tag count 4 vs verb 2 -> noun
        assert classify(lex, "machine")[1] == PosTag.NOUN
        # tool: only verb, tag count 0 -> still verb
        assert classify(lex, "tool")[1] == PosTag.VERB


class TestConcurrentReaders:
    def test_parallel_queries_match_sequential(self, lexicon):
        from concurrent.futures import ThreadPoolExecutor

        words = sorted(lexicon.entries) + ["running", "values", "qqzx"]

        def probe(word):
            return (
                word,
                classify(lexicon, word),
                sorted(related_words(lexicon, word, RELATIONS, 2)),
            )

        sequential = [probe(w) for w in words]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(probe, words))
        assert parallel == sequential


class TestLookup:
    def test_good_is_noun_and_adjective(self, lexicon):
        entry = lexicon.entries.get("good")
        assert {PosTag.NOUN, PosTag.ADJECTIVE} <= set(entry)

    def test_unknown_word_absent(self, lexicon):
        assert lexicon.entries.get("qqzx") is None

    def test_set_is_noun_and_verb(self, lexicon):
        entry = lexicon.entries.get("set")
        assert {PosTag.NOUN, PosTag.VERB} <= set(entry)

    def test_no_morphology_applied(self, lexicon):
        assert lexicon.entries.get("values") is None


class TestLemmatize:
    def test_plural_detaches(self, lexicon):
        assert ("value", PosTag.NOUN) in lemmatize(lexicon, "values")

    def test_identity_for_index_lemma(self, lexicon):
        results = lemmatize(lexicon, "data")
        assert results[0] == ("data", PosTag.NOUN)

    def test_consonant_doubling_undo(self, lexicon):
        assert ("run", PosTag.VERB) in lemmatize(lexicon, "running")

    def test_exception_list(self, lexicon):
        assert ("find", PosTag.VERB) in lemmatize(lexicon, "found")
        assert ("run", PosTag.VERB) in lemmatize(lexicon, "ran")

    def test_exact_matches_first(self, lexicon):
        results = lemmatize(lexicon, "set")
        assert results[0][0] == "set"

    def test_unrecognized_is_empty(self, lexicon):
        assert lemmatize(lexicon, "qqzx") == []

    def test_no_duplicates(self, lexicon):
        results = lemmatize(lexicon, "values")
        assert len(results) == len(set(results))


class TestPrimaryPos:
    def test_value_is_noun_by_tag_count(self, lexicon):
        # index fixture: value noun 30 vs verb 5
        assert classify(lexicon, "value")[1] == PosTag.NOUN

    def test_set_is_verb_by_tag_count(self, lexicon):
        # index fixture: set noun 7 vs verb 21
        assert classify(lexicon, "set")[1] == PosTag.VERB

    def test_unknown_is_none(self, lexicon):
        assert classify(lexicon, "xyzzy") is None

    def test_good_gets_exactly_one_pos(self, lexicon):
        assert classify(lexicon, "good")[1] == PosTag.ADJECTIVE

    def test_tie_breaks_noun_first(self, tmp_path):
        root = write_dict(tmp_path / "dict", nouns=["light"], verbs=["light"])
        lex = load_lexicon(root)
        assert classify(lex, "light")[1] == PosTag.NOUN

    def test_classify_picks_best_lemma(self, lexicon):
        assert classify(lexicon, "values") == ("value", PosTag.NOUN)
        assert classify(lexicon, "running") == ("run", PosTag.VERB)


class TestRelatedWords:
    def test_get_is_hypernym_of_find(self, lexicon):
        related = related_words(lexicon, "find", {HYPERNYM}, 1)
        assert ("get", HYPERNYM, 1) in related

    def test_type_is_hyponym_of_form(self, lexicon):
        related = related_words(lexicon, "form", {HYPONYM}, 1)
        assert ("type", HYPONYM, 1) in related

    def test_vehicle_is_hypernym_of_car(self, lexicon):
        related = related_words(lexicon, "car", {HYPERNYM}, 1)
        assert ("vehicle", HYPERNYM, 1) in related

    def test_synonyms_are_co_members(self, lexicon):
        related = related_words(lexicon, "car", {SYNONYM}, 1)
        assert ("auto", SYNONYM, 1) in related
        assert all(rel != SYNONYM or word != "car" for word, rel, _ in related)

    def test_empty_relations_depth_zero(self, lexicon):
        assert related_words(lexicon, "car", set(), 0) == {("car", SELF, 0)}

    def test_unknown_word_only_self(self, lexicon):
        assert related_words(lexicon, "qqzx", RELATIONS, 3) == {("qqzx", SELF, 0)}

    def test_depth_two_reaches_grandparent(self, lexicon):
        related = related_words(lexicon, "car", {HYPERNYM}, 2)
        assert ("vehicle", HYPERNYM, 1) in related
        assert ("conveyance", HYPERNYM, 2) in related
        assert ("transport", HYPERNYM, 2) in related

    def test_monotone_in_depth_and_relations(self, lexicon):
        for word in ("car", "find", "form", "set", "qqzx"):
            shallow = related_words(lexicon, word, {HYPERNYM}, 1)
            deeper = related_words(lexicon, word, {HYPERNYM}, 3)
            wider = related_words(lexicon, word, RELATIONS, 1)
            assert shallow <= deeper
            assert shallow <= related_words(lexicon, word, RELATIONS, 3)
            assert related_words(lexicon, word, set(), 1) <= wider

    def test_hypernym_hyponym_symmetry(self, lexicon):
        # a in hyponyms(b) <=> b in hypernyms(a), over all fixture lemma pairs
        lemmas = list(lexicon.entries)
        for a in lemmas:
            hypernyms_of_a = {
                word for word, rel, _ in related_words(lexicon, a, {HYPERNYM}, 1) if rel == HYPERNYM
            }
            for b in lemmas:
                hyponyms_of_b = {
                    word for word, rel, _ in related_words(lexicon, b, {HYPONYM}, 1) if rel == HYPONYM
                }
                assert (a in hyponyms_of_b) == (b in hypernyms_of_a)


_WORDS = ("form", "shape", "car", "sports_car", "Nile", "run")
_FILES = (
    (PosTag.NOUN, "noun", "n"),
    (PosTag.VERB, "verb", "v"),
    (PosTag.ADJECTIVE, "adj", "a"),
    (PosTag.ADVERB, "adv", "r"),
)


@st.composite
def _dictionaries(draw):
    """A small dictionary model over all four parts of speech, rendered to WordNet text.

    Returns the files by name and the entries, synsets and exception tables
    load_lexicon should build from them.
    """
    files, entries, synsets, exceptions = {}, {}, {}, {}
    for tag, suffix, char in _FILES:
        offsets = draw(st.lists(st.integers(1, 99_999_999), max_size=4, unique=True))
        types = {
            offset: draw(st.sampled_from("as")) if tag is PosTag.ADJECTIVE else char
            for offset in offsets
        }
        words = {offset: draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3, unique=True))
                 for offset in offsets}
        pointers = {offset: [] for offset in offsets}
        for _ in range(draw(st.integers(0, 3)) if len(offsets) > 1 else 0):
            upper, lower = draw(st.permutations(offsets))[:2]
            instance = "i" if draw(st.booleans()) else ""
            pointers[lower].append(("@" + instance, upper))
            pointers[upper].append(("~" + instance, lower))
        header = "  1 license text, skipped\n" if draw(st.booleans()) else ""

        data = header
        senses: dict[str, list[int]] = {}
        for offset in offsets:
            markers = ("", "(p)", "(ip)") if tag is PosTag.ADJECTIVE else ("",)
            rendered = [word + draw(st.sampled_from(markers)) for word in words[offset]]
            extra = [("+", draw(st.sampled_from(offsets)))] if draw(st.booleans()) else []
            links = pointers[offset] + extra
            data += (
                f"{offset:08d} 03 {types[offset]} {len(rendered):02x} "
                + "".join(f"{word} 0 " for word in rendered)
                + f"{len(links):03d}"
                + "".join(f" {symbol} {target:08d} {types[target]} 0000" for symbol, target in links)
                + (" 01 + 08 00" if tag is PosTag.VERB else "")
                + " | a gloss\n"
            )
            lemmas = tuple(word.lower() for word in words[offset])
            synsets[(offset, tag)] = (
                lemmas,
                tuple((t, tag) for symbol, t in pointers[offset] if symbol[0] == "@"),
                tuple((t, tag) for symbol, t in pointers[offset] if symbol[0] == "~"),
            )
            for lemma in lemmas:
                senses.setdefault(lemma, []).append(offset)

        index = header
        for lemma, lemma_offsets in sorted(senses.items()):
            ordered = draw(st.permutations(lemma_offsets))
            tag_count = draw(st.integers(0, 40))
            symbols = sorted({symbol for o in ordered for symbol, _ in pointers[o]})
            index += (
                f"{lemma} {char} {len(ordered)} {len(symbols)} "
                + "".join(f"{symbol} " for symbol in symbols)
                + f"{len(ordered)} {tag_count} "
                + " ".join(f"{offset:08d}" for offset in ordered)
                + "  \n"
            )
            entries.setdefault(lemma, {})[tag] = (tag_count, tuple((offset, tag) for offset in ordered))
        files[f"data.{suffix}"] = data
        files[f"index.{suffix}"] = index

        if draw(st.booleans()):
            table = draw(st.dictionaries(
                st.sampled_from(("ran", "went", "Geese")),
                st.lists(st.sampled_from(_WORDS), min_size=1, max_size=2),
                max_size=3,
            ))
            files[f"{suffix}.exc"] = "".join(f"{k} {' '.join(v)}\n" for k, v in table.items())
            exceptions[tag] = {k.lower(): tuple(w.lower() for w in v) for k, v in table.items()}
    return files, entries, synsets, exceptions


@settings(max_examples=150, deadline=None)
@given(_dictionaries())
def test_load_returns_the_modelled_dictionary(case):
    files, entries, synsets, exceptions = case
    with tempfile.TemporaryDirectory() as directory:
        for name, text in files.items():
            (Path(directory) / name).write_text(text, encoding="utf-8")
        lexicon = load_lexicon(directory)
    assert lexicon.entries == entries
    assert lexicon.synsets == synsets
    assert lexicon.exceptions == exceptions
    assert_marshals(lexicon)


def assert_marshals(lexicon):
    # The loaded lexicon is plain data: marshal takes it whole and gives it back equal.
    tables = (lexicon.entries, lexicon.synsets, lexicon.exceptions)
    assert marshal.loads(marshal.dumps(tables)) == tables


class TestBestFirst:
    def test_self_then_distance_relation_word(self):
        triples = {
            ("zeta", HYPONYM, 1),
            ("alpha", HYPERNYM, 2),
            ("beta", SYNONYM, 1),
            ("omega", SELF, 0),
            ("gamma", HYPERNYM, 1),
            ("delta", HYPONYM, 1),
            ("acme", HYPONYM, 2),
        }
        assert best_first(triples) == [
            ("omega", SELF, 0),
            ("beta", SYNONYM, 1),
            ("gamma", HYPERNYM, 1),
            ("delta", HYPONYM, 1),
            ("zeta", HYPONYM, 1),
            ("alpha", HYPERNYM, 2),
            ("acme", HYPONYM, 2),
        ]

    def test_car_at_depth_two(self, lexicon):
        assert best_first(related_words(lexicon, "car", RELATIONS, 2)) == [
            ("car", SELF, 0),
            ("auto", SYNONYM, 1),
            ("vehicle", HYPERNYM, 1),
            ("conveyance", HYPERNYM, 2),
            ("transport", HYPERNYM, 2),
        ]
