"""Acceptance suite: one test per exit criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines even when everything passes.
"""

import json
import os
import random
import re
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from lexiscope.cli import main
from lexiscope.domain import DOMAIN, SINGLE, build_domain_vocabulary
from lexiscope.extractor import SourceNode
from lexiscope.index import ProjectIndex, save_index
from lexiscope.lexicon import PosTag, load_lexicon
from lexiscope.tokenizer import split_identifier
from lexiscope.vocabulary import (
    ProjectVocabulary,
    VocabularyEntry,
    build_vocabulary,
    compute_stats,
)

from conftest import MINICORPUS, MINIDICT


@contextmanager
def criterion(number, title):
    try:
        yield
    except pytest.skip.Exception:
        print(f"\n[acceptance] criterion {number} ({title}): SKIP")
        raise
    except Exception:
        print(f"\n[acceptance] criterion {number} ({title}): FAIL")
        raise
    else:
        print(f"\n[acceptance] criterion {number} ({title}): PASS")


DICT_WORDS = [
    "car", "auto", "vehicle", "value", "values", "word", "wheel", "count",
    "name", "names", "data", "set", "good", "find", "found", "get", "run",
    "running", "new", "quickly", "form", "type", "shape", "term",
]
NOISE_WORDS = ["zork", "blit", "grue", "fnord", "xyzzy", "qux", "impl", "cfg"]
KINDS = ["class", "method", "parameter", "field"]


def random_identifier(rng):
    segments = rng.choices(DICT_WORDS + NOISE_WORDS, k=rng.randint(1, 3))
    name = segments[0] + "".join(s.capitalize() for s in segments[1:])
    if rng.random() < 0.3:
        name += str(rng.randint(0, 99))
    if rng.random() < 0.2:
        name = "_" + name
    return name


def random_nodes(rng, count):
    return [
        SourceNode(i, rng.choice(KINDS), random_identifier(rng), "Gen.java", i + 1, None)
        for i in range(count)
    ]


def test_criterion_1_stats_partition_identity(lexicon):
    with criterion(1, "stats partition identity over 1000 random vocabularies"):
        # Anchor arithmetic the identity mirrors: POS counts sum to the
        # recognized count, recognized + unrecognized sum to all words.
        assert 2361 + 1259 + 549 + 128 == 4297
        assert 537 + 229 + 117 + 20 == 903

        rng = random.Random(20260810)
        stoplist = frozenset({"impl", "cfg"})
        started = time.monotonic()
        for _ in range(1000):
            nodes = random_nodes(rng, rng.randint(0, 25))
            stats = compute_stats(build_vocabulary(nodes, lexicon, stoplist))
            assert stats["recognized"] + stats["unrecognized"] == stats["distinct_words"]
            assert (
                stats["nouns"] + stats["verbs"] + stats["adjectives"] + stats["adverbs"]
                == stats["recognized"]
            )
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_splitter_golden_and_properties():
    with criterion(2, "splitter golden and reconstruction/idempotence"):
        assert split_identifier("setValue") == ["set", "value"]

        rng = random.Random(42)
        alphabet = "abcdefgXYZ_$0123456789QRStuv"
        started = time.monotonic()
        for _ in range(1200):
            length = rng.randint(1, 24)
            name = rng.choice("aZ_$") + "".join(rng.choices(alphabet, k=length))
            tokens = split_identifier(name)
            assert "".join(tokens) == re.sub(r"[_$0-9]", "", name).lower()
            for token in tokens:
                assert re.fullmatch(r"[a-z]+", token)
                assert split_identifier(token) == [token]
        elapsed = time.monotonic() - started
        assert elapsed < 2.0, f"took {elapsed:.2f}s"


def test_criterion_3_concept_location_end_to_end(tmp_path, capsys):
    with criterion(3, "worked concept-location example end to end"):
        started = time.monotonic()
        index_path = tmp_path / "minicorpus.json"
        assert main(["analyze", str(MINICORPUS), "--dict", str(MINIDICT),
                     "-o", str(index_path)]) == 0
        capsys.readouterr()

        assert main(["locate", str(index_path), "find word form",
                     "--dict", str(MINIDICT)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "WordTools.java:2 method getType 5"
        assert lines[1:4] == [
            "  find→get (hypernym,1)",
            "  word→word (self,0)",
            "  form→type (hyponym,1)",
        ]

        assert main(["locate", str(index_path), "find word form",
                     "--dict", str(MINIDICT), "--relations", "none"]) == 0
        assert capsys.readouterr().out.strip() == "no matches"
        elapsed = time.monotonic() - started
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def _synthetic_index(path, name, totals):
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
    save_index(ProjectIndex([], ProjectVocabulary(name, 1, entries)), path)
    return str(path)


def test_criterion_4_domain_statuses_and_markers(tmp_path, capsys):
    with criterion(4, "domain intersection statuses and markers"):
        paths = [
            _synthetic_index(tmp_path / "p1.json", "p1", {"name": 90, "object": 50, "solo": 10}),
            _synthetic_index(tmp_path / "p2.json", "p2", {"name": 80, "object": 40}),
            _synthetic_index(tmp_path / "p3.json", "p3", {"name": 70, "other": 5}),
        ]
        assert main(["domain", *paths, "-k", "50"]) == 0
        lines = capsys.readouterr().out.splitlines()

        def row(word):
            return next(line for line in lines if re.match(rf"\*{{0,2}}{word}\*{{0,2}}\s", line))

        assert row("name").startswith("**name**")       # 3/3 -> domain, bold
        assert row("object").startswith("*object*")     # 2/3 -> potential, italic
        assert not row("object").startswith("**")
        assert row("solo").startswith("solo")           # 1/3 -> single, plain
        assert "*" not in row("solo").split()[0]


def test_criterion_5_semantic_merge_and_monotonicity(lexicon):
    with criterion(5, "semantic merge support and monotonicity"):
        vocabs = [
            ProjectVocabulary("p1", 1, {
                "car": VocabularyEntry("car", True, PosTag.NOUN, 12,
                                       {"class": 12, "method": 0, "parameter": 0, "field": 0}),
            }),
            ProjectVocabulary("p2", 1, {
                "vehicle": VocabularyEntry("vehicle", True, PosTag.NOUN, 9,
                                           {"class": 9, "method": 0, "parameter": 0, "field": 0}),
            }),
        ]
        plain = build_domain_vocabulary(vocabs, k=50)
        merged = build_domain_vocabulary(vocabs, k=50, lexicon=lexicon)
        plain_car = next(t for t in plain.terms if t.word == "car")
        merged_car = next(t for t in merged.terms if t.word == "car")
        assert plain_car.support_count == 1 and plain_car.status == SINGLE
        assert merged_car.support_count == 2 and merged_car.status == DOMAIN
        assert merged_car.evidence["p2"] == ("vehicle", "hypernym")

        words = DICT_WORDS + NOISE_WORDS
        rng = random.Random(777)
        for _ in range(50):
            projects = []
            for p in range(rng.randint(2, 4)):
                chosen = rng.sample(words, rng.randint(1, 10))
                projects.append(
                    ProjectVocabulary(f"p{p}", 1, {
                        w: VocabularyEntry(w, False, None, rng.randint(1, 50),
                                           {"class": 1, "method": 0, "parameter": 0, "field": 0})
                        for w in chosen
                    })
                )
            k = rng.randint(1, 8)
            off = build_domain_vocabulary(projects, k=k)
            on = build_domain_vocabulary(projects, k=k, lexicon=lexicon)
            support_off = {t.word: t.support_count for t in off.terms}
            support_on = {t.word: t.support_count for t in on.terms}
            assert set(support_off) == set(support_on)
            assert all(support_on[w] >= s for w, s in support_off.items())


def test_criterion_6_real_wordnet_smoke():
    with criterion(6, "real WordNet 3.1 smoke test"):
        configured = os.environ.get("LEXISCOPE_DICT")
        if not configured or not (Path(configured) / "index.noun").is_file():
            pytest.skip("real WordNet dict files not supplied (set LEXISCOPE_DICT)")

        started = time.monotonic()
        lexicon = load_lexicon(configured)
        load_elapsed = time.monotonic() - started
        assert load_elapsed < 5.0, f"load took {load_elapsed:.2f}s"

        entry = lexicon.entries.get("good")
        assert entry is not None
        assert {PosTag.NOUN, PosTag.ADJECTIVE} <= set(entry)

        probes = list(lexicon.entries)[:1000] + ["notawordatall"] * 10
        started = time.monotonic()
        hits = 0
        for i in range(100_000):
            if lexicon.entries.get(probes[i % len(probes)]) is not None:
                hits += 1
        lookup_elapsed = time.monotonic() - started
        assert hits > 0
        assert lookup_elapsed < 1.0, f"lookups took {lookup_elapsed:.2f}s"


def _generate_corpus(root: Path, files: int) -> None:
    rng = random.Random(1234)
    for i in range(files):
        sub = root / f"pkg{i % 7}"
        sub.mkdir(exist_ok=True)
        class_name = f"Gen{i}"
        members = []
        for m in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                members.append(f"    int {random_identifier(rng)}{m};")
            else:
                members.append(
                    f"    void {random_identifier(rng)}{m}(int {random_identifier(rng)}) {{ }}"
                )
        body = "\n".join(members)
        (sub / f"{class_name}.java").write_text(
            f"package pkg{i % 7};\n\npublic class {class_name} {{\n{body}\n}}\n"
        )


def test_criterion_7_determinism_and_scale(tmp_path, capsys):
    with criterion(7, "byte-identical reruns on a 1000-file corpus"):
        corpus = tmp_path / "bigcorpus"
        corpus.mkdir()
        _generate_corpus(corpus, 1000)

        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        started = time.monotonic()
        assert main(["analyze", str(corpus), "--dict", str(MINIDICT), "-o", str(first)]) == 0
        assert main(["analyze", str(corpus), "--dict", str(MINIDICT), "-o", str(second)]) == 0
        elapsed = time.monotonic() - started
        capsys.readouterr()

        first_bytes = first.read_bytes()
        assert first_bytes == second.read_bytes()
        document = json.loads(first_bytes)
        assert document["fileCount"] == 1000
        assert elapsed < 10.0, f"took {elapsed:.2f}s"
