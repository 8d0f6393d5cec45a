import gc
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import lexiscope
from lexiscope.cli import main
from lexiscope.index import ProjectIndex, save_index
from lexiscope.lexicon import load_lexicon
from lexiscope.vocabulary import ProjectVocabulary, VocabularyEntry

from conftest import FIXTURES, MINICORPUS, MINIDICT

GOLDEN_INDEX = FIXTURES / "minicorpus_index.json"


def make_index(path, name, totals):
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
    index = ProjectIndex([], ProjectVocabulary(name, 1, entries))
    save_index(index, path)
    return str(path)


@pytest.fixture
def corpus_index(tmp_path):
    out = tmp_path / "minicorpus.json"
    rc = main(["analyze", str(MINICORPUS), "--dict", str(MINIDICT), "-o", str(out)])
    assert rc == 0
    return str(out)


class TestAnalyze:
    def test_golden_index_bytes(self, tmp_path, capsys):
        out = tmp_path / "index.json"
        rc = main(["analyze", str(MINICORPUS), "--dict", str(MINIDICT), "-o", str(out)])
        assert rc == 0
        assert out.read_bytes() == GOLDEN_INDEX.read_bytes()
        summary = capsys.readouterr().out
        assert "20 files" in summary and "76 nodes" in summary and "73 distinct words" in summary

    def test_missing_source_directory_exits_2(self, tmp_path):
        rc = main(["analyze", str(tmp_path / "nope"), "--dict", str(MINIDICT),
                   "-o", str(tmp_path / "o.json")])
        assert rc == 2

    def test_bad_dictionary_exits_3(self, tmp_path):
        rc = main(["analyze", str(MINICORPUS), "--dict", str(tmp_path),
                   "-o", str(tmp_path / "o.json")])
        assert rc == 3

    def test_dict_env_var_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LEXISCOPE_DICT", str(MINIDICT))
        out = tmp_path / "index.json"
        assert main(["analyze", str(MINICORPUS), "-o", str(out)]) == 0
        assert out.read_bytes() == GOLDEN_INDEX.read_bytes()

    def test_no_dict_anywhere_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.delenv("LEXISCOPE_DICT", raising=False)
        rc = main(["analyze", str(MINICORPUS), "-o", str(tmp_path / "o.json")])
        assert rc == 1

    def test_jsonl_mode(self, tmp_path):
        node_file = tmp_path / "nodes.jsonl"
        node_file.write_text(
            '{"kind":"class","name":"Car","file":"a.java","line":1}\n'
            '{"kind":"method","name":"setValue","file":"a.java","line":2,"parent":0}\n'
            '{"kind":"parameter","name":"newValue","file":"a.java","line":2,"parent":1}\n'
        )
        out = tmp_path / "index.json"
        rc = main(["analyze", str(node_file), "--dict", str(MINIDICT),
                   "-o", str(out), "--input-mode", "jsonl"])
        assert rc == 0
        document = json.loads(out.read_text())
        assert len(document["nodes"]) == 3
        assert document["fileCount"] == 1

    def test_jsonl_schema_error_exits_2(self, tmp_path):
        node_file = tmp_path / "nodes.jsonl"
        node_file.write_text('{"kind":"module","name":"X","file":"a.java","line":1}\n')
        rc = main(["analyze", str(node_file), "--dict", str(MINIDICT),
                   "-o", str(tmp_path / "o.json"), "--input-mode", "jsonl"])
        assert rc == 2

    def test_custom_stoplist(self, tmp_path, capsys):
        stop = tmp_path / "stop.txt"
        stop.write_text("goodness\nbrace\n")
        out = tmp_path / "index.json"
        rc = main(["analyze", str(MINICORPUS), "--dict", str(MINIDICT), "-o", str(out),
                   "--stoplist", str(stop)])
        assert rc == 0
        words = {e["word"] for e in json.loads(out.read_text())["vocabulary"]}
        assert "goodness" not in words and "brace" not in words
        assert "new" in words  # default stoplist no longer applies


    @pytest.mark.parametrize("src", [".", ".."])
    def test_relative_source_is_named_after_its_directory(self, tmp_path, monkeypatch, src):
        tree = tmp_path / "shop" / "tree"
        shutil.copytree(MINICORPUS, tree)
        monkeypatch.chdir(tree / "deep" if src == ".." else tree)
        out = tmp_path / "index.json"
        assert main(["analyze", src, "--dict", str(MINIDICT), "-o", str(out)]) == 0
        assert json.loads(out.read_text())["projectName"] == "tree"

    def test_filesystem_root_needs_a_project_name(self, tmp_path, monkeypatch, capsys):
        def no_scan(src):
            raise AssertionError(f"scanned {src}")

        monkeypatch.setattr("lexiscope.cli.extract_project", no_scan)
        monkeypatch.chdir(os.path.abspath(os.sep))
        assert main(["analyze", ".", "--dict", str(MINIDICT), "-o", str(tmp_path / "o.json")]) == 1
        assert "--project" in capsys.readouterr().err


class TestUndecodableInput:
    """A file that is not UTF-8 is a bad input file, reported by name."""

    def test_index_exits_2(self, tmp_path, capsys):
        index = tmp_path / "bad.json"
        index.write_bytes(b'{"formatVersion": 1, "projectName": "\xff"}')
        assert main(["stats", str(index)]) == 2
        assert str(index) in capsys.readouterr().err

    def test_jsonl_exits_2(self, tmp_path, capsys):
        node_file = tmp_path / "nodes.jsonl"
        node_file.write_bytes(b'{"kind":"class","name":"Caf\xff","file":"a.java","line":1}\n')
        rc = main(["analyze", str(node_file), "--dict", str(MINIDICT),
                   "-o", str(tmp_path / "o.json"), "--input-mode", "jsonl"])
        assert rc == 2
        assert str(node_file) in capsys.readouterr().err

    def test_stoplist_exits_2(self, tmp_path, capsys):
        stop = tmp_path / "stop.txt"
        stop.write_bytes(b"goodness\nbr\xffce\n")
        rc = main(["analyze", str(MINICORPUS), "--dict", str(MINIDICT),
                   "-o", str(tmp_path / "o.json"), "--stoplist", str(stop)])
        assert rc == 2
        assert str(stop) in capsys.readouterr().err

    def test_dictionary_exits_3_at_the_line(self, tmp_path, capsys):
        root = tmp_path / "dict"
        shutil.copytree(MINIDICT, root)
        lines = (root / "index.noun").read_bytes().count(b"\n")
        with open(root / "index.noun", "ab") as handle:
            handle.write(b"caf\xff n 1 0 1 0 00000001\n")
        rc = main(["analyze", str(MINICORPUS), "--dict", str(root), "-o", str(tmp_path / "o.json")])
        assert rc == 3
        assert f"index.noun, line {lines + 1}: not UTF-8" in capsys.readouterr().err


class TestStats:
    def test_table_golden(self, corpus_index, capsys):
        assert main(["stats", corpus_index]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "files                 20",
            "distinct words        73",
            "recognized            17 (23%)",
            "unrecognized          56 (77%)",
            "nouns                 11 (65%)",
            "verbs                  4 (24%)",
            "adjectives             1 (6%)",
            "adverbs                1 (6%)",
        ]

    def test_json_matches_table_numbers(self, corpus_index, capsys):
        assert main(["stats", corpus_index, "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document == {
            "files": 20,
            "distinct_words": 73,
            "recognized": 17,
            "recognized_pct": 23,
            "unrecognized": 56,
            "unrecognized_pct": 77,
            "nouns": 11,
            "nouns_pct": 65,
            "verbs": 4,
            "verbs_pct": 24,
            "adjectives": 1,
            "adjectives_pct": 6,
            "adverbs": 1,
            "adverbs_pct": 6,
        }

    def test_csv_format(self, corpus_index, capsys):
        assert main(["stats", corpus_index, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "metric,count,percent"
        assert "recognized,17,23" in lines
        assert "files,20," in lines

    def test_empty_project_all_zero(self, tmp_path, capsys):
        index_path = make_index(tmp_path / "empty.json", "empty", {})
        assert main(["stats", index_path]) == 0
        out = capsys.readouterr().out
        assert "distinct words         0" in out
        assert "recognized             0 (0%)" in out

    def test_invalid_index_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["stats", str(bad)]) == 2

    def test_missing_index_exits_2(self, tmp_path):
        assert main(["stats", str(tmp_path / "none.json")]) == 2


class TestTopwords:
    def test_table_ranks_by_total(self, corpus_index, capsys):
        assert main(["topwords", corpus_index, "-k", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4  # header + 3 rows
        assert lines[1].split()[1] == "value"
        assert lines[2].split()[1] == "name"

    def test_json_format(self, corpus_index, capsys):
        assert main(["topwords", corpus_index, "-k", "2", "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert [row["word"] for row in document] == ["value", "name"]
        assert document[0]["total"] == 9
        assert document[0]["pos"] == "noun"


class TestDomain:
    def setup_indexes(self, tmp_path):
        return [
            make_index(tmp_path / "alpha.json", "alpha",
                       {"name": 28727, "object": 5277, "value": 9067}),
            make_index(tmp_path / "bravo.json", "bravo",
                       {"name": 11774, "object": 2962, "test": 7332}),
            make_index(tmp_path / "charlie.json", "charlie",
                       {"name": 6950, "action": 801, "ejb": 2570}),
        ]

    def test_status_markers(self, tmp_path, capsys):
        paths = self.setup_indexes(tmp_path)
        assert main(["domain", *paths]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].startswith("domain: projects [alpha, bravo, charlie]")
        name_row = next(line for line in lines if line.startswith("**name**"))
        assert "alpha=28727" in name_row and "bravo=11774" in name_row and "charlie=6950" in name_row
        assert "3/3" in name_row
        object_row = next(line for line in lines if line.startswith("*object*"))
        assert "2/3" in object_row and "charlie=0" in object_row
        action_row = next(line for line in lines if line.lstrip().startswith("action"))
        assert "**" not in action_row and "1/3" in action_row

    def test_single_index_exits_1(self, tmp_path):
        paths = self.setup_indexes(tmp_path)
        assert main(["domain", paths[0]]) == 1

    @pytest.mark.parametrize("twin", ["same-file", "same-name"])
    def test_repeated_project_name_exits_1(self, tmp_path, capsys, twin):
        first = make_index(tmp_path / "a.json", "src", {"name": 3, "value": 2})
        second = first if twin == "same-file" else make_index(
            tmp_path / "b.json", "src", {"name": 5, "object": 1}
        )
        assert main(["domain", first, second]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'src'" in captured.err and "analyze --project" in captured.err

    def test_semantic_merge_with_evidence(self, tmp_path, capsys):
        paths = [
            make_index(tmp_path / "p1.json", "p1", {"car": 12, "alpha": 1}),
            make_index(tmp_path / "p2.json", "p2", {"vehicle": 9, "beta": 1}),
        ]
        assert main(["domain", *paths, "--semantic", "--dict", str(MINIDICT)]) == 0
        out = capsys.readouterr().out
        car_row = next(line for line in out.splitlines() if line.startswith("**car**"))
        assert "p2=0[vehicle,hypernym]" in car_row

    def test_semantic_without_dict_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.delenv("LEXISCOPE_DICT", raising=False)
        paths = self.setup_indexes(tmp_path)
        assert main(["domain", *paths, "--semantic"]) == 1

    def test_plain_intersection_needs_no_dict(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("LEXISCOPE_DICT", raising=False)
        paths = self.setup_indexes(tmp_path)
        assert main(["domain", *paths]) == 0


class TestLocate:
    def test_find_word_form_report(self, corpus_index, capsys):
        assert main(["locate", corpus_index, "find word form", "--dict", str(MINIDICT)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "WordTools.java:2 method getType 5"
        assert lines[1] == "  find→get (hypernym,1)"
        assert lines[2] == "  word→word (self,0)"
        assert lines[3] == "  form→type (hyponym,1)"
        assert len(lines) == 4  # unique hit

    def test_relations_none_finds_nothing(self, corpus_index, capsys):
        rc = main(["locate", corpus_index, "find word form",
                   "--dict", str(MINIDICT), "--relations", "none"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "no matches"

    def test_no_match_prints_and_exits_0(self, corpus_index, capsys):
        assert main(["locate", corpus_index, "zzzz", "--dict", str(MINIDICT)]) == 0
        assert capsys.readouterr().out.strip() == "no matches"

    def test_limit_one(self, corpus_index, capsys):
        assert main(["locate", corpus_index, "value", "--dict", str(MINIDICT),
                     "--limit", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2  # one hit line + one evidence line

    def test_empty_phrase_exits_1(self, corpus_index):
        assert main(["locate", corpus_index, "123 _$", "--dict", str(MINIDICT)]) == 1

    def test_camel_case_phrase_is_tokenized(self, corpus_index, capsys):
        assert main(["locate", corpus_index, "findWordForm", "--dict", str(MINIDICT)]) == 0
        assert "getType" in capsys.readouterr().out

    def test_unknown_relation_is_usage_error(self, corpus_index):
        rc = main(["locate", corpus_index, "find", "--dict", str(MINIDICT),
                   "--relations", "meronym"])
        assert rc == 1


class TestParser:
    def test_help_exits_0(self):
        assert main(["--help"]) == 0

    def test_unknown_command_exits_1(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_option_exits_1(self):
        assert main(["analyze", "src"]) == 1  # no --out

    @pytest.mark.parametrize("module", ["lexiscope", "lexiscope.cli"])
    def test_python_m_runs_the_cli(self, module):
        src = str(Path(lexiscope.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", module, "--help"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("usage: lexiscope")
        assert "analyze" in result.stdout and "locate" in result.stdout


DICTIONARY_COMMANDS = ("analyze", "locate", "domain-semantic")


@pytest.fixture
def dictionary_command(request, tmp_path, corpus_index):
    """The argv of one command that loads minidict."""
    semantic = [
        make_index(tmp_path / "p1.json", "p1", {"car": 12}),
        make_index(tmp_path / "p2.json", "p2", {"vehicle": 9}),
    ]
    return {
        "analyze": ["analyze", str(MINICORPUS), "--dict", str(MINIDICT),
                    "-o", str(tmp_path / "index.json")],
        "locate": ["locate", corpus_index, "find word form", "--dict", str(MINIDICT)],
        "domain-semantic": ["domain", *semantic, "--semantic", "--dict", str(MINIDICT)],
    }[request.param]


class TestCollector:
    """Commands load the dictionary with cyclic GC paused, then freeze it."""

    @pytest.mark.parametrize("dictionary_command", DICTIONARY_COMMANDS, indirect=True)
    def test_enabled_collector_is_enabled_again(self, dictionary_command):
        assert gc.isenabled()
        assert main(dictionary_command) == 0
        assert gc.isenabled()

    @pytest.mark.parametrize("dictionary_command", DICTIONARY_COMMANDS, indirect=True)
    def test_disabled_collector_stays_disabled(self, dictionary_command):
        gc.disable()
        try:
            assert main(dictionary_command) == 0
            assert not gc.isenabled()
        finally:
            gc.enable()

    @pytest.mark.parametrize("fault", ["missing-file", "malformed-line"])
    def test_collector_restored_after_dictionary_error(self, tmp_path, fault):
        root = tmp_path / "dict"
        if fault == "missing-file":
            root.mkdir()
        else:
            shutil.copytree(MINIDICT, root)
            with open(root / "data.noun", "a", encoding="utf-8") as handle:
                handle.write("not a data line\n")
        rc = main(["analyze", str(MINICORPUS), "--dict", str(root),
                   "-o", str(tmp_path / "o.json")])
        assert rc == 3
        assert gc.isenabled()

    @pytest.mark.parametrize("dictionary_command", DICTIONARY_COMMANDS, indirect=True)
    def test_loaded_dictionary_is_frozen(self, dictionary_command):
        lexicon = load_lexicon(MINIDICT)
        before = gc.get_freeze_count()
        assert main(dictionary_command) == 0
        assert gc.get_freeze_count() - before >= len(lexicon.entries) + len(lexicon.synsets)
