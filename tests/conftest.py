import os
from pathlib import Path

import pytest

import lexiscope
from lexiscope.lexicon import load_lexicon

FIXTURES = Path(__file__).parent / "fixtures"
MINIDICT = FIXTURES / "minidict"
MINICORPUS = FIXTURES / "minicorpus"


def subprocess_env(**variables):
    """The environment of a subprocess, with the directory of the lexiscope this run imported first on its path.

    So a subprocess runs the package its test imported, a checkout's or an installed one.
    """
    package_parent = str(Path(lexiscope.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (package_parent, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path, **variables)


@pytest.fixture(scope="session", autouse=True)
def private_cache(tmp_path_factory):
    """Keep dictionary snapshots, also those of CLI subprocesses, out of the user's cache."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        yield


@pytest.fixture
def slots(tmp_path, monkeypatch):
    """An empty cache of this test's own; returns its lexiscope directory, where the slots go."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path / "cache" / "lexiscope"


@pytest.fixture(scope="session")
def lexicon():
    return load_lexicon(MINIDICT)


def write_dict(root: Path, nouns=(), verbs=(), adjs=(), advs=()):
    """Write a minimal well-formed dictionary with one synset per lemma.

    Each POS group is a list of lemmas; offsets are assigned sequentially
    and no pointers are emitted.  Returns the directory.
    """
    root.mkdir(parents=True, exist_ok=True)
    groups = [("noun", "n", nouns), ("verb", "v", verbs), ("adj", "a", adjs), ("adv", "r", advs)]
    offset = 1
    for suffix, pos_char, lemmas in groups:
        data_lines = []
        index_lines = []
        for lemma in lemmas:
            data_lines.append(f"{offset:08d} 00 {pos_char} 01 {lemma} 0 000 | gloss of {lemma}")
            index_lines.append(f"{lemma} {pos_char} 1 0 1 1 {offset:08d}")
            offset += 1
        (root / f"data.{suffix}").write_text("\n".join(data_lines) + "\n" if data_lines else "")
        (root / f"index.{suffix}").write_text("\n".join(index_lines) + "\n" if index_lines else "")
    return root
