"""Output checks for every benchmark command.

Each check returns a list of problems; an empty list means the command's
output is right.  The expected values come from the generators (nodes,
planted methods) or are recomputed here from the index JSON, never from
lexiscope itself.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

from gen_java import Concept, Project

TOP_K = 50
_STATS_ROWS = ("files", "distinct words", "recognized", "unrecognized",
               "nouns", "verbs", "adjectives", "adverbs")
_HIT_RE = re.compile(r"^(\S+):(\d+) (method|class) (\S+) (\S+)$")
_TERM_RE = re.compile(r"^(\S+)\s+(\d+)/(\d+)  (.*)$")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class IndexData:
    """What the checks need from one index file, read with plain json."""

    def __init__(self, data: bytes):
        document = json.loads(data)
        self.sha = sha256(data)
        self.project = document["projectName"]
        self.file_count = document["fileCount"]
        self.nodes = [(n["kind"], n["name"], n["file"], n["line"], n["parent"])
                      for n in document["nodes"]]
        self.vocabulary = document["vocabulary"]

    def top(self, k: int = TOP_K) -> list[dict]:
        return sorted(self.vocabulary, key=lambda e: (-e["total"], e["word"]))[:k]


def check_index(index: IndexData, project: Project) -> list[str]:
    problems = []
    if index.file_count != project.files:
        problems.append(f"fileCount {index.file_count} != {project.files}")
    if index.nodes != project.expected:
        mismatch = next((i for i, (a, b) in enumerate(zip(index.nodes, project.expected)) if a != b),
                        min(len(index.nodes), len(project.expected)))
        problems.append(f"scanned nodes differ from the generated list at node {mismatch} "
                        f"({len(index.nodes)} scanned, {len(project.expected)} expected)")
    for entry in index.vocabulary:
        if entry["total"] != sum(entry["counts"].values()):
            problems.append(f"vocabulary total of {entry['word']!r} is not the sum of its counts")
            break
    return problems


def check_analyze(stdout: str, index_path: Path, project: Project, first_sha: dict) -> tuple[list[str], str]:
    """Index nodes equal the generated list; repeated analyzes give the same bytes."""
    try:
        data = index_path.read_bytes()
        index = IndexData(data)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable index {index_path.name}: {exc}"], ""
    problems = check_index(index, project)
    expected_head = f"{project.name}: {project.files} files, {len(project.expected)} nodes,"
    if not stdout.startswith(expected_head):
        problems.append(f"analyze summary {stdout.strip()!r} does not start with {expected_head!r}")
    known = first_sha.setdefault(project.name, index.sha)
    if known != index.sha:
        problems.append(f"repeated analyze of {project.name} wrote different bytes")
    return problems, index.sha


def check_locate(stdout: str, concept: Concept, project: Project) -> list[str]:
    hits = set()
    for line in stdout.splitlines():
        match = _HIT_RE.match(line)
        if match:
            hits.add((match.group(4), match.group(1), int(match.group(2))))
    problems = []
    for name in concept.must_hit:
        file_path, line = project.planted[name]
        if (name, file_path, line) not in hits:
            problems.append(f"locate {concept.phrase!r}: planted {name} at {file_path}:{line} missing")
    for name in concept.must_miss:
        if any(hit[0] == name for hit in hits):
            problems.append(f"locate {concept.phrase!r}: {name} must not match")
    return problems


def check_stats(stdout: str, index: IndexData) -> list[str]:
    values = {}
    for line in stdout.splitlines():
        for label in _STATS_ROWS:
            if line.startswith(label + " "):
                values[label] = int(line[len(label):].split()[0])
    if set(values) != set(_STATS_ROWS):
        return [f"stats output lacks rows: {sorted(set(_STATS_ROWS) - set(values))}"]
    recognized = [e for e in index.vocabulary if e["recognized"]]
    expected = {
        "files": index.file_count,
        "distinct words": len(index.vocabulary),
        "recognized": len(recognized),
        "unrecognized": len(index.vocabulary) - len(recognized),
        "nouns": sum(e["pos"] == "noun" for e in recognized),
        "verbs": sum(e["pos"] == "verb" for e in recognized),
        "adjectives": sum(e["pos"] == "adjective" for e in recognized),
        "adverbs": sum(e["pos"] == "adverb" for e in recognized),
    }
    problems = [f"stats {k}: {values[k]} != {v}" for k, v in expected.items() if values[k] != v]
    if values["recognized"] + values["unrecognized"] != values["distinct words"]:
        problems.append("stats: recognized + unrecognized != distinct words")
    if sum(values[k] for k in ("nouns", "verbs", "adjectives", "adverbs")) != values["recognized"]:
        problems.append("stats: parts of speech do not sum to recognized")
    return problems


def check_topwords(stdout: str, index: IndexData) -> list[str]:
    rows = [line.split() for line in stdout.splitlines()[1:] if line.strip()]
    got = [(row[1], int(row[2])) for row in rows]
    expected = [(e["word"], e["total"]) for e in index.top()]
    if got != expected:
        return [f"topwords of {index.project} differ from the index's top {TOP_K}"]
    return []


def parse_domain(stdout: str) -> dict[str, tuple[str, int, int]]:
    """word -> (marker, support, project count) of a domain table."""
    terms = {}
    for line in stdout.splitlines()[1:]:
        match = _TERM_RE.match(line)
        if not match:
            continue
        cell = match.group(1)
        marker = "**" if cell.startswith("**") else "*" if cell.startswith("*") else ""
        terms[cell.strip("*")] = (marker, int(match.group(2)), int(match.group(3)))
    return terms


def check_domain(stdout: str, indexes: list[IndexData], semantic: bool) -> list[str]:
    terms = parse_domain(stdout)
    tops = [{e["word"] for e in index.top()} for index in indexes]
    plain = {word: sum(word in top for top in tops) for word in set().union(*tops)}
    problems = []
    if set(terms) != set(plain):
        problems.append(f"domain{' --semantic' if semantic else ''}: candidate words differ "
                        f"({len(terms)} listed, {len(plain)} expected)")
    for word, (marker, support, count) in terms.items():
        want = "**" if support == count else "*" if support >= 2 else ""
        if marker != want or count != len(indexes):
            problems.append(f"domain: marker of {word!r} does not fit {support}/{count}")
            break
        base = plain.get(word, 0)
        if (support < base) if semantic else (support != base):
            problems.append(f"domain: support of {word!r} is {support}, plain support {base}")
            break
    return problems
