"""Self-tests of the benchmark: deterministic generators, complete metrics.

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from gen_dict import generate_dictionary  # noqa: E402
from gen_java import choose_concepts, generate_project  # noqa: E402

SCALE = 0.05


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_dictionary_same_seed_same_bytes(tmp_path):
    first = generate_dictionary(tmp_path / "a", 7, SCALE)
    generate_dictionary(tmp_path / "b", 7, SCALE)
    generate_dictionary(tmp_path / "c", 8, SCALE)
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")
    assert tree_bytes(tmp_path / "a") != tree_bytes(tmp_path / "c")
    assert len(tree_bytes(tmp_path / "a")) == 12

    from lexiscope.lexicon import load_lexicon

    lexicon = load_lexicon(tmp_path / "a")
    assert len(lexicon.entries) == first.entries
    assert len(lexicon.synsets) == sum(first.synset_counts.values())


def test_dictionary_offsets_are_byte_offsets(tmp_path):
    generate_dictionary(tmp_path, 3, SCALE)
    for suffix in ("noun", "verb", "adj", "adv"):
        data = (tmp_path / f"data.{suffix}").read_bytes()
        position = 0
        for line in data.split(b"\n")[:-1]:
            if not line.startswith(b" "):
                assert int(line[:8]) == position
            position += len(line) + 1


def test_project_same_seed_same_bytes(tmp_path):
    dictionary = generate_dictionary(tmp_path / "dict", 5, SCALE)
    concepts = choose_concepts(dictionary, 5)
    first = generate_project(tmp_path / "a" / "proj", dictionary, concepts, "5-x", 40)
    second = generate_project(tmp_path / "b" / "proj", dictionary, concepts, "5-x", 40)
    other = generate_project(tmp_path / "c" / "proj", dictionary, concepts, "6-x", 40)
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")
    assert tree_bytes(tmp_path / "a") != tree_bytes(tmp_path / "c")
    assert first.expected == second.expected
    assert first.expected != other.expected
    assert set(first.planted) == {p.name for c in concepts for p in c.plants}


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in benchmark_spec()["workloads"]])
def test_small_run_reports_every_metric(workload, trace):
    spec = benchmark_spec()
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "2",
         "--seconds", "0", "--trace", str(trace), "--scale", str(SCALE)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
