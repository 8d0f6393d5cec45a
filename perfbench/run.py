"""Benchmark of lexiscope's command path on WordNet-scale generated inputs.

    python3 perfbench/run.py --workload locate-session --seed 1 --seconds 10 --trace 0

Run it from the root of a lexiscope checkout; it imports the program from
``src/`` and keeps its inputs under ``perfbench/.work/``, removed at exit.
Inputs come from ``--seed`` alone: a WordNet-scale dictionary (gen_dict)
and Java projects whose nodes and planted concepts are known (gen_java).

Workloads (``all`` runs the three in turn):

analyze-large   ``analyze`` of one ~2,000-file project, three times: the
                write path (extractor, dictionary load, classification,
                index save).
locate-session  four ``locate`` commands against a prebuilt ~500-file
                index: the interactive read path (dictionary load and the
                candidate scope scan).
domain-compare  ``stats`` and ``topwords`` of four prebuilt ~500-file
                indexes, then ``domain`` and ``domain --semantic`` across
                them: index load, validation and ranking.

``--trace 0`` times every command as its own process (spawn to exit, one
at a time, each run with an empty HOME and XDG_CACHE_HOME) and repeats the
workload's command list until ``--seconds`` have passed.  Times are
calibrated against a fixed reference task run between the commands (see
REFERENCE_SECONDS).  ``--trace 1`` replays the workload's commands, set-up
``analyze`` commands included, in this process through
``lexiscope.cli.main`` with timing wrappers around each layer, and reports
per-layer metrics and the tracing overhead: the timed commands' replay
with wrappers against the same replay without.

Every command's output is checked; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable
from pathlib import Path

import checks
from gen_dict import Dictionary, generate_dictionary
from gen_java import Concept, Project, choose_concepts, generate_project

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"

LOCATOR_EXPONENT_NODES = 16_000
# A shared host's speed drifts by tens of percent from one second to the
# next, so the reported times are calibrated: a fixed reference task runs
# before the first command and after every command, and each command's
# wall time is divided by the mean time of the two reference runs around
# it and scaled to a host where the reference task takes REFERENCE_SECONDS.
REFERENCE = Path(__file__).resolve().parent / "reference.py"
REFERENCE_SECONDS = 0.4
CLI = "import sys; from lexiscope.cli import entrypoint; sys.argv[0] = 'lexiscope'; entrypoint()"


@dataclass(frozen=True)
class Workload:
    projects: int
    files: int
    prebuilt: bool      # indexes are built in set-up and only read afterwards
    min_passes: int     # passes over the command list, at the least


WORKLOADS = {
    "analyze-large": Workload(projects=1, files=2000, prebuilt=False, min_passes=3),
    "locate-session": Workload(projects=1, files=500, prebuilt=True, min_passes=1),
    "domain-compare": Workload(projects=4, files=500, prebuilt=True, min_passes=1),
}

# Command kinds, with the per-kind metric the human report shows.
KIND_METRICS = {"analyze": "analyze_s", "locate": "locate_s", "stats": "report_s",
                "topwords": "report_s", "domain": "domain_s", "domain-semantic": "domain_semantic_s"}


@dataclass
class Inputs:
    root: Path
    dict_dir: Path
    dictionary: Dictionary
    concepts: list[Concept]
    projects: list[tuple[Project, Path]]      # generated project and its source directory
    indexes: list[Path] = field(default_factory=list)
    home: Path | None = None


@dataclass
class Command:
    kind: str
    argv: list[str]
    check: Callable[[str], list[str]]   # stdout -> problems found


@dataclass
class Tally:
    """Commands attempted and failed, with every problem and output hash."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    hashes: list[str] = field(default_factory=list)
    first_sha: dict = field(default_factory=dict)

    def record(self, label: str, exit_code: int, stdout: str, stderr: str, problems_of) -> None:
        self.attempted += 1
        self.hashes.append(f"{label} stdout {checks.sha256(stdout.encode())}")
        if exit_code != 0:
            problems = [f"exit {exit_code}: {stderr.strip()[-300:]}"]
        else:
            problems = problems_of(stdout)
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


def child_env(home: Path) -> dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if key not in ("PYTHONPATH", "LEXISCOPE_DICT", "PYTHONHOME")}
    env.update(PYTHONPATH=str(SRC), HOME=str(home), XDG_CACHE_HOME=str(home / ".cache"))
    return env


def fresh_home(parent: Path) -> Path:
    home = parent / "home"
    shutil.rmtree(home, ignore_errors=True)
    (home / ".cache").mkdir(parents=True)
    return home


@dataclass
class Run:
    exit_code: int
    wall: float           # spawn to exit
    rss_mb: float         # peak resident set of the command process
    stdout: str
    stderr: str


def spawn(argv: list[str], home: Path, out_dir: Path) -> Run:
    """Run one CLI command as its own process and wait for it."""
    stdout_path, stderr_path = out_dir / "stdout.txt", out_dir / "stderr.txt"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        process = subprocess.Popen([sys.executable, "-c", CLI, *argv], stdout=out, stderr=err,
                                   stdin=subprocess.DEVNULL, env=child_env(home), cwd=out_dir)
        try:
            _pid, status, usage = os.wait4(process.pid, 0)
        except BaseException:
            process.kill()
            process.wait()
            raise
        wall = time.perf_counter() - start
    process.returncode = os.waitstatus_to_exitcode(status)
    return Run(process.returncode, wall, usage.ru_maxrss / 1024.0,
               stdout_path.read_text(encoding="utf-8", errors="replace"),
               stderr_path.read_text(encoding="utf-8", errors="replace"))


def reference_seconds(home: Path, cwd: Path) -> float:
    started = time.perf_counter()
    subprocess.run([sys.executable, str(REFERENCE)], check=True, env=child_env(home), cwd=cwd,
                   stdin=subprocess.DEVNULL)
    return time.perf_counter() - started


def calibrated(seconds: float, before: float, after: float) -> float:
    return seconds * REFERENCE_SECONDS * 2 / (before + after)


# --- inputs and commands ---------------------------------------------------

def generate_inputs(root: Path, workload: Workload, seed: int, scale: float) -> Inputs:
    dict_dir = root / "dict"
    dictionary = generate_dictionary(dict_dir, seed, scale)
    concepts = choose_concepts(dictionary, seed)
    files = max(20, int(workload.files * scale))
    projects = [(generate_project(path, dictionary, concepts, f"{seed}-{path.name}", files), path)
                for path in (root / "src" / f"proj{i}" for i in range(workload.projects))]
    return Inputs(root, dict_dir, dictionary, concepts, projects)


def analyze_command(inputs: Inputs, project: Project, src: Path, out: Path, tally: Tally) -> Command:
    def check(stdout):
        problems, sha = checks.check_analyze(stdout, out, project, tally.first_sha)
        tally.hashes.append(f"index {project.name} {sha}")
        return problems
    return Command("analyze", ["analyze", str(src), "--dict", str(inputs.dict_dir), "-o", str(out)], check)


def setup_commands(inputs: Inputs, tally: Tally) -> list[Command]:
    """The analyze commands that build the prebuilt indexes."""
    inputs.indexes = [inputs.root / "index" / f"{project.name}.json" for project, _src in inputs.projects]
    (inputs.root / "index").mkdir(exist_ok=True)
    return [analyze_command(inputs, project, src, out, tally)
            for (project, src), out in zip(inputs.projects, inputs.indexes)]


def timed_commands(name: str, inputs: Inputs, tally: Tally) -> list[Command]:
    """One pass over the workload's command list."""
    d = str(inputs.dict_dir)
    if name == "analyze-large":
        project, src = inputs.projects[0]
        out = inputs.root / "out" / f"{project.name}.json"
        out.parent.mkdir(exist_ok=True)
        return [analyze_command(inputs, project, src, out, tally)]
    data = [checks.IndexData(path.read_bytes()) for path in inputs.indexes]
    if name == "locate-session":
        project = inputs.projects[0][0]
        index = str(inputs.indexes[0])
        return [Command("locate", ["locate", index, c.phrase, "--dict", d, *c.options],
                        lambda out, c=c: checks.check_locate(out, c, project))
                for c in inputs.concepts]
    commands = []
    for path, index in zip(inputs.indexes, data):
        commands.append(Command("stats", ["stats", str(path)],
                                lambda out, index=index: checks.check_stats(out, index)))
        commands.append(Command("topwords", ["topwords", str(path), "-k", str(checks.TOP_K)],
                                lambda out, index=index: checks.check_topwords(out, index)))
    paths = [str(path) for path in inputs.indexes]
    commands.append(Command("domain", ["domain", *paths, "-k", str(checks.TOP_K)],
                            lambda out: checks.check_domain(out, data, semantic=False)))
    commands.append(Command("domain-semantic", ["domain", *paths, "-k", str(checks.TOP_K), "--semantic",
                                                "--dict", d],
                            lambda out: checks.check_domain(out, data, semantic=True)))
    return commands


# --- untraced run -------------------------------------------------------------

def set_up(name: str, run_dir: Path, seed: int, scale: float, tally: Tally) -> tuple[Inputs, float]:
    """Generate the inputs and build the indexes; return them and the seconds taken."""
    workload = WORKLOADS[name]
    started = time.perf_counter()
    inputs = generate_inputs(run_dir, workload, seed, scale)
    inputs.home = fresh_home(run_dir)
    if workload.prebuilt:
        for command in setup_commands(inputs, tally):
            run = spawn(command.argv, inputs.home, run_dir)
            tally.record("setup analyze", run.exit_code, run.stdout, run.stderr, command.check)
    return inputs, time.perf_counter() - started


def untraced_run(name: str, work: Path, seed: int, seconds: float, scale: float) -> dict:
    tally = Tally()
    first_reference = reference_seconds(fresh_home(work), work)
    inputs, setup_seconds = set_up(name, work, seed, scale, tally)
    commands = timed_commands(name, inputs, tally)
    references = [reference_seconds(inputs.home, inputs.root)]
    samples: list[tuple[str, Run, float]] = []   # kind, run, calibrated seconds
    started = time.perf_counter()
    passes = 0
    while passes < WORKLOADS[name].min_passes or time.perf_counter() - started < seconds:
        for command in commands:
            run = spawn(command.argv, inputs.home, inputs.root)
            references.append(reference_seconds(inputs.home, inputs.root))
            tally.record(command.kind, run.exit_code, run.stdout, run.stderr, command.check)
            samples.append((command.kind, run, calibrated(run.wall, *references[-2:])))
        passes += 1
    return {"tally": tally, "samples": samples, "passes": passes, "references": references,
            "setup_wall_s": setup_seconds,
            "setup_s": calibrated(setup_seconds, first_reference, references[0]),
            "projects": [project for project, _src in inputs.projects]}


def percentile_summary(values: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    text = f"median {statistics.median(values):.4f} (n={n})"
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            rank = max(1, math.ceil(p / 100 * n))
            text += f", p{p} {values[rank - 1]:.4f}"
            break
    else:
        text += ", no percentile has ten samples beyond it"
    return text


def report_untraced(name: str, result: dict) -> dict[str, dict]:
    tally, samples = result["tally"], result["samples"]
    times = [cal for _kind, _run, cal in samples]
    metrics = {
        "command_s": (statistics.median(times), "s"),
        "command_mean_s": (sum(times) / len(times), "s"),
        "peak_rss_mb": (max(run.rss_mb for _kind, run, _cal in samples), "MB"),
        "setup_s": (result["setup_s"], "s"),
    }
    print(f"== {name}: {result['passes']} passes, {len(samples)} timed commands; "
          f"reference task {percentile_summary(result['references'])} s")
    by_metric: dict[str, list[tuple[float, float]]] = {}
    for kind, run, cal in samples:
        by_metric.setdefault(KIND_METRICS[kind], []).append((cal, run.wall))
    for metric in dict.fromkeys(KIND_METRICS.values()):
        if metric in by_metric:
            cals, walls = zip(*by_metric[metric])
            print(f"{metric} [s]: calibrated {percentile_summary(cals)}; wall {percentile_summary(walls)}")
        else:
            print(f"{metric} [s]: not run by this workload")
    for metric, (value, unit) in metrics.items():
        print(f"{metric} [{unit}]: {value:.4f}")
    print(f"setup_s wall [s]: {result['setup_wall_s']:.4f}")
    print(f"fail_ratio [ratio]: {tally.failed / tally.attempted:.4f} "
          f"({tally.failed} of {tally.attempted} commands)")
    return {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()}


# --- traced run -----------------------------------------------------------------

def in_process(argv: list[str]) -> tuple[int, str, str]:
    from lexiscope import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def isolated_home(parent: Path):
    """Point HOME and XDG_CACHE_HOME of this process at a fresh empty directory."""
    saved = {key: os.environ.get(key) for key in ("HOME", "XDG_CACHE_HOME")}
    home = fresh_home(parent)
    os.environ.update(HOME=str(home), XDG_CACHE_HOME=str(home / ".cache"))
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def replay(commands: list[Command], tally: Tally | None) -> float:
    started = time.perf_counter()
    for command in commands:
        code, out, err = in_process(command.argv)
        if tally is not None:
            tally.record(f"replayed {command.kind}", code, out, err, command.check)
    return time.perf_counter() - started


def import_seconds(home: Path, cwd: Path, repeats: int = 5) -> float:
    """Interpreter start plus `import lexiscope.cli`, median of fresh processes."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import lexiscope.cli"], check=True,
                       env=child_env(home), cwd=cwd, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def best_of(repeats: int, call) -> float:
    best = math.inf
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - started)
    return best


def size_exponents(inputs: Inputs, workload: Workload, seed: int, scale: float) -> dict[str, float]:
    """log2(time on the full input / time on a half-size input) for extractor and locator."""
    from lexiscope.extractor import extract_project
    from lexiscope.index import load_index
    from lexiscope.lexicon import load_lexicon
    from lexiscope.locator import ConceptQuery, locate_concept

    project, full_src = inputs.projects[0]
    half_src = inputs.root / "half" / full_src.name
    half = generate_project(half_src, inputs.dictionary, inputs.concepts, f"{seed}-half",
                            max(10, int(workload.files * scale) // 2))
    extract_full = best_of(3, lambda: extract_project(full_src))
    extract_half = best_of(3, lambda: extract_project(half_src))

    index_path = inputs.indexes[0] if inputs.indexes else inputs.root / "out" / f"{project.name}.json"
    nodes = load_index(index_path).nodes[:LOCATOR_EXPONENT_NODES]
    lexicon = load_lexicon(inputs.dict_dir)
    query = ConceptQuery(tuple(inputs.concepts[0].phrase.split()))
    locate_full = best_of(2, lambda: locate_concept(nodes, query, lexicon))
    locate_half = best_of(2, lambda: locate_concept(nodes[:len(nodes) // 2], query, lexicon))
    return {"extractor.size_exponent": math.log2(extract_full / extract_half),
            "locator.size_exponent": math.log2(locate_full / locate_half)}


def traced_run(name: str, work: Path, seed: int, scale: float) -> dict:
    from layers import Tracer, layer_metrics

    workload = WORKLOADS[name]
    tally = Tally()
    inputs, _setup_seconds = set_up(name, work, seed, scale, tally)
    commands = timed_commands(name, inputs, tally)
    rebuilds = []
    if workload.prebuilt:
        replayed = inputs.root / "replayed"
        replayed.mkdir()
        rebuilds = [analyze_command(inputs, project, src, replayed / f"{project.name}.json", tally)
                    for project, src in inputs.projects]

    import_s = import_seconds(inputs.home, inputs.root)
    with isolated_home(inputs.root):
        untraced_s = replay(commands, None)
    tracer = Tracer()
    with isolated_home(inputs.root):
        tracer.install()
        try:
            replay(rebuilds, tally)
            traced_s = replay(commands, tally)
        finally:
            tracer.uninstall()

    metrics = {"cli.import_s": import_s}
    metrics.update(layer_metrics(tracer))
    metrics.update(size_exponents(inputs, workload, seed, scale))
    metrics["trace.untraced_replay_s"] = untraced_s
    metrics["trace.traced_replay_s"] = traced_s
    metrics["trace.overhead_ratio"] = (traced_s - untraced_s) / untraced_s

    expected = {"lexicon.entries": inputs.dictionary.entries,
                "lexicon.synsets": sum(inputs.dictionary.synset_counts.values())}
    for metric, value in expected.items():
        tally.attempted += 1
        if metrics[metric] != value:
            tally.failed += 1
            tally.problems.append(f"load_lexicon reported {metrics[metric]} for {metric}, generated {value}")
    for old in WORK.glob(f"spans-{name}-*.tsv"):
        old.unlink()
    spans_path = WORK / f"spans-{name}-{seed}.tsv"
    tracer.write(spans_path)
    print(f"== {name} traced: {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    for metric, value in metrics.items():
        print(f"{metric}: {value:.6g}")
    return {"tally": tally, "metrics": metrics, "projects": [project for project, _src in inputs.projects]}


# --- main ---------------------------------------------------------------------------

PER_LAYER_UNITS = {"_s": "s", "_ratio": "ratio", "_exponent": "log2"}


def layer_unit(metric: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if metric.endswith(suffix):
            return unit
    return "bytes" if metric == "index.bytes" else "count"


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float) -> tuple[Tally, dict]:
    work = WORK / f"run-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if trace:
            result = traced_run(name, work, seed, scale)
            metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in result["metrics"].items()}
        else:
            result = untraced_run(name, work, seed, seconds, scale)
            metrics = report_untraced(name, result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    tally = result["tally"]
    for project in result["projects"]:
        left_out = ", ".join(f"{construct} {count}" for construct, count in sorted(project.excluded.items()))
        print(f"{project.name}: {project.files} files, {len(project.expected)} nodes checked; "
              f"left out of the check (known scanner gaps): {left_out or 'none'}")
    for line in tally.hashes:
        print(f"sha256 {line}")
    for problem in tally.problems:
        print(f"FAILED {problem}")
    return tally, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measure at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every input (self-tests only; 1.0 is the benchmark)")
    args = parser.parse_args(argv)

    if not (SRC / "lexiscope" / "cli.py").is_file():
        print(f"error: no lexiscope sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "lexiscope")], check=True,
                   stdout=subprocess.DEVNULL)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in names:
        tally, workload_metrics = run_workload(name, args.seed, args.seconds, bool(args.trace), args.scale)
        attempted += tally.attempted
        failed += tally.failed
        prefix = f"{name}/" if len(names) > 1 else ""
        metrics.update({prefix + key: value for key, value in workload_metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
