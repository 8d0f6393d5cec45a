"""Command-line surface: analyze, stats, topwords, domain, locate.

Exit codes: 0 success (also when stdout is closed early), 1 usage
problem, 2 I/O or bad input file, 3 dictionary load failure.  The
dictionary directory comes from --dict or the LEXISCOPE_DICT environment
variable.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from .domain import DOMAIN, POTENTIAL, build_domain_vocabulary
from .extractor import ScanDiagnostics, SchemaError, extract_project, ingest_nodes
from .index import InvalidIndexError, ProjectIndex, load_index, save_index
from .lexicon import RELATIONS, LexiconError, load_lexicon
from .locator import ConceptQuery, locate_concept
from .tokenizer import split_identifier
from .vocabulary import build_vocabulary, compute_stats, default_stoplist, load_stoplist, top_k

__all__ = ["main", "entrypoint"]

DICT_ENV_VAR = "LEXISCOPE_DICT"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; this tool reserves 2 for I/O errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lexiscope",
        description="Mine vocabularies from source-code identifiers and locate concepts.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser("analyze", help="index a source tree or node stream")
    analyze.add_argument("src", help="project source directory (or node file with --input-mode jsonl)")
    analyze.add_argument("--dict", help=f"dictionary directory (default: ${DICT_ENV_VAR})")
    analyze.add_argument("-o", "--out", required=True, help="index file to write")
    analyze.add_argument("--stoplist", help="stoplist file (default: built-in)")
    analyze.add_argument("--input-mode", choices=("java", "jsonl"), default="java")
    analyze.add_argument("--project", help="project name (default: source basename)")
    analyze.set_defaults(func=cmd_analyze)

    stats = commands.add_parser("stats", help="recognition and POS statistics of an index")
    stats.add_argument("index", help="index file")
    stats.add_argument("--format", choices=("table", "json", "csv"), default="table")
    stats.set_defaults(func=cmd_stats)

    topwords = commands.add_parser("topwords", help="most used vocabulary words of an index")
    topwords.add_argument("index", help="index file")
    topwords.add_argument("-k", type=int, default=50, help="how many words (default 50)")
    topwords.add_argument("--format", choices=("table", "json"), default="table")
    topwords.set_defaults(func=cmd_topwords)

    domain = commands.add_parser("domain", help="intersect project indexes into domain terms")
    domain.add_argument("indexes", nargs="+", help="two or more index files")
    domain.add_argument("-k", type=int, default=50, help="top-k cut per project (default 50)")
    domain.add_argument("--semantic", action="store_true", help="merge related words into support")
    domain.add_argument("--dict", help=f"dictionary directory, needed with --semantic (default: ${DICT_ENV_VAR})")
    domain.add_argument("--name", default="domain", help="domain name for the report header")
    domain.set_defaults(func=cmd_domain)

    locate = commands.add_parser("locate", help="find classes/methods matching a key-phrase")
    locate.add_argument("index", help="index file")
    locate.add_argument("phrase", help="key-phrase, e.g. 'find word form'")
    locate.add_argument("--dict", help=f"dictionary directory (default: ${DICT_ENV_VAR})")
    locate.add_argument("--depth", type=int, default=1, help="relation traversal depth (default 1)")
    locate.add_argument(
        "--relations",
        default="synonym,hypernym,hyponym",
        help="comma-separated relations to expand, or 'none' (default: all)",
    )
    locate.add_argument("--limit", type=int, default=10, help="maximum hits (default 10)")
    locate.set_defaults(func=cmd_locate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0, usage errors exit 1
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        with _collector_paused():
            code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # A reader that stopped early (head, a pager) is not a bad input.
        _discard_stdout()
        return 0
    except ValueError as exc:
        print(f"lexiscope: error: {exc}", file=sys.stderr)
        return 1
    except LexiconError as exc:
        print(f"lexiscope: dictionary error: {exc}", file=sys.stderr)
        return 3
    except (OSError, InvalidIndexError, SchemaError) as exc:
        print(f"lexiscope: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    """Run ``main`` with UTF-8 stdout, then run the atexit callbacks, flush the output and ``os._exit``.

    So module teardown and the exit-time collection do not run; ``main()`` itself never ends the process.
    """
    if sys.stdout is None:  # started with stdout closed: nothing to reconfigure or flush
        sys.exit(main())
    sys.stdout.reconfigure(encoding="utf-8", errors="surrogateescape")
    code = main()
    # The order of the interpreter's own shutdown, so what a callback prints
    # is flushed too.  Every file a command writes is closed by now.
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        _discard_stdout()
    sys.stderr.flush()
    os._exit(code)


def _discard_stdout() -> None:
    """Point stdout at devnull, so that a later flush to a closed pipe does not fail again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _dictionary_dir(args) -> str:
    configured = args.dict or os.environ.get(DICT_ENV_VAR)
    if not configured:
        raise ValueError(f"no dictionary directory: pass --dict or set ${DICT_ENV_VAR}")
    return configured


@contextmanager
def _collector_paused():
    """Run a command with cyclic GC paused, restoring its on/off state after, also on errors.

    A command's data (nodes, the dictionary parse, the lexicon shards it
    reads) is long-lived and holds no reference cycles worth finding, so
    collections during a command walk ever more objects and free nothing:
    a cold dictionary parse builds over a million, and a warm ``analyze``
    unmarshals the dictionary's class table while it classifies.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@contextmanager
def _text_input(path: str):
    """Report an input file that is not UTF-8 as a bad input file (exit 2)."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise OSError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from exc


def cmd_analyze(args) -> int:
    # abspath, so "." and ".." name the directory they stand for; unlike
    # resolve(), it keeps a symlinked tree's own name.
    source = Path(os.path.abspath(args.src))
    project = args.project or (source.stem if args.input_mode == "jsonl" else source.name)
    if not project:
        raise ValueError(f"cannot name a project after {args.src!r}; pass --project NAME")

    # Bad input exits 2 before the scan and the dictionary parse, which may
    # take seconds.
    dictionary = _dictionary_dir(args)
    if os.path.isdir(args.out):
        raise IsADirectoryError(f"cannot write index {args.out}: it is a directory")
    if not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
        raise FileNotFoundError(f"cannot write index {args.out}: no such directory")
    if args.stoplist:
        with _text_input(args.stoplist):
            stoplist = load_stoplist(args.stoplist)
    else:
        stoplist = default_stoplist()

    if args.input_mode == "jsonl":
        with _text_input(args.src), open(args.src, encoding="utf-8") as stream:
            try:
                nodes = ingest_nodes(stream)
            except SchemaError as exc:
                raise SchemaError(exc.line_number, exc.reason, args.src) from exc
        file_count = len({node.file_path for node in nodes})
    else:
        diagnostics = ScanDiagnostics()
        nodes, file_count = extract_project(args.src, diagnostics)
        print(
            f"{project}: skipped {diagnostics.skipped_declarations} declarations and "
            f"{diagnostics.skipped_blocks} blocks, {diagnostics.unreadable_files} files unreadable",
            file=sys.stderr,
        )

    lexicon = load_lexicon(dictionary)
    vocabulary = build_vocabulary(
        nodes, lexicon, stoplist, project_name=project, file_count=file_count
    )
    save_index(ProjectIndex(nodes, vocabulary), args.out)
    print(
        f"{project}: {file_count} files, {len(nodes)} nodes, "
        f"{len(vocabulary.entries)} distinct words -> {args.out}"
    )
    return 0


def cmd_stats(args) -> int:
    stats = compute_stats(load_index(args.index).vocabulary)
    if args.format == "json":
        print(json.dumps(stats, indent=2))
        return 0
    if args.format == "csv":
        print("metric,count,percent")
    for key, count in stats.items():
        if key.endswith("_pct"):
            continue
        pct = stats.get(key + "_pct")
        if args.format == "csv":
            print(f"{key},{count},{'' if pct is None else pct}")
        else:
            label = key.replace("_", " ")
            print(f"{label:<16}{count:>8}" + ("" if pct is None else f" ({pct}%)"))
    return 0


def cmd_topwords(args) -> int:
    vocabulary = load_index(args.index).vocabulary
    ranked = top_k(vocabulary, args.k)
    if args.format == "json":
        document = [
            {
                "rank": position,
                "word": entry.word,
                "total": entry.total,
                "pos": str(entry.pos) if entry.pos else None,
                "counts": entry.counts_by_kind,
            }
            for position, entry in enumerate(ranked, start=1)
        ]
        print(json.dumps(document, indent=2))
    else:
        print(f"{'rank':>4} {'word':<24}{'total':>8}  {'pos':<10}"
              f"{'class':>7}{'method':>7}{'param':>7}{'field':>7}")
        for position, entry in enumerate(ranked, start=1):
            counts = entry.counts_by_kind
            print(
                f"{position:>4} {entry.word:<24}{entry.total:>8}  "
                f"{str(entry.pos) if entry.pos else '-':<10}"
                f"{counts['class']:>7}{counts['method']:>7}"
                f"{counts['parameter']:>7}{counts['field']:>7}"
            )
    return 0


def _marker(word: str, status: str) -> str:
    if status == DOMAIN:
        return f"**{word}**"
    if status == POTENTIAL:
        return f"*{word}*"
    return word


def cmd_domain(args) -> int:
    if len(args.indexes) < 2:
        raise ValueError("need at least 2 index files")
    vocabularies = [load_index(path).vocabulary for path in args.indexes]
    lexicon = load_lexicon(_dictionary_dir(args)) if args.semantic else None
    result = build_domain_vocabulary(vocabularies, args.k, lexicon=lexicon)

    projects = ", ".join(result.project_names)
    print(f"{args.name}: projects [{projects}]  k={args.k}  "
          f"semantic={'on' if args.semantic else 'off'}")
    width = max((len(_marker(t.word, t.status)) for t in result.terms), default=0)
    for term in result.terms:
        cells = []
        for name in result.project_names:
            cell = f"{name}={term.per_project_totals.get(name, 0)}"
            if name in term.evidence:
                matched, relation = term.evidence[name]
                cell += f"[{matched},{relation}]"
            cells.append(cell)
        row = (
            f"{_marker(term.word, term.status):<{width}}  "
            f"{term.support_count}/{len(result.project_names)}  "
            + " ".join(cells)
        )
        print(row)
    return 0


def _parse_relations(raw: str) -> frozenset[str]:
    if raw.strip().lower() in ("none", ""):
        return frozenset()
    relations = frozenset(part.strip().lower() for part in raw.split(","))
    if "" in relations:
        raise ValueError(f"empty relation in --relations {raw!r}")
    unknown = relations - RELATIONS
    if unknown:
        raise ValueError(f"unknown relations: {', '.join(sorted(unknown))}")
    return relations


def _format_score(score: Fraction) -> str:
    if score.denominator == 1:
        return str(score.numerator)
    return f"{float(score):g}"


def cmd_locate(args) -> int:
    keywords = [
        token for chunk in args.phrase.split() for token in split_identifier(chunk)
    ]
    if not keywords:
        raise ValueError("empty phrase")
    index = load_index(args.index)
    lexicon = load_lexicon(_dictionary_dir(args))
    query = ConceptQuery(tuple(keywords), relations=_parse_relations(args.relations), depth=args.depth)
    matches = locate_concept(index.nodes, query, lexicon, limit=args.limit, postings=index.postings)
    if not matches:
        print("no matches")
        return 0
    for match in matches:
        node = index.nodes[match.node_id]
        print(f"{node.file_path}:{node.line} {node.kind} {node.name} {_format_score(match.score)}")
        for keyword, (matched, relation, distance) in match.per_keyword.items():
            print(f"  {keyword}→{matched} ({relation},{distance})")
    return 0


if __name__ == "__main__":
    entrypoint()
