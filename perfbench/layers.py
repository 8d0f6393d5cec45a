"""Spans and counts around lexiscope's layers, recorded from outside.

``Tracer.install`` replaces the module-level names each caller looks up
(``lexiscope.cli.load_lexicon``, ``lexiscope.vocabulary.classify``,
``lexiscope.locator.node_scope``, ...) with wrappers that record one span
per call: (name, start, end, parent).  Spans stay in memory until
``write`` puts them in a file.  ``layer_metrics`` turns them into the
per-layer metrics; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import gc
import os
import time
from collections import Counter, defaultdict

# (module, attribute, span name): every place a caller looks a layer up.
WRAPPED = (
    ("lexiscope.cli", "load_lexicon", "lexicon.load"),
    ("lexiscope.cli", "extract_project", "extractor.project"),
    ("lexiscope.cli", "build_vocabulary", "vocabulary.build"),
    ("lexiscope.cli", "save_index", "index.save"),
    ("lexiscope.cli", "load_index", "index.load"),
    ("lexiscope.cli", "compute_stats", "vocabulary.stats"),
    ("lexiscope.cli", "top_k", "vocabulary.top_k"),
    ("lexiscope.cli", "build_domain_vocabulary", "domain.build"),
    ("lexiscope.cli", "locate_concept", "locator.locate"),
    ("lexiscope.cli", "split_identifier", "tokenizer.split"),
    ("lexiscope.extractor", "_tokenize", "extractor.tokenize"),
    ("lexiscope.tokenizer", "split_identifier", "tokenizer.split"),
    ("lexiscope.vocabulary", "classify", "lexicon.classify"),
    ("lexiscope.lexicon", "lemmatize", "lexicon.lemmatize"),
    ("lexiscope.domain", "top_k", "vocabulary.top_k"),
    ("lexiscope.domain", "related_words", "lexicon.related_words"),
    ("lexiscope.locator", "expand_query", "locator.expand"),
    ("lexiscope.locator", "node_scope", "locator.scope"),
    ("lexiscope.locator", "lemmatize", "lexicon.lemmatize"),
    ("lexiscope.locator", "related_words", "lexicon.related_words"),
    ("lexiscope.locator", "split_identifier", "tokenizer.split"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []          # (name, start, end, parent span index or -1)
        self.counts: Counter = Counter()
        self.stack: list[int] = []
        self._patches: list = []
        self._gc_start = 0.0

    def install(self) -> None:
        import importlib

        from lexiscope.extractor import ScanDiagnostics

        for module_name, attribute, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            self._patches.append((module, attribute, original))
            if attribute == "extract_project":
                original = self._with_diagnostics(original, ScanDiagnostics)
            setattr(module, attribute, self._wrap(original, name))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for module, attribute, original in reversed(self._patches):
            setattr(module, attribute, original)
        self._patches.clear()
        gc.callbacks.remove(self._on_gc)

    def _with_diagnostics(self, extract_project, diagnostics_type):
        counts = self.counts

        def scan(root, diagnostics=None):
            diagnostics = diagnostics if diagnostics is not None else diagnostics_type()
            result = extract_project(root, diagnostics)
            counts["extractor.skipped_declarations"] += diagnostics.skipped_declarations
            counts["extractor.skipped_blocks"] += diagnostics.skipped_blocks
            counts["extractor.unreadable_files"] += diagnostics.unreadable_files
            return result

        return scan

    def _wrap(self, original, name):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter
        record = _RECORDERS.get(name)

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if record is not None:
                record(counts, args, kwargs, result)
            return result

        return wrapper

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.counts["python.gc_s"] += time.perf_counter() - self._gc_start
            self.counts["python.gc_collections"] += 1

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("name\tstart\tend\tparent\n")
            for name, start, end, parent in self.spans:
                out.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def _lexicon_sizes(counts, args, kwargs, lexicon):
    counts["lexicon.entries"] = len(lexicon.entries)
    counts["lexicon.synsets"] = len(lexicon.synsets)


def _project_sizes(counts, args, kwargs, result):
    nodes, file_count = result
    counts["extractor.files"] += file_count
    counts["extractor.nodes"] += len(nodes)


def _token_count(counts, args, kwargs, tokens):
    counts["extractor.tokens"] += len(tokens)


def _vocabulary_sizes(counts, args, kwargs, vocabulary):
    counts["vocabulary.distinct_words"] += len(vocabulary.entries)
    counts["vocabulary.recognized_words"] += sum(e.recognized for e in vocabulary.entries.values())


def _index_bytes(counts, args, kwargs, result):
    counts["index.bytes"] += os.path.getsize(args[1])


def _domain_size(counts, args, kwargs, result):
    counts["domain.candidates"] += len(result.terms)


def _expansion_size(counts, args, kwargs, expansions):
    counts["locator.expansion_words"] += sum(len(words) for words in expansions.values())


def _match_count(counts, args, kwargs, matches):
    counts["locator.matches"] += len(matches)


_RECORDERS = {
    "lexicon.load": _lexicon_sizes,
    "extractor.project": _project_sizes,
    "extractor.tokenize": _token_count,
    "vocabulary.build": _vocabulary_sizes,
    "index.save": _index_bytes,
    "domain.build": _domain_size,
    "locator.expand": _expansion_size,
    "locator.locate": _match_count,
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals: calls, inclusive and self seconds, and counts."""
    calls: Counter = Counter()
    inclusive: defaultdict = defaultdict(float)
    children: defaultdict = defaultdict(float)
    for name, start, end, parent in tracer.spans:
        calls[name] += 1
        inclusive[name] += end - start
        if parent >= 0:
            children[parent] += end - start
    self_time: defaultdict = defaultdict(float)
    for index, (name, start, end, _parent) in enumerate(tracer.spans):
        self_time[name] += end - start - children[index]

    c = tracer.counts
    distinct = c["vocabulary.distinct_words"]
    candidates = calls["locator.scope"]
    return {
        "lexicon.load_s": inclusive["lexicon.load"],
        "lexicon.entries": c["lexicon.entries"],
        "lexicon.synsets": c["lexicon.synsets"],
        "lexicon.classify_calls": calls["lexicon.classify"],
        "lexicon.classify_s": inclusive["lexicon.classify"],
        "lexicon.lemmatize_calls": calls["lexicon.lemmatize"],
        "lexicon.lemmatize_s": inclusive["lexicon.lemmatize"],
        "lexicon.related_words_calls": calls["lexicon.related_words"],
        "lexicon.related_words_s": inclusive["lexicon.related_words"],
        "extractor.files": c["extractor.files"],
        "extractor.nodes": c["extractor.nodes"],
        "extractor.tokens": c["extractor.tokens"],
        "extractor.tokenize_s": inclusive["extractor.tokenize"],
        "extractor.scan_s": self_time["extractor.project"],
        "extractor.skipped_declarations": c["extractor.skipped_declarations"],
        "extractor.skipped_blocks": c["extractor.skipped_blocks"],
        "extractor.unreadable_files": c["extractor.unreadable_files"],
        "tokenizer.split_calls": calls["tokenizer.split"],
        "tokenizer.split_s": inclusive["tokenizer.split"],
        "vocabulary.build_s": self_time["vocabulary.build"],
        "vocabulary.distinct_words": distinct,
        "vocabulary.recognized_ratio": c["vocabulary.recognized_words"] / distinct if distinct else 0.0,
        "vocabulary.top_k_s": inclusive["vocabulary.top_k"],
        "vocabulary.stats_s": inclusive["vocabulary.stats"],
        "index.save_s": inclusive["index.save"],
        "index.bytes": c["index.bytes"],
        "index.load_s": inclusive["index.load"],
        "index.loads": calls["index.load"],
        "domain.build_s": self_time["domain.build"],
        "domain.candidates": c["domain.candidates"],
        "locator.expand_s": inclusive["locator.expand"],
        "locator.expansion_words": c["locator.expansion_words"],
        "locator.scope_calls": calls["locator.scope"],
        "locator.scope_s": inclusive["locator.scope"],
        "locator.locate_s": self_time["locator.locate"],
        "locator.candidates": candidates,
        "locator.matches": c["locator.matches"],
        "locator.match_ratio": c["locator.matches"] / candidates if candidates else 0.0,
        "python.gc_s": c["python.gc_s"],
        "python.gc_collections": c["python.gc_collections"],
    }
