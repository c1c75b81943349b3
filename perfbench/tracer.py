"""Span tracer that wraps convpr's public functions from outside the package.

Each wrapped call records a span ``[name, start_ns, end_ns, parent, op,
busy_ns, excluded_ns]``. ``parent`` is the index of the span that was open
when the call started and ``op`` the benchmark operation it belongs to.
``busy_ns`` is ``end - start`` except for generators, whose span covers
only the time spent inside ``next()``. Hooks that count work run after a
span ends; their cost is charged to ``excluded_ns`` of the enclosing span
so that it does not inflate anyone's self time.

A name is patched where the program looks it up: ``experiment`` imports
``read_run`` into its own namespace, so both ``convpr.runs.read_run`` and
``convpr.experiment.read_run`` are wrapped under one span name.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from typing import Callable, Mapping

import numpy as np

_now = time.perf_counter_ns

NAME, START, END, PARENT, OP, BUSY, EXCLUDED = range(7)

LAYERS = ("bm25", "index", "corpus", "tokenization", "cqr", "runs", "fusion", "evaluation", "experiment")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.candidates: list[int] = []  # passages scored > 0, per search
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _open(self, name: str, start: int) -> int:
        idx = len(self.spans)
        self.spans.append([name, start, 0, self._stack[-1] if self._stack else -1, self.op, 0, 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, end: int) -> None:
        rec = self.spans[idx]
        rec[END] = end
        rec[BUSY] += end - rec[START]
        self._stack.pop()

    def _charge_hook(self, started: int) -> None:
        if self._stack:
            self.spans[self._stack[-1]][EXCLUDED] += _now() - started

    def parent_name(self, rec: list) -> str | None:
        return self.spans[rec[PARENT]][NAME] if rec[PARENT] >= 0 else None

    def wrap(self, fn: Callable, name: str, hook: Callable | None = None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name, _now())
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                tracer._close(idx, end)
            if hook is not None:
                hook(tracer, tracer.spans[idx], args, kwargs, result)
                tracer._charge_hook(end)
            return result

        return traced

    def wrap_generator(self, fn: Callable, name: str, per_item: str) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            return _TracedIterator(tracer, name, fn(*args, **kwargs), per_item)

        return traced

    # -- patching --------------------------------------------------------------

    def patch(
        self, target: str, name: str, hook: Callable | None = None, per_item: str | None = None
    ) -> None:
        """Wrap ``module.attr`` or ``module.Class.attr`` in place. With
        ``per_item`` the target is a generator function and every item it
        yields adds one to that counter."""
        module_name, _, rest = target.rpartition(".")
        owner: object
        try:
            owner = importlib.import_module(module_name)
        except ModuleNotFoundError:
            module_name, _, cls = module_name.rpartition(".")
            owner = getattr(importlib.import_module(module_name), cls)
        original = owner.__dict__[rest] if isinstance(owner, type) else getattr(owner, rest)
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(original.__func__, name, hook))
        elif per_item is not None:
            replacement = self.wrap_generator(original, name, per_item)
        else:
            replacement = self.wrap(original, name, hook)
        setattr(owner, rest, replacement)
        self._patches.append((owner, rest, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction -------------------------------------------------------------

    def self_times(self) -> list[int]:
        covered = [0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                covered[rec[PARENT]] += rec[BUSY]
        return [rec[BUSY] - covered[i] - rec[EXCLUDED] for i, rec in enumerate(self.spans)]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for rec, self_ns in zip(self.spans, self.self_times()):
            entry = out[rec[NAME]]
            entry["calls"] += 1
            entry["s"] += rec[BUSY] / 1e9
            entry["self_s"] += self_ns / 1e9
        return dict(out)

    def write_tsv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\top\tbusy_ns\texcluded_ns\n")
            for i, rec in enumerate(self.spans):
                fh.write(f"{i}\t" + "\t".join(str(v) for v in rec) + "\n")


class _TracedIterator:
    """Times each ``next()`` of a generator into one span that opens on the
    first item, under whatever span is consuming it."""

    def __init__(self, tracer: Tracer, name: str, it, per_item: str):
        self._tracer = tracer
        self._name = name
        self._it = it
        self._per_item = per_item
        self._idx: int | None = None

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        start = _now()
        if self._idx is None:
            self._idx = tracer._open(self._name, start)
        else:
            tracer._stack.append(self._idx)
        rec = tracer.spans[self._idx]
        try:
            item = next(self._it)
        finally:
            end = _now()
            rec[END] = end
            rec[BUSY] += end - start
            tracer._stack.pop()
        tracer.counts[self._per_item] += 1
        return item


# -- hooks that count work at each boundary -----------------------------------


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _count_postings(tracer, rec, args, kwargs, result):
    if tracer.parent_name(rec) == "index.search":
        starts, ends, scores = args[0], args[1], args[6]
        tracer.counts["index.search.postings"] += int((ends - starts).sum())
        tracer.candidates.append(int(np.count_nonzero(scores)))


def _count_results(tracer, rec, args, kwargs, result):
    tracer.counts["index.search.results"] += len(result)


def _count_indexed_probe(tracer, rec, args, kwargs, result):
    searcher, term = args[0], _arg(args, kwargs, 1, "term")
    if searcher.index.df(term) > 0:
        tracer.counts["index.max_score_term.indexed"] += 1


def _count_built_postings(tracer, rec, args, kwargs, result):
    tracer.counts["index.postings"] += int(result.doc_ords.size)


def _count_tokens(tracer, rec, args, kwargs, result):
    tracer.counts["tokenization.tokens"] += len(result)


def _count_turn(tracer, rec, args, kwargs, result):
    tracer.counts["cqr.turns"] += 1


def _ambiguity_hook(eta: float):
    def hook(tracer, rec, args, kwargs, result):
        if tracer.parent_name(rec) == "cqr.hqe_rewrite":
            tracer.counts["cqr.ambiguity_probes"] += 1
            tracer.counts["cqr.sub_branch"] += result < eta

    return hook


def _count_lines_read(tracer, rec, args, kwargs, result):
    tracer.counts["runs.lines_read"] += sum(len(rl) for rl in result.values())


def _count_lines_written(tracer, rec, args, kwargs, result):
    run = _arg(args, kwargs, 1, "run")
    lists = run.values() if isinstance(run, Mapping) else run
    tracer.counts["runs.lines_written"] += sum(len(rl) for rl in lists)


def _count_entries(tracer, rec, args, kwargs, result):
    entries = _arg(args, kwargs, 2, "entries") if len(args) > 2 or "entries" in kwargs else []
    tracer.counts["runs.RankedList.entries"] += len(entries)


def _count_rrf(tracer, rec, args, kwargs, result):
    tracer.counts["fusion.entries_in"] += sum(len(rl) for rl in _arg(args, kwargs, 0, "lists"))
    tracer.counts["fusion.entries_out"] += len(result)


def _count_rerank(tracer, rec, args, kwargs, result):
    tracer.counts["fusion.entries_in"] += len(_arg(args, kwargs, 0, "ranked"))
    tracer.counts["fusion.entries_out"] += len(result)


def _count_queries(tracer, rec, args, kwargs, result):
    tracer.counts["evaluation.queries"] += len(result.qids)


def install(tracer: Tracer, eta: float) -> None:
    """Wrap every public convpr function the workloads reach, under the
    span names the per-layer metrics use. ``eta`` is the HQE ambiguity
    threshold of the workload, for ``cqr.sub_branch_ratio``."""
    c = "convpr."
    table = [
        ("_bm25.score_postings", "bm25.score_postings", _count_postings),
        ("_bm25.max_posting_score", "bm25.max_posting_score", None),
        ("index.build_index", "index.build_index", _count_built_postings),
        ("experiment.build_index", "index.build_index", _count_built_postings),
        ("index.InvertedIndex.save", "index.save", None),
        ("index.InvertedIndex.load", "index.load", None),
        ("index.Searcher.search", "index.search", _count_results),
        ("index.Searcher.max_score", "index.max_score", _ambiguity_hook(eta)),
        ("index.Searcher.max_score_term", "index.max_score_term", _count_indexed_probe),
        ("corpus.load_sessions", "corpus.load_sessions", None),
        ("experiment.load_sessions", "corpus.load_sessions", None),
        ("tokenization.tokenize", "tokenization.tokenize", _count_tokens),
        ("cqr.hqe_rewrite", "cqr.hqe_rewrite", _count_turn),
        ("experiment.hqe_rewrite", "cqr.hqe_rewrite", _count_turn),
        ("cqr.extract_keywords", "cqr.extract_keywords", None),
        ("cqr.concat_rewrite", "cqr.concat_rewrite", None),
        ("experiment.concat_rewrite", "cqr.concat_rewrite", None),
        ("cqr.raw_query", "cqr.raw_query", None),
        ("experiment.raw_query", "cqr.raw_query", None),
        ("cqr.load_external_rewrites", "cqr.load_external_rewrites", None),
        ("experiment.load_external_rewrites", "cqr.load_external_rewrites", None),
        ("cqr.write_rewrites", "cqr.write_rewrites", None),
        ("experiment.write_rewrites", "cqr.write_rewrites", None),
        ("cqr.PosAnnotations.load", "cqr.PosAnnotations.load", None),
        ("runs.read_run", "runs.read_run", _count_lines_read),
        ("experiment.read_run", "runs.read_run", _count_lines_read),
        ("runs.write_run", "runs.write_run", _count_lines_written),
        ("experiment.write_run", "runs.write_run", _count_lines_written),
        ("runs.RankedList.__init__", "runs.RankedList", _count_entries),
        ("fusion.load_rerank_scores", "fusion.load_rerank_scores", None),
        ("experiment.load_rerank_scores", "fusion.load_rerank_scores", None),
        ("fusion.fuse_runs", "fusion.fuse_runs", None),
        ("experiment.fuse_runs", "fusion.fuse_runs", None),
        ("fusion.rerank_run", "fusion.rerank_run", None),
        ("experiment.rerank_run", "fusion.rerank_run", None),
        ("fusion.rerank", "fusion.rerank", _count_rerank),
        ("fusion.rrf_fuse", "fusion.rrf_fuse", _count_rrf),
        ("evaluation.load_qrels", "evaluation.load_qrels", None),
        ("experiment.load_qrels", "evaluation.load_qrels", None),
        ("evaluation.evaluate_run", "evaluation.evaluate_run", _count_queries),
        ("experiment.evaluate_run", "evaluation.evaluate_run", _count_queries),
        ("experiment.run_experiment", "experiment.run_experiment", None),
    ]
    for target, name, hook in table:
        tracer.patch(c + target, name, hook)
    for target in ("corpus.load_passages", "experiment.load_passages"):
        tracer.patch(c + target, "corpus.load_passages", per_item="corpus.passages")


def install_counters(tracer: Tracer, targets: Mapping[str, str]) -> None:
    """Cheap call counting for the untraced run: spans only, no hooks."""
    for target, name in targets.items():
        tracer.patch("convpr." + target, name)


def per_layer_metrics(tracer: Tracer, traced_wall_s: float, untraced_wall_s: float) -> dict[str, tuple[float, str]]:
    s = tracer.summary()
    n = tracer.counts

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    def incl(name):
        return s.get(name, {}).get("s", 0.0)

    def own(name):
        return s.get(name, {}).get("self_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    searches = calls("index.search")
    cand = tracer.candidates
    m: dict[str, tuple[float, str]] = {
        "bm25.score_postings.s": (incl("bm25.score_postings"), "s"),
        "bm25.score_postings.calls": (calls("bm25.score_postings"), "count"),
        "bm25.max_posting_score.s": (incl("bm25.max_posting_score"), "s"),
        "bm25.max_posting_score.calls": (calls("bm25.max_posting_score"), "count"),
        "index.search.calls": (searches, "count"),
        "index.search.self_s": (own("index.search"), "s"),
        "index.search.postings_per_query": (ratio(n["index.search.postings"], searches), "postings/query"),
        "index.search.candidates_per_query": (ratio(sum(cand), searches), "docs/query"),
        "index.search.candidates_p10_per_query": (float(np.percentile(cand, 10)) if cand else 0.0, "docs/query"),
        "index.search.candidates_p90_per_query": (float(np.percentile(cand, 90)) if cand else 0.0, "docs/query"),
        "index.search.results_per_query": (ratio(n["index.search.results"], searches), "docs/query"),
        "index.max_score.self_s": (own("index.max_score"), "s"),
        "index.max_score_term.calls": (calls("index.max_score_term"), "count"),
        "index.build_index.self_s": (own("index.build_index"), "s"),
        "index.save.s": (incl("index.save"), "s"),
        "index.load.s": (incl("index.load"), "s"),
        "index.postings": (n["index.postings"], "count"),
        "corpus.load_passages.s": (incl("corpus.load_passages"), "s"),
        "corpus.passages": (n["corpus.passages"], "count"),
        "tokenization.tokenize.s": (incl("tokenization.tokenize"), "s"),
        "tokenization.tokens": (n["tokenization.tokens"], "count"),
        "cqr.hqe_rewrite.self_s": (own("cqr.hqe_rewrite"), "s"),
        "cqr.extract_keywords.self_s": (own("cqr.extract_keywords"), "s"),
        "cqr.concat_rewrite.s": (incl("cqr.concat_rewrite"), "s"),
        "cqr.turns": (n["cqr.turns"], "count"),
        "cqr.ke_hit_ratio": (
            1.0 - ratio(calls("bm25.max_posting_score"), n["index.max_score_term.indexed"])
            if n["index.max_score_term.indexed"]
            else 0.0,
            "ratio",
        ),
        "cqr.sub_branch_ratio": (ratio(n["cqr.sub_branch"], n["cqr.ambiguity_probes"]), "ratio"),
        "runs.read_run.s": (incl("runs.read_run"), "s"),
        "runs.write_run.s": (incl("runs.write_run"), "s"),
        "runs.lines_read": (n["runs.lines_read"], "count"),
        "runs.lines_written": (n["runs.lines_written"], "count"),
        "runs.RankedList.s": (incl("runs.RankedList"), "s"),
        "runs.RankedList.entries": (n["runs.RankedList.entries"], "count"),
        "fusion.load_rerank_scores.s": (incl("fusion.load_rerank_scores"), "s"),
        "fusion.load_rerank_scores.calls": (calls("fusion.load_rerank_scores"), "count"),
        "fusion.rerank.s": (incl("fusion.rerank"), "s"),
        "fusion.rrf_fuse.s": (incl("fusion.rrf_fuse"), "s"),
        "fusion.entries_in": (n["fusion.entries_in"], "count"),
        "fusion.entries_out": (n["fusion.entries_out"], "count"),
        "evaluation.load_qrels.s": (incl("evaluation.load_qrels"), "s"),
        "evaluation.evaluate_run.s": (incl("evaluation.evaluate_run"), "s"),
        "evaluation.queries": (n["evaluation.queries"], "count"),
        "experiment.run_experiment.self_s": (own("experiment.run_experiment"), "s"),
    }
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, entry in s.items():
        layer_self[name.split(".", 1)[0]] += entry["self_s"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    m["trace.wall_s"] = (traced_wall_s, "s")
    m["trace.untraced_wall_s"] = (untraced_wall_s, "s")
    m["trace.overhead_ratio"] = (traced_wall_s / untraced_wall_s - 1.0, "ratio")
    m["trace.spans"] = (len(tracer.spans), "count")
    return m
