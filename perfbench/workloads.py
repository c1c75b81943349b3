"""The three workloads: set-up (parent process), timed operations and
their output checks (child process), and the brute-force oracle.

Each workload is one client issuing one operation at a time (closed
loop), with no extra threads.

- ``build``: the write path. One operation streams the synthetic TSV
  through ``corpus.load_passages`` into ``index.build_index``, then
  ``InvertedIndex.save`` and ``InvertedIndex.load``.
- ``retrieve``: first-stage retrieval at the paper's depth. One operation
  is one ``Searcher.search(tokens, k=1000)`` call. The queries are the raw,
  concat (window 9), HQE and external rewrites of every turn, made in
  set-up and replayed in a seeded shuffled order.
- ``rerun``: the tuning loop. One operation is ``run_experiment`` on the
  paper's configuration after set-up has filled the index, keyword and
  first-stage run caches, so it performs no top-1000 search.
"""

from __future__ import annotations

import filecmp
import json
import shutil
from collections import Counter
from pathlib import Path

import numpy as np

from gen import Collection, Spec, generate

from convpr import corpus as corpus_mod
from convpr import cqr as cqr_mod
from convpr import experiment as experiment_mod
from convpr import index as index_mod
from convpr.corpus import Utterance

K1, B = 0.82, 0.68
DEPTH = 1000
CONCAT_WINDOW = 9
# HQE thresholds for the 20k-passage collection of retrieve and rerun. There
# topic words score 7.4-8.2 with the keyword extractor (5th-95th
# percentile), subtopic words 4.6-6.5 and filler words below 3.5, so r_topic
# keeps only topic words and r_sub adds the subtopic words. Turns that name
# their topic have a top-1 score of about 12-19, pronoun turns about 9-15,
# so eta = 12.5 sends roughly half of the later turns down the subtopic
# branch.
HQE = {"r_topic": 7.0, "r_sub": 4.0, "eta": 12.5, "m_window": 3}


def _hqe_params() -> cqr_mod.HqeParams:
    return cqr_mod.HqeParams(**HQE)


def _utterances(coll: Collection) -> list[list[Utterance]]:
    return [
        [Utterance(str(s["number"]), t, turn["text"]) for t, turn in enumerate(s["turns"], start=1)]
        for s in coll.sessions
    ]


class Oracle:
    """Dense brute-force BM25 over the generator's own token ids.

    It shares no code with convpr's index. For each query term, in first
    occurrence order, it adds ``w * tf / (tf + len_norm)`` to every
    passage, which performs the same IEEE operations per passage as the
    index's term-at-a-time kernel, so scores must agree bitwise.
    """

    def __init__(self, coll: Collection):
        self.coll = coll
        self.word_id = {w: i for i, w in enumerate(coll.words)}
        lengths = np.array([ids.size for ids in coll.doc_tokens], dtype=np.int64)
        self.n = len(coll.doc_ids)
        self.flat = np.concatenate(coll.doc_tokens)
        self.doc_of = np.repeat(np.arange(self.n), lengths)
        pairs = np.unique(self.doc_of * len(coll.words) + self.flat)
        self.df = np.bincount(pairs % len(coll.words), minlength=len(coll.words))
        dff = self.df.astype(np.float64)
        self.idf = np.log1p((float(self.n) - dff + 0.5) / (dff + 0.5))
        dl = lengths.astype(np.float64)
        self.len_norm = K1 * (1.0 - B + B * (dl / float(lengths.mean())))
        self._tf: dict[int, np.ndarray] = {}

    @property
    def postings(self) -> int:
        return int(self.df.sum())

    def tf(self, w: int) -> np.ndarray:
        if w not in self._tf:
            hits = self.doc_of[self.flat == w]
            self._tf[w] = np.bincount(hits, minlength=self.n).astype(np.float64)
        return self._tf[w]

    def top_k(self, tokens, k: int = DEPTH) -> list[tuple[str, float]]:
        scores = np.zeros(self.n, dtype=np.float64)
        for tok, qtf in Counter(tokens).items():
            w = self.word_id.get(tok)
            if w is None or self.df[w] == 0:
                continue
            weight = qtf * self.idf[w] * (K1 + 1.0)
            tf = self.tf(w)
            scores += weight * tf / (tf + self.len_norm)
        doc_ids = self.coll.doc_ids
        cand = sorted(np.flatnonzero(scores > 0.0), key=lambda d: (-scores[d], doc_ids[d]))
        return [(doc_ids[d], float(scores[d])) for d in cand[:k]]


class Workload:
    """Defaults shared by the workloads below."""

    name: str
    spec: Spec
    min_ops: int  # timed operations per run, whatever --seconds says
    setup_repeats = 3  # setup_s is the median of this many set-ups
    expected_spans: tuple[str, ...]  # must fire in the traced run
    silent_spans: tuple[str, ...]  # name prefixes that must not fire
    counters: dict[str, str] = {}  # patched target -> span name, counted in untraced runs too

    def validity(self, work: Path, coll: Collection) -> list[tuple[str, bool, str]]:
        return []

    def traced_ops(self, ctx) -> int:
        """Operations a traced run performs, each once untraced and once traced."""
        return 3

    def pass_ops(self, ctx) -> int:
        """The timed loop stops only after a multiple of this many operations."""
        return 1


# -- build ----------------------------------------------------------------------


class Build(Workload):
    name = "build"
    spec = Spec(docs=12000, sessions=3)
    min_ops = 3
    setup_repeats = 7  # a set-up takes under a second
    expected_spans = (
        "corpus.load_passages", "tokenization.tokenize", "index.build_index", "index.save", "index.load",
    )
    silent_spans = ("index.search", "bm25.", "cqr.", "fusion.", "evaluation.", "experiment.")

    # parent side

    def setup(self, work: Path, seed: int) -> Collection:
        coll = generate(self.spec, seed)
        coll.write_corpus(work / "corpus.tsv")
        # One pass of the program's reader over the new file, so that set-up
        # time includes convpr's own work and not only the generator's.
        self.setup_passages = sum(1 for _ in corpus_mod.load_passages(work / "corpus.tsv"))
        return coll

    def validity(self, work: Path, coll: Collection) -> list[tuple[str, bool, str]]:
        n = self.setup_passages
        return [("set-up reads every passage back", n == len(coll.doc_ids), f"{n}/{len(coll.doc_ids)}")]

    def expectations(self, work: Path, coll: Collection, oracle: Oracle, seed: int) -> dict:
        rng = np.random.default_rng(seed + 1)
        # Half drawn by frequency (mostly the head), half uniformly over the vocabulary.
        ids = np.concatenate((rng.choice(oracle.flat, size=25), rng.choice(np.flatnonzero(oracle.df), size=25)))
        terms = sorted({coll.words[int(w)] for w in ids})
        # Queries of 3-11 words drawn from random passages.
        queries = []
        for _ in range(10):
            passage = coll.doc_tokens[int(rng.integers(oracle.n))]
            queries.append([coll.words[int(w)] for w in rng.choice(passage, size=int(rng.integers(3, 12)))])
        return {"docs": oracle.n, "df": {t: int(oracle.df[oracle.word_id[t]]) for t in terms}, "queries": queries}

    def index_dir(self, work: Path) -> Path:
        return work / "index"

    def items_per_op(self, coll: Collection) -> int:
        return len(coll.doc_ids)

    # child side

    def prepare(self, work: Path, expect: dict):
        return {"work": work, "expect": expect}

    def op(self, ctx, i: int):
        index = index_mod.build_index(corpus_mod.load_passages(ctx["work"] / "corpus.tsv"))
        index.save(ctx["work"] / "index")
        return index, index_mod.InvertedIndex.load(ctx["work"] / "index")

    def verify(self, ctx, i: int, result) -> bool:
        built, loaded = result
        expect = ctx["expect"]
        if loaded.doc_count != expect["docs"]:
            return False
        if any(loaded.df(t) != df for t, df in expect["df"].items()):
            return False
        a, b = index_mod.Searcher(built), index_mod.Searcher(loaded)
        return all(a.search(q, k=DEPTH).entries == b.search(q, k=DEPTH).entries for q in expect["queries"])


# -- retrieve -------------------------------------------------------------------


class Retrieve(Workload):
    name = "retrieve"
    spec = Spec(docs=20000, sessions=30)
    min_ops = 1200
    expected_spans = ("index.search", "bm25.score_postings", "runs.RankedList")
    silent_spans = (
        "corpus.", "tokenization.", "index.build_index", "index.save", "index.load",
        "cqr.", "fusion.", "evaluation.", "experiment.", "runs.read_run", "runs.write_run",
    )

    def setup(self, work: Path, seed: int) -> Collection:
        coll = generate(self.spec, seed)
        coll.write_corpus(work / "corpus.tsv")
        index = index_mod.build_index(corpus_mod.load_passages(work / "corpus.tsv"))
        index.save(work / "index")
        searcher = index_mod.Searcher(index, index_mod.Bm25Params(K1, B))
        hqe = _hqe_params()
        queries = []
        for session, utts in zip(coll.sessions, _utterances(coll)):
            for i in range(1, len(utts) + 1):
                prefix = utts[:i]
                qid = prefix[-1].qid
                for kind, tokens in (
                    ("raw", cqr_mod.raw_query(prefix[-1]).tokens),
                    ("concat", cqr_mod.concat_rewrite(prefix, CONCAT_WINDOW).tokens),
                    ("hqe", cqr_mod.hqe_rewrite(searcher, prefix, hqe).tokens),
                    ("external", index.tokenize(session["turns"][i - 1]["external"])),
                ):
                    queries.append({"qid": qid, "kind": kind, "tokens": list(tokens)})
        order = np.random.default_rng(seed).permutation(len(queries))
        queries = [queries[i] for i in order]
        (work / "queries.json").write_text(json.dumps(queries), encoding="utf-8")
        return coll

    def expectations(self, work: Path, coll: Collection, oracle: Oracle, seed: int) -> dict:
        queries = json.loads((work / "queries.json").read_text(encoding="utf-8"))
        longest = sorted(range(len(queries)), key=lambda i: (-len(queries[i]["tokens"]), i))[:10]
        rng = np.random.default_rng(seed + 1)
        sampled = sorted(set(longest) | {int(i) for i in rng.choice(len(queries), size=30, replace=False)})
        return {"top_k": {str(i): oracle.top_k(queries[i]["tokens"]) for i in sampled}}

    def index_dir(self, work: Path) -> Path:
        return work / "index"

    def items_per_op(self, coll: Collection) -> int:
        return 1

    def prepare(self, work: Path, expect: dict):
        queries = json.loads((work / "queries.json").read_text(encoding="utf-8"))
        index = index_mod.InvertedIndex.load(work / "index")
        searcher = index_mod.Searcher(index, index_mod.Bm25Params(K1, B))
        for q in queries[:20]:  # touch the index pages before timing
            searcher.search(q["tokens"], k=DEPTH, qid=q["qid"])
        top_k = {int(i): [tuple(e) for e in v] for i, v in expect["top_k"].items()}
        return {"queries": queries, "searcher": searcher, "top_k": top_k, "seen": {}}

    def traced_ops(self, ctx) -> int:
        return len(ctx["queries"])

    def pass_ops(self, ctx) -> int:
        return len(ctx["queries"])

    def op(self, ctx, i: int):
        q = ctx["queries"][i % len(ctx["queries"])]
        return ctx["searcher"].search(q["tokens"], k=DEPTH, qid=q["qid"])

    def verify(self, ctx, i: int, result) -> bool:
        j = i % len(ctx["queries"])
        if j in ctx["top_k"]:
            return [(e.doc_id, e.score) for e in result.entries] == ctx["top_k"][j]
        # Unsampled queries must repeat their first answer exactly.
        fingerprint = hash(tuple(result.entries))
        return ctx["seen"].setdefault(j, fingerprint) == fingerprint


# -- rerun ----------------------------------------------------------------------


def _config(with_rerank: bool) -> str:
    hqe = "{" + ", ".join(f"{k}: {v}" for k, v in HQE.items()) + "}"
    scores = "\n    rerank_scores: scores.tsv" if with_rerank else ""
    fusion = (
        "fusion:\n  mode: early\n  methods: [hqe, external]\n  rerank_scores: scores.tsv\n"
        if with_rerank
        else ""
    )
    return (
        "corpus: corpus.tsv\ncorpus_format: tsv\ntopics: topics.json\nqrels: qrels.txt\n"
        f"output_dir: out\ndepth: {DEPTH}\nbm25: {{k1: {K1}, b: {B}}}\nrrf: {{k: 60.0}}\n"
        "methods:\n"
        "  - name: raw\n    type: raw\n"
        f"  - name: concat\n    type: concat\n    m_window: {CONCAT_WINDOW}\n"
        f"  - name: hqe\n    type: hqe\n    hqe: {hqe}{scores}\n"
        f"  - name: hqe-pos\n    type: hqe-pos\n    hqe: {hqe}\n    pos_annotations: pos.jsonl\n"
        f"  - name: external\n    type: external\n    rewrites: external.tsv{scores}\n"
        + fusion
    )


def _reference_files(work: Path) -> list[str]:
    return sorted(p.name for p in (work / "out" / "runs").glob("*.run")) + ["metrics.csv"]


def _out_path(work: Path, name: str) -> Path:
    return work / "out" / ("metrics.csv" if name == "metrics.csv" else f"runs/{name}")


class Rerun(Workload):
    name = "rerun"
    spec = Spec(docs=20000, sessions=3)
    min_ops = 3
    expected_spans = (
        "experiment.run_experiment", "index.load", "cqr.hqe_rewrite", "cqr.extract_keywords",
        "cqr.concat_rewrite", "index.max_score", "index.max_score_term", "bm25.score_postings",
        "runs.read_run", "runs.write_run", "runs.RankedList", "fusion.load_rerank_scores",
        "fusion.rerank", "fusion.rrf_fuse", "evaluation.load_qrels", "evaluation.evaluate_run",
        "tokenization.tokenize",
    )
    silent_spans = ("index.search", "bm25.max_posting_score", "index.build_index", "corpus.load_passages")
    # Counted in the untraced run too: the warm caches must leave these idle.
    counters = {"index.Searcher.search": "index.search", "_bm25.max_posting_score": "bm25.max_posting_score"}

    def setup(self, work: Path, seed: int) -> Collection:
        coll = generate(self.spec, seed)
        coll.write_all(work)
        # Fill the index, keyword and first-stage run caches; the rerank
        # scores can only be written once the first-stage runs exist.
        (work / "cold.yaml").write_text(_config(with_rerank=False), encoding="utf-8")
        experiment_mod.run_experiment(experiment_mod.load_config(work / "cold.yaml"))
        self._write_scores(work, coll, seed)
        (work / "config.yaml").write_text(_config(with_rerank=True), encoding="utf-8")
        experiment_mod.run_experiment(experiment_mod.load_config(work / "config.yaml"))
        ref = work / "ref"
        ref.mkdir()
        for name in _reference_files(work):
            shutil.copyfile(_out_path(work, name), ref / name)
        return coll

    @staticmethod
    def _write_scores(work: Path, coll: Collection, seed: int) -> None:
        """A simulated reranker: relevance grade plus noise, for every
        (qid, doc) pair in the hqe or external run, which covers the fused
        run too."""
        grades = coll.grades()
        rng = np.random.default_rng(seed + 2)
        pairs: dict[tuple[str, str], None] = {}
        for name in ("hqe", "external"):
            with (work / "out" / "runs" / f"{name}.run").open(encoding="utf-8") as fh:
                for line in fh:
                    qid, _, doc_id, *_ = line.split()
                    pairs[(qid, doc_id)] = None
        noise = rng.normal(0.0, 0.8, len(pairs))
        with (work / "scores.tsv").open("w", encoding="utf-8", newline="\n") as fh:
            for (qid, doc_id), e in zip(pairs, noise):
                fh.write(f"{qid}\t{doc_id}\t{grades.get((qid, doc_id), 0) + float(e)!r}\n")

    def expectations(self, work: Path, coll: Collection, oracle: Oracle, seed: int) -> dict:
        return {"files": _reference_files(work)}

    def validity(self, work: Path, coll: Collection) -> list[tuple[str, bool, str]]:
        """The workload exercises HQE and every run only if these hold."""
        checks = []
        with (work / "ref" / "metrics.csv").open(encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")[2:]
            means = {row[0]: [float(v) for v in row[2:]] for row in (line.strip().split(",") for line in fh) if row[1] == "all"}
        zero = [f"{run}:{m}" for run, vals in means.items() for m, v in zip(header, vals) if not v > 0]
        checks.append(("every run has non-zero metric means", not zero and len(means) == 8, ",".join(zero)))
        index = index_mod.InvertedIndex.load(next((work / "out" / "cache").glob("index-*")))
        searcher = index_mod.Searcher(index, index_mod.Bm25Params(K1, B))
        hqe = _hqe_params()
        later = with_topic = sub_branch = 0
        for utts in _utterances(coll):
            for i in range(2, len(utts) + 1):
                later += 1
                topic, _ = cqr_mod.extract_keywords(searcher, utts[:i], hqe)
                with_topic += bool(topic)
                sub_branch += searcher.max_score(searcher.tokenize(utts[i - 1].raw_text)) < hqe.eta
        checks.append(("topic keywords on most turns >= 2", with_topic > later / 2, f"{with_topic}/{later}"))
        checks.append(("0 < sub_branch_ratio < 1", 0 < sub_branch < later, f"{sub_branch}/{later}"))
        return checks

    def index_dir(self, work: Path) -> Path:
        return next((work / "out" / "cache").glob("index-*"))

    def items_per_op(self, coll: Collection) -> int:
        return len(coll.qids)

    def prepare(self, work: Path, expect: dict):
        return {"work": work, "config": experiment_mod.load_config(work / "config.yaml"), "files": expect["files"]}

    def op(self, ctx, i: int):
        return experiment_mod.run_experiment(ctx["config"])

    def verify(self, ctx, i: int, result) -> bool:
        work = ctx["work"]
        produced = sorted(p.name for p in (work / "out" / "runs").glob("*.run")) + ["metrics.csv"]
        filecmp.clear_cache()
        return produced == ctx["files"] and all(
            filecmp.cmp(_out_path(work, name), work / "ref" / name, shallow=False) for name in ctx["files"]
        )


WORKLOADS = {w.name: w for w in (Build(), Retrieve(), Rerun())}
