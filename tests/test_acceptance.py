"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criterion 6 needs an external trec_eval binary on PATH and criterion
9 needs the full passage collection (see README); both skip otherwise.
"""

import os
import shutil
import subprocess
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import index_from
from convpr.corpus import Utterance
from convpr.cqr import HqeParams, extract_keywords, hqe_rewrite
from convpr.evaluation import (
    Qrels,
    average_precision,
    evaluate_run,
    load_qrels,
    ndcg_at_k,
    recall_at_k,
)
from convpr.experiment import load_config, run_experiment
from convpr.fusion import RrfParams, rerank, rrf_fuse
from convpr.index import Bm25Params, Searcher
from convpr.runs import RankedList, read_run

FIXTURES = Path(__file__).parent / "fixtures"


def _ranked(qid, doc_ids):
    n = len(doc_ids)
    return RankedList(qid, doc_ids, [float(n - i) for i in range(n)])


def _utterances(turn_tokens):
    return [Utterance("s", i, " ".join(toks)) for i, toks in enumerate(turn_tokens, start=1)]


def test_criterion_1_bm25_oracle_equivalence():
    """retrieve_topk matches an exhaustive scorer on 200 random toy corpora."""
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    for case in range(200):
        docs = oracles.random_corpus(rng, max_docs=50)
        params = Bm25Params(k1=float(rng.uniform(0.1, 2.0)), b=float(rng.uniform(0.0, 1.0)))
        searcher = Searcher(index_from(docs), params)
        for _ in range(2):
            query = oracles.random_query(rng, max_terms=8)
            want = oracles.bm25_rank(docs, query, params.k1, params.b, k=1000)
            got = searcher.search(query, k=1000, qid="q")
            assert got.ids == [d for d, _ in want], f"case {case}: order differs"
            for entry, (_, score) in zip(got.entries, want):
                assert abs(entry.score - score) < 1e-9, f"case {case}: score diff"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 bm25-oracle-equivalence: PASS ({elapsed:.2f}s)")


def _random_session_setup(rng):
    """Corpus, session token lists and thresholds with safe margins, so a
    float-noise flip of any comparison is impossible."""
    docs = oracles.random_corpus(rng, max_docs=40, vocab_size=25)
    n_turns = int(rng.integers(1, 11))
    turns = [
        [
            f"w{int(rng.integers(0, 25))}" if rng.random() > 0.15 else f"oov{int(rng.integers(0, 4))}"
            for _ in range(int(rng.integers(1, 7)))
        ]
        for _ in range(n_turns)
    ]
    k1, b = 0.82, 0.68
    ke_values = [oracles.ke_score(docs, t, k1, b) for turn in turns for t in turn]
    r_sub = oracles.threshold_between(ke_values, rng)
    r_topic = oracles.threshold_between([v for v in ke_values if v > r_sub] or [r_sub + 1], rng)
    if r_topic <= r_sub:
        r_topic = r_sub + 1.0
    ambiguity = oracles.qpp_score(docs, turns[-1], k1, b)
    eta = oracles.threshold_between([ambiguity], rng)
    m_window = int(rng.integers(0, 13))
    return docs, turns, HqeParams(r_topic=r_topic, r_sub=r_sub, eta=eta, m_window=m_window)


def test_criterion_2_hqe_algorithm_fidelity():
    """hqe_rewrite equals an independent transcription of the expansion
    pseudocode on 100 random sessions plus forced edge cases."""
    rng = np.random.default_rng(202)
    checked = 0
    for _ in range(100):
        docs, turns, params = _random_session_setup(rng)
        searcher = Searcher(index_from(docs))
        got = hqe_rewrite(searcher, _utterances(turns), params)
        want = oracles.hqe_expand(
            docs, turns, 0.82, 0.68, params.r_topic, params.r_sub, params.eta, params.m_window
        )
        assert list(got.tokens) == want
        checked += 1

    docs = {"d1": ["apple", "pie"], "d2": ["apple", "cart"], "d3": ["rare", "gem"]}
    searcher = Searcher(index_from(docs))
    turns = [["rare", "apple"], ["pie", "oov1"], ["oov2", "gem"]]
    for eta in (0.0, 1e9):  # never / always ambiguous
        for m_window in (0, 1, 50):  # window clamps at turn 1
            for i in (1, 2, 3):  # first turn passes through
                params = HqeParams(r_topic=1.0, r_sub=0.5, eta=eta, m_window=m_window)
                got = hqe_rewrite(searcher, _utterances(turns[:i]), params)
                want = oracles.hqe_expand(docs, turns[:i], 0.82, 0.68, 1.0, 0.5, eta, m_window)
                assert list(got.tokens) == want
                if i == 1:
                    assert list(got.tokens) == turns[0]
                checked += 1
    print(f"\nACCEPTANCE 2 hqe-algorithm-fidelity: PASS ({checked} sessions)")


def test_criterion_3_hqe_structural_invariants():
    """Suffix, duplication and eta-monotonicity invariants over 1000 cases."""
    rng = np.random.default_rng(303)
    cases = 0
    for _ in range(50):
        docs, _, _ = _random_session_setup(rng)
        searcher = Searcher(index_from(docs))
        for _ in range(20):
            n_turns = int(rng.integers(1, 11))
            turns = [
                [f"w{int(rng.integers(0, 25))}" for _ in range(int(rng.integers(1, 7)))]
                for _ in range(n_turns)
            ]
            ke_values = [searcher.max_score_term(t) for turn in turns for t in turn]
            r_sub = oracles.threshold_between(ke_values, rng)
            r_topic = max(oracles.threshold_between(ke_values, rng), r_sub + 1e-3)
            eta = float(rng.uniform(0.0, 8.0))
            params = HqeParams(r_topic=r_topic, r_sub=r_sub, eta=eta, m_window=int(rng.integers(0, 12)))
            utts = _utterances(turns)
            out = list(hqe_rewrite(searcher, utts, params).tokens)

            # always ends with the raw utterance tokens
            assert out[len(out) - len(turns[-1]):] == turns[-1]

            # ambiguous turns repeat every keyword present in both sets
            if len(turns) > 1 and searcher.max_score(turns[-1]) < params.eta:
                w_topic, w_sub = extract_keywords(searcher, utts, params)
                counts = Counter(out)
                for tok in set(w_topic) & set(w_sub):
                    assert counts[tok] >= 2, (tok, out)

            # raising eta can only add tokens
            wider = HqeParams(
                r_topic=params.r_topic, r_sub=params.r_sub,
                eta=params.eta + float(rng.uniform(0.1, 5.0)), m_window=params.m_window,
            )
            out_wider = Counter(hqe_rewrite(searcher, utts, wider).tokens)
            assert all(out_wider[t] >= c for t, c in Counter(out).items())
            cases += 1
    assert cases == 1000
    print(f"\nACCEPTANCE 3 hqe-structural-invariants: PASS ({cases} cases)")


def test_criterion_4_rrf_exactness():
    """Eq-by-eq fused scores, order preservation, and Pareto dominance."""
    fused = rrf_fuse([_ranked("q", ["p", "x"]), _ranked("q", ["p", "y"])], RrfParams(60.0))
    assert abs(fused.entries[0].score - 2.0 / 61.0) < 1e-12

    single = _ranked("q", ["c", "a", "d", "b"])
    assert rrf_fuse([single]).ids == single.ids

    rng = np.random.default_rng(404)
    for case in range(500):
        doc_pool = [f"d{i}" for i in range(int(rng.integers(3, 13)))]
        lists = []
        for _ in range(int(rng.integers(2, 5))):
            perm = list(rng.permutation(doc_pool))
            lists.append(_ranked("q", perm[: int(rng.integers(1, len(doc_pool) + 1))]))
        k = float(rng.uniform(1.0, 100.0))
        fused = rrf_fuse(lists, RrfParams(k), depth=1000)
        want = oracles.rrf_rank([l.ids for l in lists], k, 1000)
        assert [(e.doc_id, e.score) for e in fused.entries] == want, f"case {case}"

        position = {e.doc_id: rank for rank, e in enumerate(fused.entries, start=1)}
        ranks = {
            doc: [l.ids.index(doc) if doc in l.doc_set() else None for l in lists]
            for doc in doc_pool
        }

        def beats(ra, rb):
            if ra is None:
                return rb is None
            return rb is None or ra < rb

        for a in doc_pool:
            if all(r is None for r in ranks[a]):
                continue
            for b in doc_pool:
                if a != b and all(beats(ra, rb) for ra, rb in zip(ranks[a], ranks[b])):
                    assert position[a] < position.get(b, len(doc_pool) + 100)
    print("\nACCEPTANCE 4 rrf-exactness: PASS (500 instances)")


def test_criterion_5_metric_oracle_equivalence():
    """AP, NDCG@k and R@k agree exactly with brute force on 500 instances."""
    rng = np.random.default_rng(505)
    for case in range(500):
        n_docs = int(rng.integers(1, 21))
        doc_pool = [f"d{i}" for i in range(n_docs)]
        run_docs = list(rng.permutation(doc_pool))[: int(rng.integers(1, n_docs + 1))]
        judged = {
            d: int(rng.integers(0, 5))
            for d in rng.choice(doc_pool, size=min(n_docs, int(rng.integers(1, 6))), replace=False)
        }
        ranked = _ranked("q", run_docs)
        qrels = Qrels({"q": judged})
        relevant = {d for d, g in judged.items() if g >= 1}

        assert average_precision(ranked, qrels) == oracles.average_precision(run_docs, relevant, 1000)
        for k in (1, 3, 5, 20):
            assert ndcg_at_k(ranked, qrels, k) == oracles.ndcg(run_docs, judged, k), (case, k)
        for k in (5, 1000):
            assert recall_at_k(ranked, qrels, k) == oracles.recall(run_docs, relevant, k)

        if relevant:
            ideal_docs = sorted(judged, key=lambda d: (-judged[d], d))
            ideal = _ranked("q", ideal_docs)
            for k in (1, 3, 5, 20):
                assert ndcg_at_k(ideal, qrels, k) == 1.0
    print("\nACCEPTANCE 5 metric-oracle-equivalence: PASS (500 instances)")


TREC_EVAL = shutil.which("trec_eval")


@pytest.mark.skipif(TREC_EVAL is None, reason="trec_eval binary not on PATH")
def test_criterion_6_trec_eval_interop(tmp_path):
    """Externally installed trec_eval agrees with internal metrics to 1e-4."""
    config = load_config(FIXTURES / "config.yaml", {"output_dir": str(tmp_path / "out")})
    result = run_experiment(config)
    qrels_path = config.qrels
    pairs = {"map": "map", "recall_1000": "recall@1000", "ndcg_cut_3": "ndcg@3"}
    for name, report in result.reports.items():
        run_path = config.output_dir / "runs" / f"{name}.run"
        proc = subprocess.run(
            [TREC_EVAL, "-m", "map", "-m", "recall.1000", "-m", "ndcg_cut.3",
             str(qrels_path), str(run_path)],
            capture_output=True, text=True, check=True,
        )
        external = {}
        for line in proc.stdout.splitlines():
            parts = line.split()
            if len(parts) == 3 and parts[1] == "all":
                external[parts[0]] = float(parts[2])
        for trec_name, ours in pairs.items():
            assert abs(external[trec_name] - report.means[ours]) < 1e-4, (name, trec_name)
    print("\nACCEPTANCE 6 trec-eval-interop: PASS")


def test_criterion_7_fusion_benefit_fixture():
    """One relevant doc is reachable only via expansion keywords, the other
    only via the rewritten query; early fusion recovers both."""
    docs = {
        "dA": ["quasar", "luminous", "core"],
        "dB": ["brightness", "measurement", "handbook"],
        "dC": ["pasta", "sauce", "recipe"],
        "dD": ["garden", "soil", "preparation"],
        "dE": ["violin", "practice", "schedule"],
        "dF": ["glacier", "melt", "survey"],
    }
    searcher = Searcher(index_from(docs))
    turns = [
        Utterance("3", 1, "quasar jets"),
        Utterance("3", 2, "what about its glow"),
    ]
    # the current turn matches nothing, so it is maximally ambiguous
    assert searcher.max_score(searcher.tokenize(turns[-1].raw_text)) == 0.0

    params = HqeParams(r_topic=1.2, r_sub=0.8, eta=5.0, m_window=3)
    hqe_query = hqe_rewrite(searcher, turns, params)
    assert "quasar" in hqe_query.tokens

    rewrite_tokens = ["brightness", "measurement", "of", "the", "glow"]
    depth = 10
    hqe_list = searcher.search(list(hqe_query.tokens), k=depth, qid="3_2")
    ntr_list = searcher.search(rewrite_tokens, k=depth, qid="3_2")
    assert hqe_list.doc_set() == {"dA"}
    assert ntr_list.doc_set() == {"dB"}

    qrels = Qrels({"3_2": {"dA": 1, "dB": 1}})
    scores = {"3_2": {"dA": 0.9, "dB": 0.7}}
    fused = rerank(rrf_fuse([hqe_list, ntr_list], RrfParams(60.0), depth), scores)

    assert recall_at_k(hqe_list, qrels, depth) == 0.5
    assert recall_at_k(ntr_list, qrels, depth) == 0.5
    assert recall_at_k(fused, qrels, depth) == 1.0
    print("\nACCEPTANCE 7 fusion-benefit-fixture: PASS")


def test_criterion_8_determinism(tmp_path):
    """Re-running the full experiment produces byte-identical artifacts."""
    snapshots = []
    for sub in ("first", "second"):
        config = load_config(FIXTURES / "config.yaml", {"output_dir": str(tmp_path / sub)})
        run_experiment(config)
        base = tmp_path / sub
        tracked = sorted(
            p for p in base.rglob("*")
            if p.is_file() and "cache" not in p.parts
        )
        snapshots.append({p.relative_to(base): p.read_bytes() for p in tracked})
    assert snapshots[0].keys() == snapshots[1].keys()
    for rel in snapshots[0]:
        assert snapshots[0][rel] == snapshots[1][rel], f"{rel} differs between runs"
    assert any(rel.suffix == ".run" for rel in snapshots[0])
    assert Path("metrics.csv") in {rel for rel in snapshots[0]}
    print(f"\nACCEPTANCE 8 determinism: PASS ({len(snapshots[0])} artifacts compared)")


CAST_DIR = os.environ.get("CONVPR_CAST_DATA_DIR")


@pytest.mark.skipif(
    not CAST_DIR,
    reason="full-collection reference check: set CONVPR_CAST_DATA_DIR "
    "(long-running; see README for the expected layout)",
)
def test_criterion_9_full_collection_reference():
    """Manual-rewrite and raw-query first-stage recall on the full collection.

    Expects CONVPR_CAST_DATA_DIR to contain collection.tsv, topics.json,
    qrels.txt and manual_rewrites.tsv. Takes hours on the ~40M passage
    collection; excluded from normal runs.
    """
    from convpr.corpus import load_passages, load_sessions
    from convpr.cqr import load_external_rewrites, raw_query
    from convpr.experiment import retrieve_all
    from convpr.index import InvertedIndex, build_index

    base = Path(CAST_DIR)
    index_dir = base / "convpr-index"
    if (index_dir / "meta.json").exists():
        index = InvertedIndex.load(index_dir)
    else:
        index = build_index(load_passages(base / "collection.tsv", "tsv"))
        index.save(index_dir)
    searcher = Searcher(index, Bm25Params())
    qrels = load_qrels(base / "qrels.txt")
    sessions = load_sessions(base / "topics.json")

    manual = load_external_rewrites(base / "manual_rewrites.tsv", index.tokenizer)
    manual_run = retrieve_all(searcher, manual.values(), 1000)
    manual_recall = evaluate_run(manual_run, qrels, ("recall@1000",)).means["recall@1000"]

    raw_queries = [raw_query(u, index.tokenizer) for s in sessions for u in s.utterances]
    raw_run = retrieve_all(searcher, raw_queries, 1000)
    raw_recall = evaluate_run(raw_run, qrels, ("recall@1000",)).means["recall@1000"]

    assert abs(manual_recall - 0.801) <= 0.03, manual_recall
    assert abs(raw_recall - 0.418) <= 0.03, raw_recall
    print(
        f"\nACCEPTANCE 9 full-collection-reference: PASS "
        f"(manual R@1000={manual_recall:.3f}, raw R@1000={raw_recall:.3f})"
    )
