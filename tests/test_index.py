import numpy as np
import pytest

import oracles
from conftest import index_from, passages_from
from convpr.corpus import Passage
from convpr.index import Bm25Params, InvertedIndex, Searcher, build_index

TOY = {
    "d1": ["cat", "sat", "on", "mat"],
    "d2": ["dog", "chased", "cat", "cat"],
    "d3": ["bird", "sang"],
}


def _score(searcher: Searcher, tokens: list[str], doc_id: str) -> float:
    """One doc's score, read from a search that ranks the whole collection;
    0.0 when the doc does not match. A doc id the index lacks is an error,
    so a mistyped id cannot read as 0.0."""
    if doc_id not in searcher.index.doc_ids:
        raise ValueError(f"unknown doc_id {doc_id!r}")
    result = searcher.search(tokens, k=searcher.index.doc_count, qid="q")
    return dict(result.entries).get(doc_id, 0.0)


def test_bm25_params_validated():
    with pytest.raises(ValueError):
        Bm25Params(k1=-0.1)
    with pytest.raises(ValueError):
        Bm25Params(b=1.5)
    assert (Bm25Params.k1, Bm25Params.b) == (0.82, 0.68)


def test_stored_average_length_must_match_lengths():
    index = index_from(TOY)
    with pytest.raises(ValueError, match="avg_doc_len"):
        InvertedIndex(
            terms=index.terms,
            doc_ids=index.doc_ids,
            offsets=index.offsets,
            doc_ords=index.doc_ords,
            tfs=index.tfs,
            doc_lengths=index.doc_lengths,
            avg_doc_len=index.avg_doc_len + 1e-6,
            tokenizer=index.tokenizer,
        )


def test_build_statistics():
    index = index_from(TOY)
    assert index.doc_count == 3
    assert index.avg_doc_len == pytest.approx((4 + 4 + 2) / 3)
    assert index.df("cat") == 2
    assert index.df("missing") == 0


def test_repeated_term_reflected_in_tf():
    index = index_from(TOY)
    searcher = Searcher(index)
    # d2 holds "cat" twice; same length as d1, so saturation alone decides.
    assert _score(searcher, ["cat"], "d2") > _score(searcher, ["cat"], "d1")


def test_empty_collection_rejected():
    with pytest.raises(ValueError, match="empty"):
        build_index([])


def test_rebuild_is_byte_identical(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    index_from(TOY).save(a_dir)
    index_from(TOY).save(b_dir)
    files = sorted(p.name for p in a_dir.iterdir())
    assert files == sorted(p.name for p in b_dir.iterdir())
    for name in files:
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes(), name


def test_save_load_round_trip_preserves_results(tmp_path, kernel):
    rng = np.random.default_rng(7)
    docs = oracles.random_corpus(rng, max_docs=30)
    index = index_from(docs)
    index.save(tmp_path / "idx")
    reloaded = InvertedIndex.load(tmp_path / "idx")
    s1, s2 = Searcher(index), Searcher(reloaded)
    for _ in range(20):
        query = oracles.random_query(rng)
        r1, r2 = s1.search(query, k=10, qid="q"), s2.search(query, k=10, qid="q")
        assert r1.entries == r2.entries


def test_load_rejects_foreign_directory(tmp_path):
    (tmp_path / "meta.json").write_text('{"format": "other"}', encoding="utf-8")
    with pytest.raises(ValueError, match="not a convpr.index"):
        InvertedIndex.load(tmp_path)


def test_score_zero_without_overlap(kernel):
    searcher = Searcher(index_from(TOY))
    assert _score(searcher, ["zebra", "xylophone"], "d1") == 0.0
    assert searcher.search(["zebra", "xylophone"], k=3, qid="q").entries == []


def test_score_linear_in_query_multiplicity(kernel):
    searcher = Searcher(index_from(TOY))
    single = _score(searcher, ["cat"], "d1")
    assert _score(searcher, ["cat", "cat"], "d1") == 2.0 * single


def test_score_unknown_doc_is_an_error():
    searcher = Searcher(index_from(TOY))
    with pytest.raises(ValueError, match="unknown doc_id"):
        _score(searcher, ["cat"], "nope")


def test_score_matches_oracle_on_toy_corpus(kernel):
    params = Bm25Params()
    searcher = Searcher(index_from(TOY), params)
    for doc_id in TOY:
        got = _score(searcher, ["cat"], doc_id)
        want = oracles.bm25_score(TOY, ["cat"], doc_id, params.k1, params.b)
        assert got == pytest.approx(want, abs=1e-12)


def test_search_respects_matching_subset(kernel):
    docs = {f"d{i:03d}": ["filler", f"u{i}"] for i in range(100)}
    docs["d000"] = ["special", "filler"]
    docs["d001"] = ["special", "filler"]
    searcher = Searcher(index_from(docs))
    result = searcher.search(["special"], k=1000, qid="q")
    assert len(result) == 2
    assert searcher.search(["absent"], k=1000, qid="q").entries == []


def test_search_matches_oracle_ranking(kernel):
    rng = np.random.default_rng(11)
    params = Bm25Params(k1=1.2, b=0.4)
    for _ in range(25):
        docs = oracles.random_corpus(rng, max_docs=40)
        searcher = Searcher(index_from(docs), params)
        query = oracles.random_query(rng)
        want = oracles.bm25_rank(docs, query, params.k1, params.b, k=1000)
        got = searcher.search(query, k=1000, qid="q")
        assert got.doc_ids() == [d for d, _ in want]
        for entry, (_, score) in zip(got.entries, want):
            assert entry.score == pytest.approx(score, abs=1e-9)


def test_search_k1_is_oracle_argmax(kernel):
    rng = np.random.default_rng(13)
    docs = oracles.random_corpus(rng, max_docs=30)
    params = Bm25Params()
    searcher = Searcher(index_from(docs), params)
    query = ["w1", "w2", "w3"]
    want = oracles.bm25_rank(docs, query, params.k1, params.b, k=1)
    got = searcher.search(query, k=1, qid="q")
    assert got.doc_ids() == [d for d, _ in want]


def test_search_prefix_consistency(kernel):
    rng = np.random.default_rng(17)
    docs = oracles.random_corpus(rng, max_docs=40)
    searcher = Searcher(index_from(docs))
    query = oracles.random_query(rng)
    full = searcher.search(query, k=50, qid="q")
    for k in (1, 3, 10):
        assert searcher.search(query, k=k, qid="q").entries == full.entries[:k]


def test_search_keeps_ties_across_the_k_boundary(kernel):
    # Inserted in descending doc_id order, so ordinal order is the reverse
    # of the doc_id order that breaks ties. Equal length and tf make the ten
    # "t" docs tie exactly; two docs score above them and two below.
    docs = {"z1": ["tie", "tie"], "z0": ["tie", "tie"]}
    docs.update({f"t{i:02d}": ["tie", "pad"] for i in range(9, -1, -1)})
    docs.update(b1=["tie", "pad", "pad", "pad"], b0=["tie", "pad", "pad", "pad"], a0=["pad", "pad"])
    params = Bm25Params()
    searcher = Searcher(index_from(docs), params)
    full = searcher.search(["tie"], k=1000, qid="q")
    assert len(full) == 14
    for k in (1, 2, 3, 7, 11, 12, 13, 14, 15, 100):
        want = oracles.bm25_rank(docs, ["tie"], params.k1, params.b, k=k)
        got = searcher.search(["tie"], k=k, qid="q")
        assert got.doc_ids() == [d for d, _ in want], k
        assert [e.score for e in got.entries] == pytest.approx([s for _, s in want], abs=1e-12)
        assert got.entries == full.entries[:k]


def test_search_requires_positive_k():
    searcher = Searcher(index_from(TOY))
    with pytest.raises(ValueError, match="k must be >= 1"):
        searcher.search(["cat"], k=0)


def test_max_score_term_unindexed_is_zero(kernel):
    searcher = Searcher(index_from(TOY))
    assert searcher.max_score_term("zzz") == 0.0


def test_max_score_term_equals_top1_and_oracle(kernel):
    params = Bm25Params()
    searcher = Searcher(index_from(TOY), params)
    for term in ("cat", "dog", "bird", "sat"):
        value = searcher.max_score_term(term)
        top = searcher.search([term], k=1, qid="q")
        assert value == top.entries[0].score
        assert value == pytest.approx(oracles.ke_score(TOY, term, params.k1, params.b), abs=1e-12)
        # definitional identity with the utterance-level max
        assert value == searcher.max_score([term])


def test_max_score_term_cache_consistent(kernel):
    searcher = Searcher(index_from(TOY))
    first = searcher.max_score_term("cat")
    assert searcher.max_score_term("cat") == first


def test_max_score_empty_stream_is_zero(kernel):
    searcher = Searcher(index_from(TOY))
    assert searcher.max_score([]) == 0.0


def test_max_score_matches_oracle(kernel):
    rng = np.random.default_rng(19)
    params = Bm25Params()
    for _ in range(20):
        docs = oracles.random_corpus(rng, max_docs=25)
        searcher = Searcher(index_from(docs), params)
        query = oracles.random_query(rng)
        want = oracles.qpp_score(docs, query, params.k1, params.b)
        assert searcher.max_score(query) == pytest.approx(want, abs=1e-9)


def test_score_additive_over_query_partition(kernel):
    searcher = Searcher(index_from(TOY))
    q1, q2 = ["cat", "sat"], ["cat", "dog", "mat"]
    combined = _score(searcher, q1 + q2, "d1")
    assert combined == pytest.approx(_score(searcher, q1, "d1") + _score(searcher, q2, "d1"), rel=1e-12)


def test_tf_saturation_monotone(kernel):
    # same length, same df; only the tf of "cat" differs
    docs = {
        "a": ["cat", "pad", "pad", "pad"],
        "b": ["cat", "cat", "pad", "pad"],
        "c": ["cat", "cat", "cat", "pad"],
    }
    searcher = Searcher(index_from(docs))
    scores = [_score(searcher, ["cat"], d) for d in ("a", "b", "c")]
    assert scores[0] < scores[1] < scores[2]


def test_docid_tiebreak_is_ascending(kernel):
    docs = {"z": ["same"], "a": ["same"], "m": ["same"]}
    searcher = Searcher(index_from(docs))
    assert searcher.search(["same"], k=10, qid="q").doc_ids() == ["a", "m", "z"]


def test_index_uses_its_own_tokenizer():
    from convpr.tokenization import TokenizerConfig

    index = build_index(
        [Passage("d1", "the running cats")], TokenizerConfig(stem=True, remove_stopwords=True)
    )
    assert index.tokenize("The running cats") == ["run", "cat"]
    assert index.df("run") == 1
