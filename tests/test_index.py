import json
import tempfile
import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import index_from, passages_from
from convpr import index as index_mod
from convpr.corpus import Passage
from convpr.index import Bm25Params, InvertedIndex, Searcher, build_index
from convpr.tokenization import TokenizerConfig

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
    # a non-finite k1 would score every document NaN or 0 and return nothing
    for k1 in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="k1 must be finite and >= 0"):
            Bm25Params(k1=k1)
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
            docid_rank=index.docid_rank,
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
    for passages in ([], iter([]), (p for p in [])):
        with pytest.raises(ValueError, match="empty"):
            build_index(passages)


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


def _files(path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def _texts(n: int, rng) -> list[str]:
    words = "red green blue cat dog bird sat ran on the mat".split()
    return [" ".join(rng.choice(words, size=int(rng.integers(0, 9)))) for _ in range(n)]


def _block_corpora(block: int) -> dict[str, tuple[list[Passage], TokenizerConfig]]:
    """Corpora that put block boundaries in the awkward places for a block
    of ``block`` passages."""
    rng = np.random.default_rng(block)
    plain = TokenizerConfig()
    corpora = {
        f"random{i}": (passages_from(oracles.random_corpus(rng, max_docs=60)), plain) for i in range(3)
    }
    # The first block holds only empty passages; more sit inside later blocks.
    texts = [""] * block + ["alpha beta alpha", "", "beta", ""] + _texts(block, rng) + [""]
    corpora["empty"] = ([Passage(f"e{i}", t) for i, t in enumerate(texts)], plain)
    texts = _texts(2 * block + 1, rng) + ["red newcomer newcomer"]
    corpora["new-term-last"] = ([Passage(f"n{i}", t) for i, t in enumerate(texts)], plain)
    texts = _texts(3 * block, rng)
    corpora["whole-blocks"] = ([Passage(f"w{i}", t) for i, t in enumerate(texts)], plain)
    corpora["one"] = ([Passage("only", "one passage, one term twice: passage")], plain)
    sentences = ["The cats are running to the rivers", "A runner ran and is running", "rivers of the cat"]
    texts = [sentences[i % 3] for i in range(2 * block + 2)]
    corpora["analyzed"] = (
        [Passage(f"s{i}", t) for i, t in enumerate(texts)],
        TokenizerConfig(stem=True, remove_stopwords=True),
    )
    return corpora


@pytest.mark.parametrize("block", [1, 2, 3, 7, index_mod._BLOCK_PASSAGES])
def test_block_build_matches_reference_byte_for_byte(tmp_path, monkeypatch, block):
    monkeypatch.setattr(index_mod, "_BLOCK_PASSAGES", block)
    for name, (passages, tokenizer) in _block_corpora(block).items():
        build_index(iter(passages), tokenizer).save(tmp_path / name / "block")
        oracles.reference_index(passages, tokenizer).save(tmp_path / name / "reference")
        assert _files(tmp_path / name / "block") == _files(tmp_path / name / "reference"), name


def test_build_pulls_each_passage_once():
    passages = passages_from(oracles.random_corpus(np.random.default_rng(3), max_docs=40))
    pulled = []

    def stream():
        for passage in passages:
            pulled.append(passage.doc_id)
            yield passage

    index = build_index(stream())
    assert pulled == index.doc_ids == [p.doc_id for p in passages]


def _random_passages(n: int, seed: int) -> list[Passage]:
    rng = np.random.default_rng(seed)
    return [
        Passage(f"p{i}", " ".join(f"w{w}" for w in rng.integers(0, 3000, size=int(rng.integers(20, 60)))))
        for i in range(n)
    ]


def test_build_transient_memory_does_not_grow_with_the_postings(monkeypatch):
    # The tracemalloc peak of a build minus what its index keeps is the
    # memory the build held only while it ran. Holding every inverted block
    # until the end costs ~13 B per posting here; spilled blocks leave one
    # block plus per-passage lists (doc ids, lengths, the id sort).
    monkeypatch.setattr(index_mod, "_BLOCK_PASSAGES", 16)
    gaps, postings = [], []
    for n in (2000, 8000):
        passages = _random_passages(n, seed=n)
        tracemalloc.start()
        try:
            index = build_index(iter(passages))
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        gaps.append(peak - kept)
        postings.append(int(index.offsets[-1]))
        del index
    per_posting = (gaps[1] - gaps[0]) / (postings[1] - postings[0])
    assert per_posting < 2.0, (gaps, postings)


def test_spill_file_is_closed_on_every_exit(monkeypatch):
    opened = []
    make = tempfile.TemporaryFile

    def recording(*args, **kwargs):
        opened.append(make(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(tempfile, "TemporaryFile", recording)
    index_from(TOY)
    with pytest.raises(ValueError, match="empty"):
        build_index([])

    monkeypatch.setattr(index_mod, "_BLOCK_PASSAGES", 2)
    blocks = []
    invert = index_mod._invert_block

    def counting(*args):
        blocks.append(invert(*args))
        return blocks[-1]

    monkeypatch.setattr(index_mod, "_invert_block", counting)

    def failing():
        for i in range(4):
            yield Passage(f"d{i}", "cat sat")
        raise OSError("corpus read failed")

    with pytest.raises(OSError, match="corpus read failed"):
        build_index(failing())
    assert len(blocks) == 2  # both spilled before the failure
    assert len(opened) == 3 and all(fh.closed for fh in opened)


def test_integer_tfs_score_bitwise_like_float64(kernel):
    rng = np.random.default_rng(23)
    docs = oracles.random_corpus(rng, max_docs=60)
    docs["long"] = ["w1"] * 300 + ["w2"]
    for corpus, dtype in ((oracles.random_corpus(rng, max_docs=60), np.uint8), (docs, np.uint16)):
        index = index_from(corpus)
        assert index.tfs.dtype == dtype
        as_float = InvertedIndex(
            terms=index.terms,
            doc_ids=index.doc_ids,
            offsets=index.offsets,
            doc_ords=index.doc_ords,
            tfs=index.tfs.astype(np.float64),
            doc_lengths=index.doc_lengths,
            docid_rank=index.docid_rank,
            avg_doc_len=index.avg_doc_len,
            tokenizer=index.tokenizer,
        )
        ints, floats = Searcher(index), Searcher(as_float)
        for _ in range(30):
            query = oracles.random_query(rng)
            got, want = ints.search(query, k=1000, qid="q"), floats.search(query, k=1000, qid="q")
            assert got.ids == want.ids
            assert got.scores.tobytes() == want.scores.tobytes()
        for term in index.terms:
            assert np.float64(ints.max_score_term(term)).tobytes() == np.float64(
                floats.max_score_term(term)
            ).tobytes()


def _score_postings_reference(starts, ends, weights, doc_ords, tfs, len_norm, scores) -> None:
    """The kernel as a fancy-index `+=` over the int32 slices: the
    expression the `np.add.at` kernel must match bit for bit."""
    for t in range(starts.shape[0]):
        s, e = starts[t], ends[t]
        d = doc_ords[s:e]
        tf = tfs[s:e].astype(np.float64)
        scores[d] += weights[t] * tf / (tf + len_norm[d])


@pytest.mark.parametrize("tf_dtype", [np.uint8, np.uint16])
def test_score_postings_matches_fancy_index_add_bytewise(kernel, tf_dtype):
    rng = np.random.default_rng(41)
    n_docs = 500
    # Posting lists of 0, 1 and up to n_docs postings, ordinals ascending.
    sizes = [0, 1, 0, 1, 2, n_docs, *rng.integers(0, n_docs, size=40).tolist()]
    lists = [np.sort(rng.choice(n_docs, size=size, replace=False)) for size in sizes]
    offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    doc_ords = np.concatenate(lists).astype(np.int32)
    tfs = rng.integers(1, np.iinfo(tf_dtype).max, size=len(doc_ords), endpoint=True).astype(tf_dtype)
    len_norm = rng.uniform(0.05, 3.0, size=n_docs)
    for trial in range(60):
        # Terms 0-3 are the empty and one-posting lists; a repeat lists a
        # term twice, as a query that repeats a token would if it were not
        # folded into one weight.
        terms = rng.choice(len(sizes), size=int(rng.integers(1, 12)))
        if trial % 3 == 0:
            terms = np.concatenate((terms, terms[:1], [trial % 4]))
        starts, ends = offsets[terms], offsets[terms + 1]
        weights = rng.uniform(0.0, 20.0, size=len(terms))
        base = np.zeros(n_docs) if trial % 2 else rng.uniform(0.0, 5.0, size=n_docs)
        got, want = base.copy(), base.copy()
        index_mod._bm25.score_postings(starts, ends, weights, doc_ords, tfs, len_norm, got)
        _score_postings_reference(starts, ends, weights, doc_ords, tfs, len_norm, want)
        assert got.tobytes() == want.tobytes()
    for t in range(len(sizes)):
        s, e = offsets[t], offsets[t + 1]
        want = 0.0
        if e > s:
            d, tf = doc_ords[s:e], tfs[s:e].astype(np.float64)
            want = float((7.5 * tf / (tf + len_norm[d])).max())
        got = index_mod._bm25.max_posting_score(int(s), int(e), 7.5, doc_ords, tfs, len_norm)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("tf_dtype", [np.uint8, np.uint16, np.float64])
def test_kernels_leave_their_inputs_unchanged(kernel, tf_dtype):
    # The kernels compute in place on per-slice copies; arithmetic on a view
    # of the index arrays instead would corrupt the index without an error.
    rng = np.random.default_rng(5)
    n_docs = 300
    sizes = [0, 1, n_docs, *rng.integers(0, n_docs, size=20).tolist()]
    lists = [np.sort(rng.choice(n_docs, size=size, replace=False)) for size in sizes]
    offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    doc_ords = np.concatenate(lists).astype(np.int32)
    tfs = rng.integers(1, 200, size=len(doc_ords)).astype(tf_dtype)
    len_norm = rng.uniform(0.05, 3.0, size=n_docs)
    terms = np.arange(len(sizes))
    starts, ends = offsets[terms], offsets[terms + 1]
    weights = rng.uniform(0.5, 20.0, size=len(terms))
    inputs = {"doc_ords": doc_ords, "tfs": tfs, "len_norm": len_norm, "weights": weights,
              "starts": starts, "ends": ends}
    before = {name: (a.dtype, a.tobytes()) for name, a in inputs.items()}
    scores = np.zeros(n_docs)
    index_mod._bm25.score_postings(starts, ends, weights, doc_ords, tfs, len_norm, scores)
    assert scores.any()
    for t in terms:
        index_mod._bm25.max_posting_score(int(starts[t]), int(ends[t]), float(weights[t]),
                                          doc_ords, tfs, len_norm)
    assert {name: (a.dtype, a.tobytes()) for name, a in inputs.items()} == before


def test_search_breaks_ties_in_python_string_order(kernel):
    # numpy's fixed-width strings drop trailing NULs, so it sees "a" and
    # "a\x00" as equal; "\uffff" sorts after "\U00010000" in UTF-16.
    # Python compares code points: every id here is distinct and ordered.
    tied = {"a", "a\x00", "a\x00\x00", "a\x00b", "b\x00", "b", "\xe9", "e\u0301",
            "\u0130", "\uffff", "\U00010000", "\U0001f600", "\x00", "z"}
    rng = np.random.default_rng(7)
    alphabet = ["a", "b", "\x00", "\xe9", "\uffff", "\U00010000"]
    while len(tied) < 80:
        tied.add("".join(rng.choice(alphabet, size=int(rng.integers(1, 5)))))
    docs = {"hi": ["tie", "tie"]}
    # Reverse Python order, so ordinal order is no help.
    docs.update((doc_id, ["tie", "pad"]) for doc_id in sorted(tied, reverse=True))
    docs["lo"] = ["tie", "pad", "pad", "pad"]
    searcher = Searcher(index_from(docs))
    ranked = ["hi", *sorted(tied), "lo"]
    full = searcher.search(["tie"], k=1000, qid="q")
    assert full.ids == ranked
    assert full.scores[0] > full.scores[1] == full.scores[80] > full.scores[81]
    for k in (1, 2, 3, 5, 8, 17, 40, 80, 81, 82, 100):
        got = searcher.search(["tie"], k=k, qid="q")
        assert got.ids == ranked[:k], k
        assert got.scores.tobytes() == full.scores[:k].tobytes()


def _tie_heavy_corpus(rng) -> dict[str, list[str]]:
    """Passages of 1-3 tokens over a 3-word vocabulary, so lengths, tfs and
    scores repeat; some ids differ only by trailing NULs. Inserted in
    reverse Python order, so ordinal order is the reverse of id order."""
    n, ids = int(rng.integers(20, 70)), set()
    while len(ids) < n:
        ids.add(f"p{int(rng.integers(0, 40))}" + "\x00" * int(rng.integers(0, 3)))
    return {
        doc_id: [f"w{int(w)}" for w in rng.integers(0, 3, size=int(rng.integers(1, 4)))]
        for doc_id in sorted(ids, reverse=True)
    }


def test_search_equals_sorted_scores_on_tie_heavy_corpora(kernel):
    rng = np.random.default_rng(2024)
    cuts = ties_at_cut = 0
    for _ in range(6):
        searcher = Searcher(index_from(_tie_heavy_corpus(rng)))
        doc_ids = searcher.index.doc_ids
        n = len(doc_ids)
        for query in (["w0"], ["w1", "w2"], ["w0", "w0", "w2"], ["w2", "w1", "w0", "oov"]):
            scores = searcher._score_all(query)
            order = sorted(np.flatnonzero(scores > 0.0).tolist(), key=lambda d: (-scores[d], doc_ids[d]))
            want_ids = [doc_ids[d] for d in order]
            want_scores = scores[np.asarray(order, dtype=np.intp)]
            for k in range(1, n + 2):
                got = searcher.search(query, k=k, qid="q")
                assert got.ids == want_ids[:k], (query, k)
                assert got.scores.tobytes() == want_scores[:k].tobytes(), (query, k)
                if k < len(order):
                    cuts += 1
                    ties_at_cut += bool(want_scores[k - 1] == want_scores[k])
    # Most cuts fall inside a run of tied scores: the case the sort must get right.
    assert ties_at_cut > cuts / 2, (ties_at_cut, cuts)


def _with_last(a: np.ndarray, value) -> np.ndarray:
    a = a.copy()
    a[-1] = value
    return a


@pytest.mark.parametrize(
    "name,tamper,message",
    [
        ("tfs", lambda a: np.concatenate([a, np.ones(7, a.dtype)]), "holds 9 postings and tfs.npy 16"),
        ("tfs", lambda a: a[:-1], "holds 9 postings and tfs.npy 8"),
        ("tfs", lambda a: a.astype(np.float64), "tfs.npy must be a 1-d unsigned integer array"),
        ("doc_ords", lambda a: _with_last(a, 3), "ordinal outside 0..2"),
        ("doc_ords", lambda a: _with_last(a, -1), "ordinal outside 0..2"),
        ("doc_ords", lambda a: a.astype(np.int64), "doc_ords.npy must be a 1-d int32 array"),
        ("offsets", lambda a: a[:-1], "offsets.npy holds 8 entries for 8 terms"),
        ("offsets", lambda a: a + 1, "must start at 0"),
        ("offsets", lambda a: _with_last(a, a[-2] - 1), "never decrease"),
        ("doc_lengths", lambda a: a[:2], "doc_lengths.npy holds 2 entries for 3 passages"),
        ("docid_rank", lambda a: np.zeros_like(a), "not a permutation"),
        ("docid_rank", lambda a: _with_last(a, 3), "rank outside 0..2"),
        ("docid_rank", lambda a: a[:2], "docid_rank.npy holds 2 entries"),
        ("docid_rank", lambda a: a.reshape(1, 3), "must be a 1-d int32 array, got 2-d int32"),
    ],
)
def test_load_rejects_inconsistent_arrays(tmp_path, name, tamper, message):
    index_from(TOY).save(tmp_path)
    path = tmp_path / f"{name}.npy"
    np.save(path, tamper(np.load(path)))
    with pytest.raises(ValueError, match=message) as exc:
        InvertedIndex.load(tmp_path)
    assert str(exc.value).startswith(f"{tmp_path}: ")


@pytest.mark.parametrize(
    "tamper,message",
    [
        (lambda m: m.pop("avg_doc_len"), "meta.json lacks 'avg_doc_len'"),
        (lambda m: m.pop("doc_count"), "meta.json lacks 'doc_count'"),
        (lambda m: m.pop("vocab_size"), "meta.json lacks 'vocab_size'"),
        (lambda m: m["tokenizer"].update(stem="false"), "tokenizer.stem must be true or false"),
        (lambda m: m["tokenizer"].update(remove_stopwords=0), "tokenizer.remove_stopwords must be"),
        (lambda m: m.update(tokenizer="stem"), "tokenizer must be a mapping"),
        (lambda m: m.update(tokenizer=None), "tokenizer must be a mapping"),
    ],
)
def test_load_rejects_incomplete_meta(tmp_path, tamper, message):
    index_from(TOY).save(tmp_path)
    path = tmp_path / "meta.json"
    meta = json.loads(path.read_text(encoding="utf-8"))
    tamper(meta)
    path.write_text(json.dumps(meta), encoding="utf-8")
    with pytest.raises(ValueError, match=message) as exc:
        InvertedIndex.load(tmp_path)
    assert str(exc.value).startswith(f"{tmp_path}: ")


@pytest.mark.parametrize("meta", ['{"format": "other"}', '["convpr.index", 2]'])
def test_load_rejects_foreign_directory(tmp_path, meta):
    (tmp_path / "meta.json").write_text(meta, encoding="utf-8")
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
        assert got.ids == [d for d, _ in want]
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
    assert got.ids == [d for d, _ in want]


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
        assert got.ids == [d for d, _ in want], k
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
    assert searcher.search(["same"], k=10, qid="q").ids == ["a", "m", "z"]


def test_index_uses_its_own_tokenizer():
    from convpr.tokenization import TokenizerConfig

    index = build_index(
        [Passage("d1", "the running cats")], TokenizerConfig(stem=True, remove_stopwords=True)
    )
    assert index.tokenize("The running cats") == ["run", "cat"]
    assert index.df("run") == 1
