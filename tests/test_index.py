import hashlib
import json
import tempfile
import tracemalloc
import warnings
from typing import NamedTuple

import numpy as np
import pytest

import oracles
from conftest import index_from, passages_from
from convpr import index as index_mod
from convpr.corpus import Passage
from convpr._bm25 import TfGroups
from convpr.index import Bm25Params, InvertedIndex, Searcher, build_index
from convpr.runs import RankedList, RunFileWarning
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


def _wide(index: InvertedIndex, tfs_dtype=np.int32) -> InvertedIndex:
    """``index`` with its arrays in int64 (group bounds, doc lengths), int32
    (ordinals) and ``tfs_dtype``, as a caller might build it."""
    return InvertedIndex(
        term_ids=index.term_ids,
        doc_ids=index.doc_ids,
        term_groups=index.term_groups.astype(np.int64),
        group_offsets=index.group_offsets.astype(np.int64),
        group_tfs=index.group_tfs.astype(tfs_dtype),
        doc_ords=index.doc_ords.astype(np.int32),
        doc_lengths=index.doc_lengths.astype(np.int64),
        tokenizer=index.tokenizer,
    )


def _boundary_passages(n: int) -> list[Passage]:
    """``n`` passages whose five bounds all equal ``n - 1``: passage ``i``
    holds one term ``i`` times, so there are ``n - 1`` postings, each in a
    group of its own, the largest tf and the longest passage are ``n - 1``,
    and so is the largest ordinal."""
    return [Passage(f"p{i:03d}", " ".join(["t"] * i)) for i in range(n)]


@pytest.mark.parametrize("n,dtype", [(256, np.uint8), (257, np.uint16)])
def test_every_array_takes_the_smallest_unsigned_dtype(tmp_path, kernel, n, dtype):
    index = build_index(_boundary_passages(n))
    bounds = (
        index.doc_count - 1, len(index.doc_ords), len(index.group_tfs), index.group_tfs.max(),
        index.doc_lengths.max(),
    )
    assert bounds == (n - 1,) * 5
    assert {name: getattr(index, name).dtype for name in index_mod._ARRAYS} == dict.fromkeys(
        index_mod._ARRAYS, dtype
    )
    index.save(tmp_path / "built")
    loaded = InvertedIndex.load(tmp_path / "built")
    assert all(getattr(loaded, name).dtype == dtype for name in index_mod._ARRAYS)
    # save narrows: the same index in int32 and int64 arrays saves the same bytes
    _wide(index).save(tmp_path / "wide")
    assert _files(tmp_path / "wide") == _files(tmp_path / "built")
    got, want = Searcher(loaded).search(["t"], k=n), Searcher(_wide(index)).search(["t"], k=n)
    assert got.ids == want.ids and len(got) == n - 1
    assert got.scores.tobytes() == want.scores.tobytes()


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
    # Descending ids: every block's ordinals are the reverse of its stream order.
    texts = _texts(2 * block + 3, rng)
    corpora["descending"] = ([Passage(f"r{len(texts) - i:04d}", t) for i, t in enumerate(texts)], plain)
    sentences = ["The cats are running to the rivers", "A runner ran and is running", "rivers of the cat"]
    texts = [sentences[i % 3] for i in range(2 * block + 2)]
    corpora["analyzed"] = (
        [Passage(f"s{i}", t) for i, t in enumerate(texts)],
        TokenizerConfig(stem=True, remove_stopwords=True),
    )
    return corpora


@pytest.mark.parametrize("sort", [1, 5, index_mod._SORT_POSTINGS])
@pytest.mark.parametrize("block", [1, 2, 3, 7, index_mod._BLOCK_PASSAGES])
def test_block_build_matches_reference_byte_for_byte(tmp_path, monkeypatch, block, sort):
    # Sorting runs of at most 1 or 5 postings sorts most terms alone.
    monkeypatch.setattr(index_mod, "_BLOCK_PASSAGES", block)
    monkeypatch.setattr(index_mod, "_SORT_POSTINGS", sort)
    for name, (passages, tokenizer) in _block_corpora(block).items():
        build_index(iter(passages), tokenizer).save(tmp_path / name / "block")
        oracles.reference_index(passages, tokenizer).save(tmp_path / name / "reference")
        assert _files(tmp_path / name / "block") == _files(tmp_path / name / "reference"), name


def test_group_by_tf_shortens_runs_whose_keys_would_not_fit_in_64_bits():
    # A run of n terms packs keys below (n * (max tf + 1)) << bits(passages - 1).
    # With 2**62 passages and tfs of 1, two terms fill the 64 bits exactly
    # and a third would wrap; with 2**62 + 1 passages one term fills them.
    vocab = 7
    offsets = np.arange(0, 2 * vocab + 1, 2, dtype=np.int64)
    doc_ords = np.tile(np.array([1, 0], dtype=np.uint8), vocab)
    tfs = np.ones(2 * vocab, dtype=np.uint8)
    want_ords = np.tile(np.array([0, 1], dtype=np.uint8), vocab)
    runs = []
    group_run = index_mod._group_run

    def recording(run_offsets, *args):
        runs.append(len(run_offsets) - 1)
        return group_run(run_offsets, *args)

    for doc_count, run_terms in ((2, vocab), (2**62, 2), (2**62 + 1, 1)):
        runs.clear()
        ords = doc_ords.copy()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(index_mod, "_group_run", recording)
            term_groups, group_offsets, group_tfs = index_mod._group_by_tf(offsets, ords, tfs, doc_count)
        assert max(runs) == run_terms and sum(runs) == vocab, (doc_count, runs)
        assert ords.tolist() == want_ords.tolist(), doc_count
        assert term_groups.tolist() == list(range(vocab + 1))
        assert group_offsets.tolist() == offsets.tolist() and group_tfs.tolist() == [1] * vocab


def test_build_pulls_each_passage_once():
    passages = passages_from(oracles.random_corpus(np.random.default_rng(3), max_docs=40))
    pulled = []

    def stream():
        for passage in passages:
            pulled.append(passage.doc_id)
            yield passage

    index = build_index(stream())
    assert pulled == index.doc_ids.tolist() == [p.doc_id for p in passages]


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
    # block plus per-passage lists (doc ids, lengths, the id sort) and the
    # per-posting tfs, 1 B each, which the index replaces by its tf groups.
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
    # The kernels, search and max_score_term take every array as it is: the
    # narrow unsigned arrays of build_index give the same bits as wide ones
    # with float64 term frequencies.
    rng = np.random.default_rng(23)
    docs = oracles.random_corpus(rng, max_docs=60)
    docs["long"] = ["w1"] * 300 + ["w2"]
    for corpus, dtype in ((oracles.random_corpus(rng, max_docs=60), np.uint8), (docs, np.uint16)):
        index = index_from(corpus)
        assert index.group_tfs.dtype == index.doc_lengths.dtype == dtype
        assert index.doc_ords.dtype == np.uint8
        ints, floats = Searcher(index), Searcher(_wide(index, np.float64))
        for _ in range(30):
            query = oracles.random_query(rng)
            got, want = ints.search(query, k=1000, qid="q"), floats.search(query, k=1000, qid="q")
            assert got.ids == want.ids
            assert got.scores.tobytes() == want.scores.tobytes()
        for term in index.term_ids:
            assert np.float64(ints.max_score_term(term)).tobytes() == np.float64(
                floats.max_score_term(term)
            ).tobytes()


class _Postings(NamedTuple):
    """Posting lists as an index stores them, ordered by (tf, ordinal)
    within a term and grouped by tf, with each posting's tf as well."""

    offsets: np.ndarray
    doc_ords: np.ndarray
    tfs: np.ndarray
    term_groups: np.ndarray
    group_offsets: np.ndarray
    group_tfs: np.ndarray

    def groups(self, terms: np.ndarray) -> TfGroups:
        """The kernel's tf groups of ``terms``, as a Searcher passes them."""
        sizes, tfs = np.diff(self.group_offsets.astype(np.intp)), self.group_tfs.astype(np.float64)
        return TfGroups(self.term_groups[terms], self.term_groups[terms + 1], sizes, tfs)


def _postings(rng, sizes, n_docs: int, ord_dtype, tf_dtype, bound_dtype=None) -> _Postings:
    """Lists of ``sizes`` postings over ``n_docs`` passages, most of tf 1 and
    the rest drawn up to the largest ``tf_dtype`` value (1000 for a float),
    so groups of one posting and long ones both occur. Offsets and group
    bounds take ``bound_dtype``, else the smallest dtype of their bound."""
    top = 1000 if np.dtype(tf_dtype).kind == "f" else np.iinfo(tf_dtype).max
    docs, tfs, term_groups, group_offsets, group_tfs = [], [], [0], [0], []
    for size in sizes:
        d = rng.choice(n_docs, size=size, replace=False)
        tf = rng.integers(1, top, size=size, endpoint=True)
        tf[rng.random(size) < 0.7] = 1
        order = np.lexsort((d, tf))
        docs.append(d[order])
        tfs.append(tf[order])
        values, counts = np.unique(tf, return_counts=True)
        group_tfs += values.tolist()
        group_offsets += (group_offsets[-1] + np.cumsum(counts)).tolist()
        term_groups.append(len(group_tfs))
    offsets = np.concatenate(([0], np.cumsum(sizes)))

    def bounds(values):
        values = np.asarray(values)
        return values.astype(bound_dtype or np.min_scalar_type(values[-1]))

    return _Postings(
        offsets=bounds(offsets),
        doc_ords=np.concatenate(docs).astype(ord_dtype),
        tfs=np.concatenate(tfs).astype(tf_dtype),
        term_groups=bounds(term_groups),
        group_offsets=bounds(group_offsets),
        group_tfs=np.array(group_tfs).astype(tf_dtype),
    )


def _score_postings_reference(starts, ends, weights, doc_ords, tfs, len_norm, scores) -> None:
    """The kernel as a fancy-index `+=` over the stored slices, each posting
    with its own tf: the expression the `np.add.at` kernel must match bit
    for bit."""
    for t in range(starts.shape[0]):
        s, e = starts[t], ends[t]
        d = doc_ords[s:e]
        tf = tfs[s:e].astype(np.float64)
        scores[d] += weights[t] * tf / (tf + len_norm[d])


@pytest.mark.parametrize("ord_dtype", [np.uint8, np.uint16, np.uint32])
@pytest.mark.parametrize("tf_dtype", [np.uint8, np.uint16])
def test_score_postings_matches_fancy_index_add_bytewise(kernel, tf_dtype, ord_dtype):
    rng = np.random.default_rng(41)
    # As many passages as uint8 ordinals can number, else 500.
    n_docs = min(500, np.iinfo(ord_dtype).max + 1)
    # Posting lists of 0, 1 and up to n_docs postings.
    sizes = [0, 1, 0, 1, 2, n_docs, *rng.integers(0, n_docs, size=40).tolist()]
    p = _postings(rng, sizes, n_docs, ord_dtype, tf_dtype, np.uint32)
    assert p.doc_ords.max() == n_docs - 1
    assert len(p.group_tfs) > len(sizes) and np.diff(p.group_offsets).max() > 100
    len_norm = rng.uniform(0.05, 3.0, size=n_docs)
    for trial in range(60):
        # Terms 0-3 are the empty and one-posting lists; a repeat lists a
        # term twice, as a query that repeats a token would if it were not
        # folded into one weight.
        terms = rng.choice(len(sizes), size=int(rng.integers(1, 12)))
        if trial % 3 == 0:
            terms = np.concatenate((terms, terms[:1], [trial % 4]))
        starts, ends = p.offsets[terms], p.offsets[terms + 1]
        weights = rng.uniform(0.0, 20.0, size=len(terms))
        base = np.zeros(n_docs) if trial % 2 else rng.uniform(0.0, 5.0, size=n_docs)
        got, want = base.copy(), base.copy()
        index_mod._bm25.score_postings(starts, ends, weights, p.doc_ords, p.groups(terms), len_norm, got)
        _score_postings_reference(starts, ends, weights, p.doc_ords, p.tfs, len_norm, want)
        assert got.tobytes() == want.tobytes()


def _max_posting_score_reference(offsets, weights, doc_ords, tfs, len_norm) -> np.ndarray:
    """Each term's largest value of the written-out expression over its own
    slice, each posting with its own tf: what the run-at-a-time kernel must
    match bit for bit."""
    out = np.empty(len(offsets) - 1)
    for t in range(len(out)):
        s, e = int(offsets[t]), int(offsets[t + 1])
        d, tf = doc_ords[s:e], tfs[s:e].astype(np.float64)
        out[t] = (weights[t] * tf / (tf + len_norm[d])).max()
    return out


@pytest.mark.parametrize("run_postings", [1, 7, 1 << 20])
@pytest.mark.parametrize("tf_dtype", [np.uint8, np.uint16, np.float64])
@pytest.mark.parametrize("n_docs,max_size", [(60, 12), (500, 500)])
def test_max_posting_score_matches_per_term_expression_bytewise(
    kernel, monkeypatch, n_docs, max_size, tf_dtype, run_postings
):
    # With runs of 1 and 7 postings most terms and many groups straddle a
    # run boundary, and the long ones span several runs. The small
    # collection has uint8 offsets and ordinals; each collection's offsets
    # and group bounds are also given as uint64, which np.repeat and
    # reduceat do not take.
    monkeypatch.setattr(index_mod._bm25, "_RUN_POSTINGS", run_postings)
    rng = np.random.default_rng(43)
    sizes = [1, 1, max_size, *rng.integers(1, max_size, size=20, endpoint=True).tolist(), 1]
    p = _postings(rng, sizes, n_docs, np.min_scalar_type(n_docs - 1), tf_dtype)
    narrow = np.uint8 if n_docs == 60 else np.uint16
    assert (p.offsets.dtype, p.group_offsets.dtype, p.doc_ords.dtype) == (narrow,) * 3
    len_norm = rng.uniform(0.05, 3.0, size=n_docs)
    weights = rng.uniform(0.1, 20.0, size=len(sizes))
    want = _max_posting_score_reference(p.offsets, weights, p.doc_ords, p.tfs, len_norm)
    for dtype in (None, np.uint64):
        offsets, group_offsets = (a.astype(dtype or a.dtype) for a in (p.offsets, p.group_offsets))
        got = index_mod._bm25.max_posting_score(
            offsets, weights, p.doc_ords, group_offsets, p.group_tfs, len_norm
        )
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("tf_dtype", [np.uint8, np.uint16, np.float64])
def test_kernels_leave_their_inputs_unchanged(kernel, tf_dtype):
    # The kernels compute in place on per-slice copies; arithmetic on a view
    # of the index arrays instead would corrupt the index without an error.
    rng = np.random.default_rng(5)
    n_docs = 300
    # Every term holds a posting, as max_posting_score requires.
    sizes = [1, n_docs, *rng.integers(1, n_docs, size=20).tolist()]
    p = _postings(rng, sizes, n_docs, np.int32, tf_dtype, np.uint32)
    len_norm = rng.uniform(0.05, 3.0, size=n_docs)
    terms = np.arange(len(sizes))
    starts, ends, groups = p.offsets[terms], p.offsets[terms + 1], p.groups(terms)
    weights = rng.uniform(0.5, 20.0, size=len(terms))
    inputs = {"len_norm": len_norm, "weights": weights, "starts": starts, "ends": ends,
              **p._asdict(), **groups._asdict()}
    before = {name: (a.dtype, a.tobytes()) for name, a in inputs.items()}
    scores = np.zeros(n_docs)
    index_mod._bm25.score_postings(starts, ends, weights, p.doc_ords, groups, len_norm, scores)
    assert scores.any()
    assert index_mod._bm25.max_posting_score(
        p.offsets, weights, p.doc_ords, p.group_offsets, p.group_tfs, len_norm
    ).all()
    assert {name: (a.dtype, a.tobytes()) for name, a in inputs.items()} == before


def test_search_breaks_ties_in_python_string_order(tmp_path, kernel):
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
    index = index_from(docs)
    index.save(tmp_path)
    ranked = ["hi", *sorted(tied), "lo"]
    # Passages are numbered in id order, before and after save and load.
    for searcher in (Searcher(index), Searcher(InvertedIndex.load(tmp_path))):
        assert searcher.index.doc_ids.tolist() == sorted(docs)
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


def _with(a: np.ndarray, i: int, value, dtype=None) -> np.ndarray:
    """A copy of ``a`` in ``dtype`` (its own when None) with ``a[i] = value``."""
    a = a.astype(dtype or a.dtype)
    a[i] = value
    return a


# Edits of one table of TOY's index, by the file that holds it: an array,
# or the list of entries of a line table. The message is what save says of
# an index that holds the edited table; None where no InvertedIndex can
# hold it (save narrows every array to an unsigned dtype, and the terms are
# the keys of a dict). Saved and then edited in its file, each fails the
# file's digest on load.
_EDITS = [
    # TOY has 8 terms, 9 postings and 9 groups: "cat" has tf 1 in d1 and 2 in d2.
    ("group_tfs.npy", lambda a: np.concatenate([a, np.ones(7, a.dtype)]),
     "term_groups ends at 9, but group_tfs holds 16 groups"),
    ("group_tfs.npy", lambda a: a[:-1], "term_groups ends at 9, but group_tfs holds 8 groups"),
    ("doc_ords.npy", lambda a: np.concatenate([a, a[:7]]),
     "group_offsets ends at 9, but doc_ords holds 16 postings"),
    # A signed or float array in range saves narrow.
    ("group_tfs.npy", lambda a: a.astype(np.float64), None),
    ("group_tfs.npy", lambda a: a.astype(np.int8), None),
    ("group_tfs.npy", lambda a: _with(a, 3, 0), "group_tfs holds a term frequency of 0"),
    # One group per (term, tf), in ascending tf
    ("group_tfs.npy", lambda a: _with(a, 1, 1), "group_tfs must strictly increase within each term"),
    ("group_tfs.npy", lambda a: _with(a, 0, 3), "group_tfs must strictly increase within each term"),
    ("term_groups.npy", lambda a: a.astype(np.int64), None),
    ("term_groups.npy", lambda a: a.astype(np.float64), None),
    ("group_offsets.npy", lambda a: a.astype(np.int32), None),
    ("doc_ords.npy", lambda a: a.astype(np.int32), None),
    ("doc_ords.npy", lambda a: _with(a, -1, -1, np.int64), "doc_ords holds a value outside 0..2"),
    ("doc_lengths.npy", lambda a: a.astype(np.int64), None),
    ("doc_lengths.npy", lambda a: a.astype(np.float32), None),
    ("doc_lengths.npy", lambda a: a.reshape(1, 3), "doc_lengths must be a 1-d array, got 2-d"),
    # Ordinals and bounds out of range, in their own dtype and in wider
    # ones. A value that the narrow dtype cannot hold would wrap into one
    # that it can, such as ordinal 257 of 3 passages into 1.
    ("doc_ords.npy", lambda a: _with(a, -1, 3), "doc_ords holds an ordinal outside 0..2"),
    ("doc_ords.npy", lambda a: _with(a, -1, 255), "doc_ords holds an ordinal outside 0..2"),
    ("doc_ords.npy", lambda a: _with(a, 0, 2**16 - 1, np.uint16), "doc_ords holds a value outside 0..2"),
    ("doc_ords.npy", lambda a: _with(a, -1, 257, np.int32), "doc_ords holds a value outside 0..2"),
    ("doc_lengths.npy", lambda a: _with(a, 0, -1, np.int64), "doc_lengths holds a value outside 0..4"),
    ("group_tfs.npy", lambda a: a + 0.5, r"group_tfs holds a value outside 0..2$"),
    ("term_groups.npy", lambda a: a[:-1], "term_groups holds 8 entries for 8 terms"),
    ("term_groups.npy", lambda a: a + 1, "term_groups must start at 0"),
    ("term_groups.npy", lambda a: _with(a, -1, a[-2] - 1), "term_groups must start at 0 and never"),
    ("term_groups.npy", lambda a: _with(a, 1, 2**32 - 1, np.uint32),
     "term_groups holds a value outside 0..9"),
    ("term_groups.npy", lambda a: _with(a, 1, -1, np.int64), "term_groups holds a value outside 0..9"),
    ("group_offsets.npy", lambda a: a[:-1], "group_offsets holds 9 entries for 9 groups"),
    ("group_offsets.npy", lambda a: a + 1, "group_offsets must start at 0"),
    ("group_offsets.npy", lambda a: _with(a, 1, 2**32 - 1, np.uint32),
     "group_offsets holds a value outside 0..9"),
    ("group_offsets.npy", lambda a: _with(a, 1, 257, np.int64), "group_offsets holds a value outside 0..9"),
    # A term or group without postings: build_index never writes one,
    # and the max-score kernel would give it the next term's score.
    ("term_groups.npy", lambda a: _with(a, 1, 0), "term_groups gives term 0 no groups"),
    ("term_groups.npy", lambda a: _with(a, -2, a[-1]), "term_groups gives term 7 no groups"),
    ("group_offsets.npy", lambda a: _with(a, 1, 0), "group_offsets gives group 0 no postings"),
    ("term_groups.npy", lambda a: _with(a, -1, 2**64 - 1, np.uint64),
     "term_groups holds a value outside 0..9"),
    ("group_offsets.npy", lambda a: _with(a, -1, 2**64 - 1, np.uint64),
     "group_offsets holds a value outside 0..9"),
    ("doc_lengths.npy", lambda a: a[:2], "doc_lengths holds 2 entries for 3 passages"),
    # Each passage's postings must add up to its length. "cat" is in d1's
    # tf-1 group and d2's tf-2 group: d1 moved into both keeps every
    # group's ordinals increasing but gives d1 6 tokens and d2 2.
    ("doc_lengths.npy", lambda a: _with(a, 2, 3),
     r"give passage 2 2 tokens, but doc_lengths gives it 3 \(a moved doc ordinal\?\)"),
    ("doc_ords.npy", lambda a: _with(a, 1, 0), "give passage 0 6 tokens, but doc_lengths gives it 4"),
    # An ordinal is its passage's tie rank: ids out of order would change
    # the tie order, and a repeated id would make two results one.
    ("doc_ids.txt", lambda ids: ids[::-1], "doc_ids must strictly increase"),
    ("doc_ids.txt", lambda ids: [ids[1], ids[0], ids[2]], "doc_ids must strictly increase"),
    ("doc_ids.txt", lambda ids: [ids[0], ids[0], ids[2]], "doc_ids must strictly increase"),
    ("doc_ids.txt", lambda ids: ids[:2], "doc_lengths holds 3 entries for 2 passages"),
    ("terms.txt", lambda terms: [terms[0], *terms], None),
    ("terms.txt", lambda terms: [*terms, "zebra"], "term_groups holds 9 entries for 9 terms"),
    ("terms.txt", lambda terms: terms[:-1], "term_groups holds 9 entries for 7 terms"),
    ("terms.txt", lambda terms: [terms[0], terms[0], *terms[2:]], None),
]


def _edit_file(path, edit) -> None:
    """Apply an edit of ``_EDITS`` to the file ``path``."""
    if path.suffix == ".npy":
        np.save(path, edit(np.load(path)))
    else:
        entries = edit(path.read_text(encoding="utf-8").splitlines())
        path.write_bytes("".join(f"{e}\n" for e in entries).encode("utf-8"))


def _edit_table(index: InvertedIndex, name: str, edit) -> None:
    """Apply an edit of ``_EDITS`` to the table of ``index`` that save
    writes to the file ``name``."""
    table = name.split(".")[0]
    if table == "terms":
        index.term_ids = {t: i for i, t in enumerate(edit(list(index.term_ids)))}
    elif table == "doc_ids":
        index.doc_ids = np.array(edit(index.doc_ids.tolist()), dtype=object)
    else:
        setattr(index, table, edit(getattr(index, table)))


def _rewrite(edit):
    """Damage that rewrites a file's bytes as ``edit`` gives them."""
    return lambda path: path.write_bytes(edit(path.read_bytes()))


@pytest.mark.parametrize(
    "name,damage",
    [(name, lambda path, edit=edit: _edit_file(path, edit)) for name, edit, _ in _EDITS]
    + [
        # a table cut off mid-line would load the term "sang" as "san"
        ("terms.txt", _rewrite(lambda data: data[:-2])),
        ("doc_ids.txt", _rewrite(lambda data: data[:-1])),
        # CRLF line ends would give every term a trailing \r that no query matches
        ("terms.txt", _rewrite(lambda data: data.replace(b"\n", b"\r\n"))),
        ("doc_ids.txt", _rewrite(lambda data: data.replace(b"\n", b"\r\n"))),
        ("doc_ords.npy", _rewrite(lambda data: data[:-1] + bytes([data[-1] ^ 1]))),
        ("group_offsets.npy", _rewrite(lambda data: data[:-3])),
        ("term_groups.npy", _rewrite(lambda data: b"")),
        ("doc_lengths.npy", _rewrite(lambda data: data + b"\0")),
        ("group_tfs.npy", lambda path: path.unlink()),
    ],
)
def test_load_rejects_a_file_changed_since_save(tmp_path, name, damage):
    index_from(TOY).save(tmp_path)
    damage(tmp_path / name)
    with pytest.raises(ValueError) as exc:
        InvertedIndex.load(tmp_path)
    assert str(exc.value) == f"{tmp_path}: {name} changed or damaged since save"


@pytest.mark.parametrize(
    "name,edit,message", [(name, edit, message) for name, edit, message in _EDITS if message is not None]
)
def test_save_rejects_an_inconsistent_index(tmp_path, name, edit, message):
    index = index_from(TOY)
    _edit_table(index, name, edit)
    with pytest.raises(ValueError, match=message):
        index.save(tmp_path / "idx")
    # checked before the first file is written, so nothing is
    assert not (tmp_path / "idx").exists()


def test_save_rejects_an_ordinal_repeated_within_a_tf_group(tmp_path):
    # "cat" holds the tf-1 group [d1 d2]: d1 twice would score d1 twice
    # and d2 not at all. No group of TOY holds two postings.
    index = build_index([Passage("d1", "cat sat"), Passage("d2", "dog cat"), Passage("d3", "cat cat dog")])
    assert index.doc_ords.tolist() == [0, 1, 2, 0, 1, 2]
    index.doc_ords = _with(index.doc_ords, 1, 0)
    with pytest.raises(ValueError, match=r"doc_ords must strictly increase within each tf group"):
        index.save(tmp_path / "idx")
    assert not (tmp_path / "idx").exists()


def test_load_rejects_swapped_doc_ordinals_whose_sums_agree(tmp_path):
    # "sat" holds d1 and "dog" d2, d3. Swapping d1 and d2 there keeps every
    # group increasing and every passage's length sum, which save checks;
    # loaded, a search for "sat" would return d2. Only the digest sees it.
    index = build_index([Passage("d1", "cat sat"), Passage("d2", "dog cat"), Passage("d3", "cat cat dog")])
    index.save(tmp_path)
    path = tmp_path / "doc_ords.npy"
    ords = np.load(path)
    assert ords.tolist() == [0, 1, 2, 0, 1, 2]
    ords[[3, 4]] = ords[[4, 3]]
    np.save(path, ords)
    arrays = {name: np.load(tmp_path / f"{name}.npy") for name in index_mod._ARRAYS}
    index_mod._check_arrays(arrays, index.vocab_size, index.doc_ids)
    with pytest.raises(ValueError) as exc:
        InvertedIndex.load(tmp_path)
    assert str(exc.value) == f"{tmp_path}: doc_ords.npy changed or damaged since save"


def test_wide_in_memory_arrays_save_the_same_bytes_as_narrow_ones(tmp_path, kernel):
    # The dtype rule is save's: an index of int64 arrays searches like its
    # narrow copy and saves the same bytes. A file widened by hand is a
    # changed file.
    index = index_from(_hit_corpus(np.random.default_rng(37), 40, 37))
    index.save(tmp_path / "narrow")
    wide = _wide(index, np.int64)
    wide.save(tmp_path / "wide")
    assert _files(tmp_path / "wide") == _files(tmp_path / "narrow")
    a, b = Searcher(InvertedIndex.load(tmp_path / "narrow")), Searcher(wide)
    for query in (["hit"], ["pad"], ["hit", "pad", "hit"]):
        # The scores tie in runs, so best_first ranks by doc ordinal.
        got, want = b.search(query, k=30, qid="q"), a.search(query, k=30, qid="q")
        assert got.ids == want.ids and got.scores.tobytes() == want.scores.tobytes()
        assert b.max_score(query) == a.max_score(query)
    assert b.max_score_term("hit") == a.max_score_term("hit")
    for name in index_mod._ARRAYS:
        path = tmp_path / "wide" / f"{name}.npy"
        np.save(path, np.load(path).astype(np.uint64))
    with pytest.raises(ValueError, match="term_groups.npy changed or damaged since save"):
        InvertedIndex.load(tmp_path / "wide")


def test_save_rejects_an_entry_with_a_line_break(tmp_path):
    index_from(TOY).save(tmp_path)
    index = build_index([Passage("d1", "cat sat"), Passage("d\n2", "dog")])
    with pytest.raises(ValueError, match=r"doc_ids.txt: entry 'd\\n2' holds a line break"):
        index.save(tmp_path)
    # meta.json goes first and comes back last: the half-written directory has none
    assert not (tmp_path / "meta.json").exists()


def test_doc_ids_are_read_back_exactly(tmp_path):
    # only \n ends a line: no other line break is translated or splits an id
    ids = ["d\r1", "x\x85y\r", "\u00e9\u2028"]
    build_index([Passage(i, "cat") for i in ids]).save(tmp_path)
    assert InvertedIndex.load(tmp_path).doc_ids.tolist() == sorted(ids) == ids


def test_index_directory_holds_each_fact_once(tmp_path):
    index_from(TOY).save(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "doc_ids.txt", "doc_lengths.npy", "doc_ords.npy", "group_offsets.npy", "group_tfs.npy",
        "meta.json", "term_groups.npy", "terms.txt", "tokenizer.json",
    ]
    meta = json.loads((tmp_path / "meta.json").read_text(encoding="utf-8"))
    digests = meta.pop("sha256")
    assert meta == {"format": "convpr.index", "version": 9}
    tokenizer = json.loads((tmp_path / "tokenizer.json").read_text(encoding="utf-8"))
    assert tokenizer == TokenizerConfig().to_dict()
    files = [p for p in tmp_path.iterdir() if p.name != "meta.json"]
    assert digests == {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
    assert (tmp_path / "doc_ids.txt").read_bytes() == b"d1\nd2\nd3\n"
    loaded = InvertedIndex.load(tmp_path)
    assert (loaded.doc_count, loaded.vocab_size) == (3, 8)
    assert loaded.avg_doc_len == pytest.approx((4 + 4 + 2) / 3)


def test_loaded_index_holds_no_per_posting_array_but_the_ordinals(tmp_path):
    # 40 passages, 2 terms, 64 postings in 5 tf groups: only doc_ords is as
    # long as the postings; the tfs are one per group.
    index_from(_hit_corpus(np.random.default_rng(37), 40, 37)).save(tmp_path)
    index = InvertedIndex.load(tmp_path)
    sizes = {name: a.size for name, a in vars(index).items() if isinstance(a, np.ndarray)}
    postings = index.doc_ords.size
    assert (postings, index.doc_count, len(index.group_tfs)) == (64, 40, 5)
    assert [name for name, size in sizes.items() if size >= postings] == ["doc_ords"]
    assert index.offsets.tolist() == index.group_offsets[index.term_groups].tolist()


@pytest.mark.parametrize(
    "tamper,message",
    [
        # the digests vouch for every other file
        (lambda m: m.pop("sha256"), "meta.json must give the sha256 of each of terms.txt, doc_ids.txt, "),
        (lambda m: m["sha256"].pop("tokenizer.json"), "meta.json must give the sha256 of each of"),
        (lambda m: m["sha256"].pop("doc_ords.npy"), "meta.json must give the sha256 of each of"),
        (lambda m: m.update(sha256=list(m["sha256"])), "meta.json must give the sha256 of each of"),
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


def test_edited_or_missing_tokenizer_record_fails_to_load(tmp_path):
    # Loaded with stemming, this unstemmed index would answer "running"
    # with d2 ("run") instead of d1.
    build_index([Passage("d1", "running dogs"), Passage("d2", "run dog")]).save(tmp_path)
    assert Searcher(InvertedIndex.load(tmp_path)).search(["running"], k=2).ids == ["d1"]
    path = tmp_path / "tokenizer.json"
    path.write_text(json.dumps({"stem": True, "remove_stopwords": False}), encoding="utf-8")
    with pytest.raises(ValueError, match="tokenizer.json changed or damaged since save") as exc:
        InvertedIndex.load(tmp_path)
    assert str(exc.value).startswith(f"{tmp_path}: ")
    path.unlink()
    with pytest.raises(ValueError, match="tokenizer.json changed or damaged since save"):
        InvertedIndex.load(tmp_path)


@pytest.mark.parametrize(
    "record,message",
    [
        ('{"stem": "false"}', "tokenizer.stem must be true or false"),
        ('{"remove_stopwords": 0}', "tokenizer.remove_stopwords must be"),
        ('"stem"', "tokenizer must be a mapping"),
        ("null", "tokenizer must be a mapping"),
        ('{"stem": ', "Expecting value"),
    ],
)
def test_load_checks_a_tokenizer_record_whose_digest_matches(tmp_path, record, message):
    # A record edited together with its digest is still parsed strictly.
    index_from(TOY).save(tmp_path)
    (tmp_path / "tokenizer.json").write_text(record, encoding="utf-8")
    meta = json.loads((tmp_path / "meta.json").read_text(encoding="utf-8"))
    meta["sha256"]["tokenizer.json"] = hashlib.sha256(record.encode()).hexdigest()
    (tmp_path / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    with pytest.raises(ValueError, match=message) as exc:
        InvertedIndex.load(tmp_path)
    assert str(exc.value).startswith(f"{tmp_path}: ")


@pytest.mark.parametrize(
    "meta",
    [
        '{"format": "other"}',
        '["convpr.index", 4]',
        '{"format": "convpr.index", "version": 2}',
        # layout v3 stored ordinals as int32 and offsets as int64: rebuild it
        '{"format": "convpr.index", "version": 3}',
        # layout v4 stored a tf per posting
        '{"format": "convpr.index", "version": 4}',
        # layout v5 numbered passages in input order and stored their id order
        '{"format": "convpr.index", "version": 5}',
        # layout v6 recorded no digests
        '{"format": "convpr.index", "version": 6}',
        # layout v7 kept the tokenizer in meta.json, under no digest
        '{"format": "convpr.index", "version": 7, "tokenizer": {"stem": false}}',
        # layout v8 was built by a passage reader that kept a leading BOM
        '{"format": "convpr.index", "version": 8}',
    ],
)
def test_load_rejects_foreign_directory(tmp_path, meta):
    (tmp_path / "meta.json").write_text(meta, encoding="utf-8")
    with pytest.raises(ValueError, match="not a convpr.index v9 directory"):
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


def _hit_corpus(rng, n: int, hits: int) -> dict[str, list[str]]:
    """``n`` passages, ``hits`` of which hold "hit" once or twice in 2-3
    tokens, so their scores take four values and tie in runs; the rest hold
    only "pad". Inserted in reverse id order."""
    ids = [f"p{i:02d}" for i in range(n)]
    hit = set(rng.choice(n, size=hits, replace=False).tolist())
    docs = {}
    for i in reversed(range(n)):
        tokens = ["hit"] * int(rng.integers(1, 3)) if i in hit else []
        docs[ids[i]] = tokens + ["pad"] * (int(rng.integers(2, 4)) - len(tokens))
    return docs


@pytest.mark.parametrize("hits", [12, 20, 21, 37])
def test_search_equals_the_bitwise_oracle_on_both_selection_paths(kernel, monkeypatch, hits):
    # Of 40 passages, 12 or 20 scoring is narrow (at most half): the positive
    # scores are gathered, then partitioned; 21 or 37 is wide: the dense
    # array is partitioned. Every k in 1..41 covers cuts inside tied runs,
    # exactly k positives and k >= n.
    n = 40
    rng = np.random.default_rng(hits)
    docs = _hit_corpus(rng, n, hits)
    params = Bm25Params(k1=1.2, b=0.75)
    searcher = Searcher(index_from(docs), params)
    partitioned = []
    partition = np.partition

    def recording(a, kth):
        partitioned.append(a.size)
        return partition(a, kth)

    monkeypatch.setattr(np, "partition", recording)
    ties_at_cut = 0
    for query in (["hit"], ["hit", "oov", "hit", "hit"]):
        want = oracles.bm25_rank_bitwise(docs, query, params.k1, params.b, k=n)
        assert len(want) == hits
        for k in range(1, n + 2):
            partitioned.clear()
            got = searcher.search(query, k=k, qid="q")
            assert got.ids == [d for d, _ in want[:k]], (query, k)
            assert got.scores.tobytes() == np.array([s for _, s in want[:k]]).tobytes(), (query, k)
            if k < hits:
                assert partitioned == [n if 2 * hits > n else hits], (query, k)
                ties_at_cut += want[k - 1][1] == want[k][1]
            else:
                assert partitioned == [], (query, k)
    assert ties_at_cut > hits / 2, ties_at_cut


def test_search_result_equals_the_checked_constructor(kernel):
    # Search builds its list through the unchecked path; the checked public
    # constructor must accept the same columns as they are, without a warning.
    rng = np.random.default_rng(3)
    for hits in (12, 37):
        searcher = Searcher(index_from(_hit_corpus(rng, 40, hits)))
        for k in (1, 5, 12, 40):
            got = searcher.search(["hit"], k=k, qid="7_2")
            assert type(got.ids) is list and got.scores.dtype == np.float64
            with warnings.catch_warnings():
                warnings.simplefilter("error", RunFileWarning)
                checked = RankedList(got.qid, got.ids, got.scores)
            assert got == checked and len(got) == min(k, hits)


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


def test_max_score_term_cache_consistent(kernel, monkeypatch):
    # One kernel pass fills every term's score; each probe reads the array.
    calls = []
    real = index_mod._bm25.max_posting_score
    monkeypatch.setattr(index_mod._bm25, "max_posting_score", lambda *a: calls.append(a) or real(*a))
    searcher = Searcher(index_from(TOY))
    first = searcher.max_score_term("cat")
    assert searcher.max_score_term("cat") == first
    assert searcher.max_score_term("dog") > 0.0
    assert searcher.max_score_term("zzz") == 0.0
    scores = searcher.term_max_scores()
    assert len(calls) == 1 and searcher.term_max_scores() is scores
    assert scores.dtype == np.float64 and scores.shape == (searcher.index.vocab_size,)
    assert scores[searcher.index.term_ids["cat"]] == first


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
