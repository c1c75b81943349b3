"""Immutable inverted index with BM25 top-k retrieval.

Postings live in a flat term-major layout (one slice per term) so the
scoring kernels in :mod:`convpr._bm25` can run over plain arrays. The
scoring variant is the Lucene one:

    IDF(t) = ln(1 + (N - df + 0.5) / (df + 0.5))
    score(q, d) = sum over query tokens of IDF * tf*(k1+1) / (tf + k1*(1 - b + b*dl/avgdl))

summed with query-token multiplicity (no query-frequency saturation).
Indexes are write-once; after construction or load every structure is
read-only, so concurrent searches over one index are safe. Each Searcher
keeps a per-term max-score cache because historical query expansion probes
the same terms for every turn.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import _bm25
from .corpus import Passage
from .runs import RankedList
from .tokenization import TokenizerConfig

_FORMAT = "convpr.index"
_VERSION = 1


@dataclass(frozen=True)
class Bm25Params:
    """k1/b defaults follow the tuned first-stage configuration."""

    k1: float = 0.82
    b: float = 0.68

    def __post_init__(self) -> None:
        if self.k1 < 0:
            raise ValueError(f"k1 must be >= 0, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {self.b}")


class InvertedIndex:
    def __init__(
        self,
        terms: list[str],
        doc_ids: list[str],
        offsets: np.ndarray,
        doc_ords: np.ndarray,
        tfs: np.ndarray,
        doc_lengths: np.ndarray,
        avg_doc_len: float,
        tokenizer: TokenizerConfig,
    ):
        self.terms = terms
        self.doc_ids = doc_ids
        self.offsets = offsets
        self.doc_ords = doc_ords
        self.tfs = tfs
        self.doc_lengths = doc_lengths
        self.avg_doc_len = avg_doc_len
        self.tokenizer = tokenizer

        mean_len = float(doc_lengths.mean()) if len(doc_ids) else 0.0
        if abs(mean_len - avg_doc_len) > 1e-9:
            raise ValueError(f"avg_doc_len {avg_doc_len} inconsistent with doc_lengths mean {mean_len}")

        self._term_ids = {t: i for i, t in enumerate(terms)}
        df = (offsets[1:] - offsets[:-1]).astype(np.float64)
        n = float(len(doc_ids))
        self.idf = np.log1p((n - df + 0.5) / (df + 0.5))
        # Lexicographic rank of each ordinal's doc_id; used for tie-breaks.
        order = sorted(range(len(doc_ids)), key=doc_ids.__getitem__)
        self.docid_rank = np.empty(len(doc_ids), dtype=np.int64)
        for pos, ordinal in enumerate(order):
            self.docid_rank[ordinal] = pos

    @property
    def doc_count(self) -> int:
        return len(self.doc_ids)

    @property
    def vocab_size(self) -> int:
        return len(self.terms)

    def tokenize(self, text: str) -> list[str]:
        return self.tokenizer(text)

    def df(self, term: str) -> int:
        tid = self._term_ids.get(term)
        if tid is None:
            return 0
        return int(self.offsets[tid + 1] - self.offsets[tid])

    # -- persistence -------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write a versioned directory; rebuilding the same corpus yields
        byte-identical files."""
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        meta = {
            "format": _FORMAT,
            "version": _VERSION,
            "doc_count": int(self.doc_count),
            "vocab_size": int(self.vocab_size),
            "avg_doc_len": self.avg_doc_len,
            "tokenizer": self.tokenizer.to_dict(),
        }
        with (path / "meta.json").open("w", encoding="utf-8", newline="\n") as fh:
            json.dump(meta, fh, sort_keys=True, indent=2)
            fh.write("\n")
        with (path / "terms.txt").open("w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(t + "\n" for t in self.terms)
        with (path / "doc_ids.json").open("w", encoding="utf-8", newline="\n") as fh:
            json.dump(self.doc_ids, fh, ensure_ascii=True, separators=(",", ":"))
            fh.write("\n")
        np.save(path / "offsets.npy", self.offsets)
        np.save(path / "doc_ords.npy", self.doc_ords)
        np.save(path / "tfs.npy", self.tfs)
        np.save(path / "doc_lengths.npy", self.doc_lengths)

    @classmethod
    def load(cls, path: str | Path) -> "InvertedIndex":
        path = Path(path)
        with (path / "meta.json").open("r", encoding="utf-8") as fh:
            meta = json.load(fh)
        if meta.get("format") != _FORMAT or meta.get("version") != _VERSION:
            raise ValueError(f"{path}: not a {_FORMAT} v{_VERSION} directory")
        terms = (path / "terms.txt").read_text(encoding="utf-8").splitlines()
        with (path / "doc_ids.json").open("r", encoding="utf-8") as fh:
            doc_ids = json.load(fh)
        index = cls(
            terms=terms,
            doc_ids=doc_ids,
            offsets=np.load(path / "offsets.npy"),
            doc_ords=np.load(path / "doc_ords.npy"),
            tfs=np.load(path / "tfs.npy"),
            doc_lengths=np.load(path / "doc_lengths.npy"),
            avg_doc_len=float(meta["avg_doc_len"]),
            tokenizer=TokenizerConfig.from_dict(meta.get("tokenizer", {})),
        )
        if index.doc_count != meta["doc_count"] or index.vocab_size != meta["vocab_size"]:
            raise ValueError(f"{path}: metadata does not match stored arrays")
        return index


def build_index(passages: Iterable[Passage], tokenizer: TokenizerConfig | None = None) -> InvertedIndex:
    """Single-pass, deterministic build: term and doc ordinals follow first
    occurrence in the input stream."""
    tokenizer = tokenizer or TokenizerConfig()
    term_ids: dict[str, int] = {}
    per_term_docs: list[list[int]] = []
    per_term_tfs: list[list[int]] = []
    doc_ids: list[str] = []
    doc_lengths: list[int] = []

    for ordinal, passage in enumerate(passages):
        doc_ids.append(passage.doc_id)
        tokens = tokenizer(passage.text)
        doc_lengths.append(len(tokens))
        for term, tf in Counter(tokens).items():
            tid = term_ids.get(term)
            if tid is None:
                tid = len(term_ids)
                term_ids[term] = tid
                per_term_docs.append([])
                per_term_tfs.append([])
            per_term_docs[tid].append(ordinal)
            per_term_tfs[tid].append(tf)

    if not doc_ids:
        raise ValueError("cannot build an index from an empty passage collection")

    offsets = np.zeros(len(term_ids) + 1, dtype=np.int64)
    for tid, docs in enumerate(per_term_docs):
        offsets[tid + 1] = offsets[tid] + len(docs)
    doc_ords = np.empty(int(offsets[-1]), dtype=np.int32)
    tfs = np.empty(int(offsets[-1]), dtype=np.float64)
    for tid, (docs, freqs) in enumerate(zip(per_term_docs, per_term_tfs)):
        doc_ords[offsets[tid] : offsets[tid + 1]] = docs
        tfs[offsets[tid] : offsets[tid + 1]] = freqs

    lengths = np.asarray(doc_lengths, dtype=np.int64)
    return InvertedIndex(
        terms=list(term_ids),
        doc_ids=doc_ids,
        offsets=offsets,
        doc_ords=doc_ords,
        tfs=tfs,
        doc_lengths=lengths,
        avg_doc_len=float(lengths.mean()),
        tokenizer=tokenizer,
    )


class Searcher:
    """BM25 query evaluation over one index with fixed parameters.

    Stateless apart from the per-term max-score cache, which only ever
    holds recomputable values, so shared use across threads is safe.
    """

    def __init__(self, index: InvertedIndex, params: Bm25Params | None = None):
        self.index = index
        self.params = params or Bm25Params()
        dl = index.doc_lengths.astype(np.float64)
        ratio = dl / index.avg_doc_len if index.avg_doc_len > 0 else np.zeros_like(dl)
        self._len_norm = self.params.k1 * (1.0 - self.params.b + self.params.b * ratio)
        self._term_max: dict[str, float] = {}

    def tokenize(self, text: str) -> list[str]:
        return self.index.tokenize(text)

    def _query_weights(self, tokens: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        counts: Counter[int] = Counter()
        for tok in tokens:
            tid = self.index._term_ids.get(tok)
            if tid is not None:
                counts[tid] += 1
        n = len(counts)
        starts = np.empty(n, dtype=np.int64)
        ends = np.empty(n, dtype=np.int64)
        weights = np.empty(n, dtype=np.float64)
        k1 = self.params.k1
        for i, (tid, qtf) in enumerate(counts.items()):
            starts[i] = self.index.offsets[tid]
            ends[i] = self.index.offsets[tid + 1]
            weights[i] = qtf * self.index.idf[tid] * (k1 + 1.0)
        return starts, ends, weights

    def _score_all(self, tokens: Sequence[str]) -> np.ndarray:
        scores = np.zeros(self.index.doc_count, dtype=np.float64)
        starts, ends, weights = self._query_weights(tokens)
        if len(starts):
            _bm25.score_postings(
                starts, ends, weights, self.index.doc_ords, self.index.tfs, self._len_norm, scores
            )
        return scores

    def search(self, tokens: Sequence[str], k: int = 1000, qid: str = "0") -> RankedList:
        """Top-k by BM25; only docs scoring > 0 appear, ties break by
        ascending doc_id. Fewer than k positive scorers yields a shorter list."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        scores = self._score_all(tokens)
        cand = np.flatnonzero(scores > 0.0)
        if cand.size > k:
            # Keep every candidate tied with the k-th best score: which of
            # them make the cut is decided by doc_id in the sort below.
            cand_scores = scores[cand]
            kth = np.partition(cand_scores, cand.size - k)[cand.size - k]
            cand = cand[cand_scores >= kth]
        top = cand[np.lexsort((self.index.docid_rank[cand], -scores[cand]))[:k]]
        ids = list(map(self.index.doc_ids.__getitem__, top.tolist()))
        return RankedList(qid, ids, scores[top])

    def max_score_term(self, term: str) -> float:
        """Best single-document score for a one-token query; 0.0 when the
        term is unindexed. Cached per term."""
        hit = self._term_max.get(term)
        if hit is not None:
            return hit
        tid = self.index._term_ids.get(term)
        if tid is None:
            return 0.0
        weight = float(self.index.idf[tid]) * (self.params.k1 + 1.0)
        value = _bm25.max_posting_score(
            int(self.index.offsets[tid]),
            int(self.index.offsets[tid + 1]),
            weight,
            self.index.doc_ords,
            self.index.tfs,
            self._len_norm,
        )
        self._term_max[term] = value
        return value

    def max_score(self, tokens: Sequence[str]) -> float:
        """Top-1 score of the whole token stream; 0.0 when nothing matches."""
        if not tokens:
            return 0.0
        scores = self._score_all(tokens)
        if scores.size == 0:
            return 0.0
        return float(scores.max())
