"""Immutable inverted index with BM25 top-k retrieval.

Postings live in a flat term-major layout (one slice per term) so the
scoring kernels in :mod:`convpr._bm25` can run over plain arrays. An index
directory (layout v2) holds ``meta.json``, ``terms.txt``, ``doc_ids.json``
and five numpy arrays:

- ``offsets`` (int64, vocab + 1): term ``t``'s postings are
  ``offsets[t]:offsets[t + 1]``;
- ``doc_ords`` (int32): each posting's doc ordinal, ascending within a term;
- ``tfs``: each posting's term frequency, in the smallest unsigned integer
  dtype that holds the largest one (uint8 unless a passage repeats a term
  256 times); the kernels promote it to float64 exactly;
- ``doc_lengths`` (int64): tokens per passage;
- ``docid_rank`` (int32): :func:`convpr.runs.id_rank` of the doc ids, the
  tie-break that search hands to :func:`convpr.runs.best_first`. It is
  computed once at build time, so loading never sorts the doc ids.

In memory the index also keeps its doc ids as a numpy object array (8 B
per passage, sharing the str objects of ``doc_ids``; never saved), from
which a search gathers the ids of its results in one call.

:func:`build_index` inverts the corpus block by block with numpy, so no
posting is ever a Python object. The scoring variant is the Lucene one:

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
import math
import tempfile
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import _bm25
from .corpus import Passage
from .runs import RankedList, best_first, id_rank
from .tokenization import TokenizerConfig

_FORMAT = "convpr.index"
_VERSION = 2
# Passages per inverted block of build_index. A block's sort and scatter
# temporaries grow with it; per-block numpy call overhead shrinks with it.
_BLOCK_PASSAGES = 256

# The arrays of an index directory, each saved as <name>.npy, with their
# dtypes; None marks tfs, whose unsigned dtype depends on the largest tf.
_ARRAYS = {
    "offsets": np.int64,
    "doc_ords": np.int32,
    "tfs": None,
    "doc_lengths": np.int64,
    "docid_rank": np.int32,
}


@dataclass(frozen=True)
class Bm25Params:
    """k1/b defaults follow the tuned first-stage configuration."""

    k1: float = 0.82
    b: float = 0.68

    def __post_init__(self) -> None:
        if not 0 <= self.k1 < math.inf:
            raise ValueError(f"k1 must be finite and >= 0, got {self.k1}")
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
        docid_rank: np.ndarray,
        avg_doc_len: float,
        tokenizer: TokenizerConfig,
    ):
        self.terms = terms
        self.doc_ids = doc_ids
        self.offsets = offsets
        self.doc_ords = doc_ords
        self.tfs = tfs
        self.doc_lengths = doc_lengths
        self.docid_rank = docid_rank
        self._doc_id_array = np.array(doc_ids, dtype=object)
        self.avg_doc_len = avg_doc_len
        self.tokenizer = tokenizer

        mean_len = float(doc_lengths.mean()) if len(doc_ids) else 0.0
        if abs(mean_len - avg_doc_len) > 1e-9:
            raise ValueError(f"avg_doc_len {avg_doc_len} inconsistent with doc_lengths mean {mean_len}")

        self._term_ids = {t: i for i, t in enumerate(terms)}
        df = (offsets[1:] - offsets[:-1]).astype(np.float64)
        n = float(len(doc_ids))
        self.idf = np.log1p((n - df + 0.5) / (df + 0.5))

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
        for name in _ARRAYS:
            np.save(path / f"{name}.npy", getattr(self, name))

    @classmethod
    def load(cls, path: str | Path) -> "InvertedIndex":
        """Read a directory written by :meth:`save`. Its arrays are checked
        against each other first, so a damaged directory is a ValueError
        here and not a wrong score or an IndexError in some later query."""
        path = Path(path)
        with (path / "meta.json").open("r", encoding="utf-8") as fh:
            meta = json.load(fh)
        if not isinstance(meta, dict) or meta.get("format") != _FORMAT or meta.get("version") != _VERSION:
            raise ValueError(f"{path}: not a {_FORMAT} v{_VERSION} directory")
        for key in ("doc_count", "vocab_size", "avg_doc_len"):
            if key not in meta:
                raise ValueError(f"{path}: meta.json lacks {key!r}")
        terms = (path / "terms.txt").read_text(encoding="utf-8").splitlines()
        with (path / "doc_ids.json").open("r", encoding="utf-8") as fh:
            doc_ids = json.load(fh)
        if len(doc_ids) != meta["doc_count"] or len(terms) != meta["vocab_size"]:
            raise ValueError(f"{path}: metadata does not match stored arrays")
        arrays = {name: np.load(path / f"{name}.npy") for name in _ARRAYS}
        try:
            _check_arrays(arrays, len(terms), len(doc_ids))
            tokenizer = TokenizerConfig.from_dict(meta.get("tokenizer", {}))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        return cls(
            terms=terms,
            doc_ids=doc_ids,
            avg_doc_len=float(meta["avg_doc_len"]),
            tokenizer=tokenizer,
            **arrays,
        )


def _check_arrays(arrays: dict[str, np.ndarray], vocab_size: int, doc_count: int) -> None:
    """Raise ValueError unless ``arrays`` form a consistent v2 index of
    ``vocab_size`` terms and ``doc_count`` passages. Each check is O(n)."""
    for name, dtype in _ARRAYS.items():
        a = arrays[name]
        ok = a.dtype.kind == "u" if dtype is None else a.dtype == dtype
        if not ok or a.ndim != 1:
            want = "unsigned integer" if dtype is None else np.dtype(dtype).name
            raise ValueError(f"{name}.npy must be a 1-d {want} array, got {a.ndim}-d {a.dtype}")
    offsets, doc_ords, tfs = arrays["offsets"], arrays["doc_ords"], arrays["tfs"]
    if len(offsets) != vocab_size + 1:
        raise ValueError(f"offsets.npy holds {len(offsets)} entries for {vocab_size} terms")
    if offsets[0] != 0 or np.any(offsets[1:] < offsets[:-1]):
        raise ValueError("offsets.npy must start at 0 and never decrease")
    if not offsets[-1] == len(doc_ords) == len(tfs):
        raise ValueError(
            f"offsets.npy ends at {offsets[-1]}, but doc_ords.npy holds {len(doc_ords)} "
            f"postings and tfs.npy {len(tfs)}"
        )
    for name in ("doc_lengths", "docid_rank"):
        if len(arrays[name]) != doc_count:
            raise ValueError(f"{name}.npy holds {len(arrays[name])} entries for {doc_count} passages")
    if len(doc_ords) and (doc_ords.min() < 0 or doc_ords.max() >= doc_count):
        raise ValueError(f"doc_ords.npy holds an ordinal outside 0..{doc_count - 1}")
    rank = arrays["docid_rank"]
    if doc_count and (rank.min() < 0 or rank.max() >= doc_count):
        raise ValueError(f"docid_rank.npy holds a rank outside 0..{doc_count - 1}")
    seen = np.zeros(doc_count, dtype=bool)
    seen[rank] = True
    if not seen.all():
        raise ValueError("docid_rank.npy is not a permutation of the doc ordinals")


def build_index(passages: Iterable[Passage], tokenizer: TokenizerConfig | None = None) -> InvertedIndex:
    """Single-pass, deterministic build: term and doc ordinals follow first
    occurrence in the input stream, which is iterated once.

    Each passage is tokenized once and its tokens become an int32 term-id
    stream. Every ``_BLOCK_PASSAGES`` passages that stream is inverted with
    one numpy sort of (term id, passage) keys, and the block is appended to
    a temporary spill file at once; only its sizes, the running document
    frequencies and the largest tf stay in memory. At the end the postings
    arrays are allocated once and the blocks are read back, in doc order
    and one at a time, and scattered into them, so doc ordinals ascend
    within every term. The build thus holds the final arrays plus one
    block, and no posting is ever a Python object.

    The spill file takes ~9 B of temporary disk per posting (int32 doc
    ordinal and uint8 tf, plus an int32 term id and count per (block, term)
    group, ~0.49 groups per posting on the benchmark corpus). It is made
    with :func:`tempfile.TemporaryFile`, so it lives in ``TMPDIR``, is
    unlinked at once on POSIX systems and is gone when the build returns or
    raises. The files saved are the same for any block size.
    """
    tokenizer = tokenizer or TokenizerConfig()
    # A term seen for the first time gets the vocabulary size as its id.
    term_ids: defaultdict[str, int] = defaultdict()
    term_ids.default_factory = term_ids.__len__
    doc_ids: list[str] = []
    doc_lengths: list[int] = []
    stream: list[str] = []
    # (groups, postings, tf dtype) of each spilled block, in doc order.
    spilled: list[tuple[int, int, np.dtype]] = []
    # Document frequencies, grown geometrically with the vocabulary.
    df = np.zeros(0, dtype=np.int64)
    max_tf = 0

    with tempfile.TemporaryFile() as spill:

        def flush() -> None:
            nonlocal df, max_tf
            first = len(spilled) * _BLOCK_PASSAGES
            ids = np.fromiter(map(term_ids.__getitem__, stream), dtype=np.int32, count=len(stream))
            block = _invert_block(ids, np.asarray(doc_lengths[first:], dtype=np.int64), first)
            stream.clear()
            if len(df) < len(term_ids):
                df = np.concatenate((df, np.zeros(max(len(term_ids), 2 * len(df)) - len(df), np.int64)))
            df[block.terms] += block.counts
            max_tf = max(max_tf, int(block.tfs.max(initial=0)))
            for array in block:
                spill.write(array)
            spilled.append((len(block.terms), len(block.docs), block.tfs.dtype))

        for passage in passages:
            doc_ids.append(passage.doc_id)
            tokens = tokenizer(passage.text)
            doc_lengths.append(len(tokens))
            stream += tokens
            if len(doc_ids) % _BLOCK_PASSAGES == 0:
                flush()
        if not doc_ids:
            raise ValueError("cannot build an index from an empty passage collection")
        if len(doc_ids) % _BLOCK_PASSAGES:
            flush()

        offsets = np.zeros(len(term_ids) + 1, dtype=np.int64)
        np.cumsum(df[: len(term_ids)], out=offsets[1:])
        doc_ords = np.empty(int(offsets[-1]), dtype=np.int32)
        tfs = np.empty(int(offsets[-1]), dtype=np.min_scalar_type(max_tf))
        # fill[t]: where the next posting of term t goes. Blocks are read
        # back in doc order, so each term's postings land in ascending doc
        # order.
        fill = offsets[:-1].copy()
        spill.seek(0)
        for groups, postings, tf_dtype in spilled:
            block = _Block(
                terms=np.empty(groups, np.int32),
                counts=np.empty(groups, np.int32),
                docs=np.empty(postings, np.int32),
                tfs=np.empty(postings, tf_dtype),
            )
            for array in block:
                spill.readinto(array)
            group_starts = np.cumsum(block.counts) - block.counts
            pos = np.repeat(fill[block.terms] - group_starts, block.counts)
            pos += np.arange(len(pos))
            doc_ords[pos] = block.docs
            tfs[pos] = block.tfs
            fill[block.terms] += block.counts

    lengths = np.asarray(doc_lengths, dtype=np.int64)
    return InvertedIndex(
        terms=list(term_ids),
        doc_ids=doc_ids,
        offsets=offsets,
        doc_ords=doc_ords,
        tfs=tfs,
        doc_lengths=lengths,
        docid_rank=id_rank(doc_ids),
        avg_doc_len=float(lengths.mean()),
        tokenizer=tokenizer,
    )


class _Block(NamedTuple):
    """The postings of one block of passages, grouped by term: ``terms``
    (ascending) each own the next ``counts`` entries of ``docs`` (global
    doc ordinals, ascending within a term) and ``tfs``. The first three are
    int32. build_index spills the fields in this order and reads them back
    in the same order."""

    terms: np.ndarray
    counts: np.ndarray
    docs: np.ndarray
    tfs: np.ndarray


def _invert_block(ids: np.ndarray, lengths: np.ndarray, first_doc: int) -> _Block:
    """Invert the term-id stream of the passages ``first_doc, first_doc + 1,
    ...``, whose token counts are ``lengths``, with one sort."""
    n = len(lengths)
    owner = np.repeat(np.arange(n, dtype=np.int64), lengths)
    keys, tfs = np.unique(ids.astype(np.int64) * n + owner, return_counts=True)
    tids, local = np.divmod(keys, n)
    group_starts = np.flatnonzero(np.diff(tids, prepend=-1))
    return _Block(
        terms=tids[group_starts].astype(np.int32),
        counts=np.diff(group_starts, append=len(keys)).astype(np.int32),
        docs=(local + first_doc).astype(np.int32),
        tfs=tfs.astype(np.min_scalar_type(int(tfs.max(initial=0)))),
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
        """Top-k by BM25 in :func:`convpr.runs.best_first` order with
        ``docid_rank``; only docs scoring > 0 appear, so there may be fewer."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        scores = self._score_all(tokens)
        cand = np.flatnonzero(scores > 0.0)
        found = scores[cand]
        if cand.size > k:
            # Sort only the candidates at or above the k-th best score, all
            # tied with it too: best_first picks which of those make the cut.
            keep = found >= np.partition(found, cand.size - k)[cand.size - k]
            cand, found = cand[keep], found[keep]
        top = cand[best_first(found, lambda: self.index.docid_rank[cand], k)]
        return RankedList(qid, self.index._doc_id_array[top].tolist(), scores[top])

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
