"""Immutable inverted index with BM25 top-k retrieval.

Postings live in a flat term-major layout (one slice per term) so the
scoring kernels in :mod:`convpr._bm25` can run over plain arrays. Within
a term the postings are ordered by (term frequency, doc ordinal), so they
fall into tf groups, one per (term, tf) pair, in ascending tf, and each
group's tf is stored once. Passages are numbered in doc-id order, so a
doc ordinal is its tie rank for :func:`convpr.runs.best_first`. An index
directory (layout v8) holds ``meta.json`` (format, version and the sha256
of each other file), ``tokenizer.json`` (the tokenizer's settings),
``terms.txt`` and ``doc_ids.txt`` (by id and by ordinal, one UTF-8 entry
per ``\n``-terminated line) and five numpy arrays. Each array is stored
in the smallest unsigned integer dtype that holds its bound, the largest
value it may hold:

- ``term_groups`` (vocab + 1; bound: the group count): term ``t``'s groups
  are ``term_groups[t]:term_groups[t + 1]``;
- ``group_offsets`` (groups + 1; bound: the posting count): group ``g``'s
  postings are ``group_offsets[g]:group_offsets[g + 1]``;
- ``group_tfs`` (groups; bound: the largest term frequency): each group's
  term frequency, strictly increasing within a term; the kernels promote
  it to float64 exactly;
- ``doc_ords`` (bound: passages - 1): each posting's doc ordinal, ascending
  within a group;
- ``doc_lengths`` (bound: the longest passage): tokens per passage.

:meth:`InvertedIndex.save` narrows whatever arrays the index holds to
these dtypes and checks them against each other before it writes a file;
:meth:`InvertedIndex.load` checks only that each file's sha256 is the one
``save`` recorded. No array needs a decode step: the kernels repeat each
group's tf over its postings, whatever its dtype.

In memory the index holds each table once: its terms as one dict from
term to id, in id order (``terms.txt`` holds its keys), and its doc ids as
one numpy object array, from which a search gathers result ids in one call.
It also derives ``offsets = group_offsets[term_groups]`` (vocab + 1), each
term's posting bounds, on which document frequencies and search rest.

:func:`build_index` inverts the corpus block by block with numpy, so no
posting is ever a Python object. The scoring variant is the Lucene one:

    IDF(t) = ln(1 + (N - df + 0.5) / (df + 0.5))
    score(q, d) = sum over query tokens of IDF * tf*(k1+1) / (tf + k1*(1 - b + b*dl/avgdl))

summed with query-token multiplicity (no query-frequency saturation).
Indexes are write-once; after construction or load every structure is
read-only, so concurrent searches over one index are safe. A Searcher
computes every term's max score (HQE's keyword-extractor score) in one
kernel pass on first use, as a float64 array by term id.
"""

from __future__ import annotations

import json
import math
import tempfile
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import _bm25
from .corpus import Passage, file_digest, reject_bools
from .runs import RankedList, best_first, id_rank
from .tokenization import TokenizerConfig

_FORMAT = "convpr.index"
# Bumped by any change to the layout, and by any change that alters a
# search result without one: the experiment cache keys every index, and so
# every run searched on it, by this version.
_VERSION = 9
# Passages per inverted block of build_index. A block's sort and scatter
# temporaries grow with it; per-block numpy call overhead shrinks with it.
_BLOCK_PASSAGES = 256

# Postings that build_index sorts by tf at once, in runs of whole terms.
_SORT_POSTINGS = 1 << 16
# Postings whose term frequencies save adds up at once.
_CHECK_POSTINGS = 1 << 15

# The arrays of an index directory, each saved as <name>.npy.
_ARRAYS = ("term_groups", "group_offsets", "group_tfs", "doc_ords", "doc_lengths")
# The files whose sha256 meta.json records.
_FILES = ("terms.txt", "doc_ids.txt", *(f"{name}.npy" for name in _ARRAYS), "tokenizer.json")
# Arrays of earlier layouts; save removes them from a reused directory.
_OLD_ARRAYS = ("offsets", "tfs", "docid_rank")


def _uint(bound: int) -> np.dtype:
    """The smallest unsigned integer dtype that holds ``0..bound``."""
    return np.min_scalar_type(bound)


@dataclass(frozen=True)
class Bm25Params:
    """k1/b defaults follow the tuned first-stage configuration."""

    k1: float = 0.82
    b: float = 0.68

    def __post_init__(self) -> None:
        reject_bools(self)
        if not 0 <= self.k1 < math.inf:
            raise ValueError(f"k1 must be finite and >= 0, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {self.b}")


class InvertedIndex:
    def __init__(
        self,
        term_ids: dict[str, int],
        doc_ids: np.ndarray,
        term_groups: np.ndarray,
        group_offsets: np.ndarray,
        group_tfs: np.ndarray,
        doc_ords: np.ndarray,
        doc_lengths: np.ndarray,
        tokenizer: TokenizerConfig,
    ):
        self.term_ids = term_ids
        self.doc_ids = doc_ids
        self.term_groups = term_groups
        self.group_offsets = group_offsets
        self.group_tfs = group_tfs
        self.offsets = offsets = group_offsets[term_groups]
        self.doc_ords = doc_ords
        self.doc_lengths = doc_lengths
        self.tokenizer = tokenizer
        self.avg_doc_len = float(doc_lengths.mean()) if len(doc_lengths) else 0.0

        df = (offsets[1:] - offsets[:-1]).astype(np.float64)
        n = float(len(doc_ids))
        self.idf = np.log1p((n - df + 0.5) / (df + 0.5))

    @property
    def doc_count(self) -> int:
        return len(self.doc_ids)

    @property
    def vocab_size(self) -> int:
        return len(self.term_ids)

    def tokenize(self, text: str) -> list[str]:
        return self.tokenizer(text)

    def df(self, term: str) -> int:
        tid = self.term_ids.get(term)
        return 0 if tid is None else int(self.offsets[tid + 1] - self.offsets[tid])

    # -- persistence -------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write a versioned directory, ``meta.json`` last (an earlier one
        first removed, with any old-layout arrays), each array in the dtype
        of its bound; rebuilding the same corpus yields byte-identical files.
        The arrays are checked before the first file is written, so an
        inconsistent index is never saved."""
        path = Path(path)
        # Each array is narrowed to the dtype of its bound (a no-op for the
        # arrays of build_index), so wider arrays save the same bytes.
        bounds = {
            "term_groups": len(self.group_tfs),
            "group_offsets": len(self.doc_ords),
            "group_tfs": self.group_tfs.max(initial=0),
            "doc_ords": max(self.doc_count - 1, 0),
            "doc_lengths": self.doc_lengths.max(initial=0),
        }
        arrays = {}
        for name, bound in bounds.items():
            array, bound = getattr(self, name), int(bound)
            narrow = arrays[name] = array.astype(_uint(bound), copy=False)
            # A value the narrow dtype cannot hold would wrap into one that
            # passes the checks, such as ordinal 257 of 3 passages as 1.
            if narrow is not array and not np.array_equal(narrow, array):
                raise ValueError(f"{name} holds a value outside 0..{bound}")
        _check_arrays(arrays, self.vocab_size, self.doc_ids)
        path.mkdir(parents=True, exist_ok=True)
        for name in ("meta.json", *(f"{array}.npy" for array in _OLD_ARRAYS)):
            (path / name).unlink(missing_ok=True)
        _write_json(path / "tokenizer.json", self.tokenizer.to_dict())
        _write_lines(path / "terms.txt", self.term_ids)
        _write_lines(path / "doc_ids.txt", self.doc_ids)
        for name, array in arrays.items():
            np.save(path / f"{name}.npy", array)
        digests = {name: file_digest(path / name) for name in _FILES}
        _write_json(path / "meta.json", {"format": _FORMAT, "version": _VERSION, "sha256": digests})

    @classmethod
    def load(cls, path: str | Path) -> "InvertedIndex":
        """Read a directory written by :meth:`save`, deriving every count from
        its tables. Every file's sha256 must be the one ``meta.json``
        records, so a file changed since save, by damage or by hand, is a
        ValueError here and not a wrong score later; the tokenizer is read
        only once its file's digest matches."""
        path = Path(path)
        try:
            with (path / "meta.json").open("r", encoding="utf-8") as fh:
                meta = json.load(fh)
            if not isinstance(meta, dict) or meta.get("format") != _FORMAT or meta.get("version") != _VERSION:
                raise ValueError(f"not a {_FORMAT} v{_VERSION} directory")
            digests = meta.get("sha256")
            if not isinstance(digests, dict) or sorted(digests) != sorted(_FILES):
                raise ValueError(f"meta.json must give the sha256 of each of {', '.join(_FILES)}")
            for name in _FILES:
                if not (path / name).is_file() or file_digest(path / name) != digests[name]:
                    raise ValueError(f"{name} changed or damaged since save")
            tokenizer = TokenizerConfig.from_dict(json.loads((path / "tokenizer.json").read_bytes()))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        term_ids = {t: i for i, t in enumerate(_read_lines(path / "terms.txt"))}
        doc_ids = np.array(_read_lines(path / "doc_ids.txt"), dtype=object)
        arrays = {name: np.load(path / f"{name}.npy", allow_pickle=False) for name in _ARRAYS}
        return cls(term_ids, doc_ids, tokenizer=tokenizer, **arrays)


def _write_json(path: Path, record: dict) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        json.dump(record, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_lines(path: Path, entries: Iterable[str]) -> None:
    """Write ``entries`` as UTF-8 lines, each ending in ``\n``, 65536 at a
    time, so the file is never one string. An entry with ``\n`` is a ValueError."""
    entries = iter(entries)
    with path.open("wb") as fh:
        while chunk := list(islice(entries, 1 << 16)):
            text = "\n".join(chunk) + "\n"
            if text.count("\n") != len(chunk):
                bad = next(e for e in chunk if "\n" in e)
                raise ValueError(f"{path.name}: entry {bad!r} holds a line break")
            fh.write(text.encode("utf-8"))


def _read_lines(path: Path) -> list[str]:
    """The entries of a :func:`_write_lines` file."""
    return path.read_bytes().decode("utf-8").split("\n")[:-1]


def _check_arrays(arrays: dict[str, np.ndarray], vocab_size: int, doc_ids: np.ndarray) -> None:
    """Raise ValueError unless ``arrays`` form a consistent index of
    ``vocab_size`` terms and the passages ``doc_ids``. Each check is O(n)."""
    doc_count = len(doc_ids)
    for name, a in arrays.items():
        if a.ndim != 1:
            raise ValueError(f"{name} must be a 1-d array, got {a.ndim}-d")
    term_groups, group_offsets = arrays["term_groups"], arrays["group_offsets"]
    group_tfs, doc_ords = arrays["group_tfs"], arrays["doc_ords"]
    _check_slices("term_groups", term_groups, "term", vocab_size, "groups", "group_tfs", len(group_tfs))
    _check_slices(
        "group_offsets", group_offsets, "group", len(group_tfs), "postings", "doc_ords", len(doc_ords)
    )
    doc_lengths = arrays["doc_lengths"]
    if len(doc_lengths) != doc_count:
        raise ValueError(f"doc_lengths holds {len(doc_lengths)} entries for {doc_count} passages")
    # A posting's tf is >= 1, so every term's max score is > 0.
    if len(group_tfs) and group_tfs.min() == 0:
        raise ValueError("group_tfs holds a term frequency of 0")
    # One group per (term, tf), in ascending tf, as build_index writes them;
    # a term's first group may hold any tf.
    rises = group_tfs[1:] > group_tfs[:-1]
    rises[term_groups[1:-1] - 1] = True
    if not rises.all():
        raise ValueError("group_tfs must strictly increase within each term")
    if len(doc_ords) and doc_ords.max() >= doc_count:
        raise ValueError(f"doc_ords holds an ordinal outside 0..{doc_count - 1}")
    # A repeated ordinal would add to one passage's score twice. Falls are
    # counted over all postings and at group starts, where they are allowed,
    # so no temporary of the posting count outlives its count.
    starts = group_offsets[1:-1]
    falls = np.count_nonzero(doc_ords[1:] <= doc_ords[:-1])
    if falls != np.count_nonzero(doc_ords[starts] <= doc_ords[starts - 1]):
        raise ValueError("doc_ords must strictly increase within each tf group (a repeated ordinal?)")
    # Unique and in id order, so each ordinal is its passage's tie rank.
    if not np.all(doc_ids[:-1] < doc_ids[1:]):
        raise ValueError("doc_ids must strictly increase (a repeated id or ids out of order)")
    _check_lengths(doc_ords, group_offsets, group_tfs, doc_lengths)


def _check_lengths(
    doc_ords: np.ndarray, group_offsets: np.ndarray, group_tfs: np.ndarray, doc_lengths: np.ndarray
) -> None:
    """Raise ValueError unless each passage's postings' term frequencies sum
    to its entry of ``doc_lengths``. A moved doc ordinal changes two sums,
    even one that repeats a passage in two tf groups of one term, which the
    check within each group cannot see. The postings are summed
    ``_CHECK_POSTINGS`` at a time, so no temporary but the sums, one per
    passage, grows with the index."""
    total = len(doc_ords)
    # The runs' bounds, in the dtype of group_offsets, so that searchsorted
    # does not convert the whole array.
    cuts = np.append(np.arange(0, total, _CHECK_POSTINGS), total).astype(group_offsets.dtype)
    firsts = np.searchsorted(group_offsets, cuts[:-1], "right") - 1
    ends = np.searchsorted(group_offsets, cuts[1:], "left")
    sums = np.zeros(len(doc_lengths), dtype=np.uint64)
    for s, e, g, h in zip(cuts[:-1].tolist(), cuts[1:].tolist(), firsts.tolist(), ends.tolist()):
        sizes = np.diff(np.clip(group_offsets[g : h + 1], s, e)).astype(np.intp)
        # In the dtype of sums, which np.add.at needs for its fast path.
        tfs = np.repeat(group_tfs[g:h].astype(np.uint64), sizes)
        np.add.at(sums, doc_ords[s:e].astype(np.intp), tfs)
    wrong = np.flatnonzero(sums != doc_lengths)
    if len(wrong):
        d = wrong[0]
        raise ValueError(
            f"doc_ords and group_tfs give passage {d} {sums[d]} tokens, but doc_lengths gives it"
            f" {doc_lengths[d]} (a moved doc ordinal?)"
        )


def _check_slices(
    name: str, bounds: np.ndarray, owner: str, owners: int, held: str, source: str, total: int
) -> None:
    """Raise ValueError unless ``bounds`` cuts ``0..total``, the ``held``
    entries of ``source``, into one non-empty slice for each of
    ``owners`` items named ``owner``."""
    if len(bounds) != owners + 1:
        raise ValueError(f"{name} holds {len(bounds)} entries for {owners} {owner}s")
    if bounds[0] != 0 or np.any(bounds[1:] < bounds[:-1]):
        raise ValueError(f"{name} must start at 0 and never decrease")
    # build_index writes no empty slice; the max-score kernel takes none.
    empty = np.flatnonzero(bounds[1:] == bounds[:-1])
    if len(empty):
        raise ValueError(f"{name} gives {owner} {empty[0]} no {held}")
    if bounds[-1] != total:
        raise ValueError(f"{name} ends at {bounds[-1]}, but {source} holds {total} {held}")


def build_index(passages: Iterable[Passage], tokenizer: TokenizerConfig | None = None) -> InvertedIndex:
    """Single-pass, deterministic build: term ids follow first occurrence in
    the input stream, which is iterated once, and doc ordinals follow doc-id
    order.

    Each passage is tokenized once and its tokens become an int32 term-id
    stream. Every ``_BLOCK_PASSAGES`` passages that stream is inverted with
    one numpy sort of (term id, passage) keys, and the block is appended to
    a temporary spill file at once; only its sizes, the running document
    frequencies and the largest tf and passage length stay in memory. At
    the end the postings arrays are allocated once, in their final dtypes,
    and the blocks are read back one at a time and scattered into them,
    each stream position mapped to its ordinal in doc-id order. Then
    :func:`_group_by_tf` orders each term's postings by (tf, ordinal) and
    drops the per-posting tfs for one tf per group. The build thus holds
    the final arrays, the per-posting tfs and one block, and no posting is
    ever a Python object. The offsets and group bounds are summed in int64
    and narrowed once, at the end.

    The spill file takes ~9 B of temporary disk per posting (int32 doc
    ordinal and uint8 tf, plus an int32 term id and count per (block, term)
    pair, ~0.49 pairs per posting on the benchmark corpus). It is made
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
    # (terms, postings, tf dtype) of each spilled block, in doc order.
    spilled: list[tuple[int, int, np.dtype]] = []
    # Document frequencies, grown geometrically with the vocabulary.
    df = np.zeros(0, dtype=np.int64)
    max_tf = max_len = 0

    with tempfile.TemporaryFile() as spill:

        def flush() -> None:
            nonlocal df, max_tf, max_len
            first = len(spilled) * _BLOCK_PASSAGES
            ids = np.fromiter(map(term_ids.__getitem__, stream), dtype=np.int32, count=len(stream))
            lengths = np.asarray(doc_lengths[first:], dtype=np.int64)
            max_len = max(max_len, int(lengths.max()))
            block = _invert_block(ids, lengths, first)
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

        # The passage at stream position i gets ordinal rank[i]. id_rank
        # sorts this array, so the ids are never copied.
        doc_ids = np.array(doc_ids, dtype=object)
        rank = id_rank(doc_ids)
        offsets = np.zeros(len(term_ids) + 1, dtype=np.int64)
        np.cumsum(df[: len(term_ids)], out=offsets[1:])
        total = int(offsets[-1])
        doc_ords = np.empty(total, dtype=_uint(len(doc_ids) - 1))
        tfs = np.empty(total, dtype=_uint(max_tf))
        # fill[t]: where the next posting of term t goes.
        fill = offsets[:-1].copy()
        spill.seek(0)
        for terms, postings, tf_dtype in spilled:
            block = _Block(
                terms=np.empty(terms, np.int32),
                counts=np.empty(terms, np.int32),
                docs=np.empty(postings, np.int32),
                tfs=np.empty(postings, tf_dtype),
            )
            for array in block:
                spill.readinto(array)
            group_starts = np.cumsum(block.counts) - block.counts
            pos = np.repeat(fill[block.terms] - group_starts, block.counts)
            pos += np.arange(len(pos))
            doc_ords[pos] = rank[block.docs]
            tfs[pos] = block.tfs
            fill[block.terms] += block.counts

    term_groups, group_offsets, group_tfs = _group_by_tf(offsets, doc_ords, tfs, len(doc_ids))
    del tfs  # one tf per group from here on
    # The index keeps this dict; from now on a missing term is not added.
    term_ids.default_factory = None
    by_ordinal, lengths = np.empty_like(doc_ids), np.empty(len(doc_ids), dtype=_uint(max_len))
    by_ordinal[rank], lengths[rank] = doc_ids, doc_lengths
    return InvertedIndex(
        term_ids=term_ids,
        doc_ids=by_ordinal,
        term_groups=term_groups,
        group_offsets=group_offsets,
        group_tfs=group_tfs,
        doc_ords=doc_ords,
        doc_lengths=lengths,
        tokenizer=tokenizer,
    )


def _group_by_tf(
    offsets: np.ndarray, doc_ords: np.ndarray, tfs: np.ndarray, doc_count: int
) -> tuple[np.ndarray, ...]:
    """Order each term's postings in ``doc_ords`` by (tf, doc ordinal), in
    place, and return ``term_groups``, ``group_offsets`` and ``group_tfs``,
    each in the dtype of its bound. ``offsets`` (int64) bounds each term's
    postings, ordinals below ``doc_count`` in any order, and ``tfs`` are
    their term frequencies.

    Each run of whole terms of at most ``_SORT_POSTINGS`` postings, or one
    longer term, is sorted as one array of uint64 keys (term, tf, ordinal),
    so the temporaries stay at the run's size (a longer term's size). A run
    is shorter where its keys would not fit; one term's fit while bits(max
    tf) + bits(doc_count - 1) <= 64, as in any collection that fits in memory."""
    vocab, total = len(offsets) - 1, int(offsets[-1])
    span = int(tfs.max(initial=0)) + 1
    bits = (doc_count - 1).bit_length()
    # The keys of a run of n terms are below (n * span) << bits.
    run_terms = max(1, (1 << (64 - bits)) // span)
    # A first part of no groups gives each cumulative sum its leading 0.
    parts = [(np.zeros(1, np.int64), tfs[:0], np.zeros(1, np.int64))]
    t = 0
    while t < vocab:
        u = max(t + 1, int(np.searchsorted(offsets, offsets[t] + _SORT_POSTINGS, "right")) - 1)
        u = min(u, t + run_terms)
        parts.append(_group_run(offsets[t : u + 1], doc_ords, tfs, span, bits))
        t = u
    sizes, group_tfs, term_groups = zip(*parts)
    group_offsets = np.cumsum(np.concatenate(sizes))
    term_groups = np.cumsum(np.concatenate(term_groups))
    groups = int(term_groups[-1])
    return (
        term_groups.astype(_uint(groups)),
        group_offsets.astype(_uint(total)),
        np.concatenate(group_tfs),
    )


def _group_run(
    offsets: np.ndarray, doc_ords: np.ndarray, tfs: np.ndarray, span: int, bits: int
) -> tuple[np.ndarray, ...]:
    """:func:`_group_by_tf` for the terms whose postings ``offsets`` bounds:
    their groups' sizes, their tfs (in the dtype of ``tfs``) and each
    term's group count. Every tf is below ``span`` and every ordinal below
    ``1 << bits``."""
    s, e, top = int(offsets[0]), int(offsets[-1]), (len(offsets) - 1) * span
    keys = np.repeat(np.arange(0, top, span, dtype=np.uint64), np.diff(offsets))
    keys += tfs[s:e]
    keys <<= bits
    keys |= doc_ords[s:e]
    keys.sort()
    np.bitwise_and(keys, (1 << bits) - 1, out=doc_ords[s:e], casting="unsafe")
    keys >>= bits
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    group_terms, group_tfs = np.divmod(keys[starts].astype(np.int64), span)
    counts = np.bincount(group_terms, minlength=len(offsets) - 1)
    return np.diff(starts, append=e - s), group_tfs.astype(tfs.dtype), counts


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

    Stateless apart from the per-term max-score array, which is filled
    once with recomputable values, so shared use across threads is safe.
    """

    def __init__(self, index: InvertedIndex, params: Bm25Params | None = None):
        self.index = index
        self.params = params or Bm25Params()
        dl = index.doc_lengths.astype(np.float64)
        ratio = dl / index.avg_doc_len if index.avg_doc_len > 0 else np.zeros_like(dl)
        self._len_norm = self.params.k1 * (1.0 - self.params.b + self.params.b * ratio)
        # Each tf group's size and tf in the kernel's dtypes, so that a query
        # term's tf column is one np.repeat of two slices.
        self._group_sizes = np.diff(index.group_offsets.astype(np.intp))
        self._group_tfs = index.group_tfs.astype(np.float64)
        self._term_max: np.ndarray | None = None

    def tokenize(self, text: str) -> list[str]:
        return self.index.tokenize(text)

    def _query_weights(
        self, tokens: Sequence[str]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, _bm25.TfGroups]:
        """Posting-slice bounds, weights ``qtf * idf * (k1 + 1)`` and tf
        groups of the query's indexed terms, in first-occurrence order."""
        index = self.index
        counts = Counter(tid for tid in map(index.term_ids.get, tokens) if tid is not None)
        tids = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
        qtfs = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
        offsets, term_groups = index.offsets, index.term_groups
        groups = _bm25.TfGroups(term_groups[tids], term_groups[tids + 1], self._group_sizes, self._group_tfs)
        return offsets[tids], offsets[tids + 1], qtfs * index.idf[tids] * (self.params.k1 + 1.0), groups

    def _score_all(self, tokens: Sequence[str]) -> np.ndarray:
        scores = np.zeros(self.index.doc_count, dtype=np.float64)
        starts, ends, weights, groups = self._query_weights(tokens)
        if len(starts):
            _bm25.score_postings(starts, ends, weights, self.index.doc_ords, groups, self._len_norm, scores)
        return scores

    def search(self, tokens: Sequence[str], k: int = 1000, qid: str = "0") -> RankedList:
        """Top-k by BM25 in :func:`convpr.runs.best_first` order, a search's
        ordinals being its tie ranks; only docs scoring > 0 appear, so there
        may be fewer."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        scores = self._score_all(tokens)
        positive = scores > 0.0
        n_pos = int(np.count_nonzero(positive))
        # Keep every candidate at or above the k-th best positive score, all
        # tied with it too: best_first picks which of those make the cut.
        if n_pos > k and 2 * n_pos > scores.size:
            # Most passages score, so one partition of the dense array costs
            # less than gathering the positive scores first. Its k-th best
            # is the k-th best positive score, as more than k are positive.
            cand = np.flatnonzero(scores >= np.partition(scores, scores.size - k)[scores.size - k])
        else:
            cand = np.flatnonzero(positive)
            if n_pos > k:
                found = scores[cand]
                cand = cand[found >= np.partition(found, n_pos - k)[n_pos - k]]
        found = scores[cand]
        top = cand[best_first(found, lambda: cand, k)]
        # Unique by construction (ordinals are unique, save proves the doc
        # ids unique) and ordered by best_first, so the list skips the checks.
        return RankedList(qid, self.index.doc_ids[top].tolist(), scores[top], _ordered=True)

    def term_max_scores(self) -> np.ndarray:
        """Every term's best single-document score for a one-token query, by
        term id, computed in one kernel pass on first use."""
        if self._term_max is None:
            index, weights = self.index, self.index.idf * (self.params.k1 + 1.0)
            self._term_max = _bm25.max_posting_score(
                index.offsets, weights, index.doc_ords, index.group_offsets, index.group_tfs, self._len_norm
            )
        return self._term_max

    def max_score_term(self, term: str) -> float:
        """Best single-document score for a one-token query; 0.0 when the
        term is unindexed."""
        tid = self.index.term_ids.get(term)
        return 0.0 if tid is None else float(self.term_max_scores()[tid])

    def max_score(self, tokens: Sequence[str]) -> float:
        """Top-1 score of the whole token stream; 0.0 when nothing matches."""
        if not tokens:
            return 0.0
        return float(self._score_all(tokens).max(initial=0.0))
