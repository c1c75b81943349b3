"""Ranked result lists and the 6-column TREC run file format.

In memory a ranked list is two columns: a list of doc ids and a float64
array of their scores, best first; an entry's rank is its 1-based
position. A rank number exists only in run files, whose lines are
``qid Q0 doc_id rank score tag`` with ranks 1..n per qid; scores are
written with full float precision so that write → read round-trips are
exact.

Every ranking (search, fusion, reranking) is ordered by :func:`best_first`:
descending score, ties by ascending doc_id in Python's string order.

The same doc ids recur in every run of one experiment, so the readers
(:func:`read_run`, and ``fusion.load_rerank_scores`` into ``{qid: {doc_id:
score}}``) take an optional ``pool``: a dict that maps each id string to the
one object that stands for it. Readers given one pool return ``is``-identical
ids for equal ids, and fusion and reranking reuse the id objects of their
inputs, so an id is held once however many lists and score maps hold it.
"""

from __future__ import annotations

import warnings
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np


class RunFileWarning(UserWarning):
    """Recoverable oddity in a run: preserved as-is, but worth flagging."""


class RankedEntry(NamedTuple):
    doc_id: str
    score: float


def _score_column(qid: str, ids: Sequence[str], scores: Iterable[float]) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (len(ids),):
        raise ValueError(f"qid {qid}: {len(ids)} doc ids but scores of shape {scores.shape}")
    return scores


def id_rank(ids: Sequence[str]) -> np.ndarray:
    """Each id's position in Python's sort order of ``ids``, as int32 (numpy's
    string order would ignore trailing NULs)."""
    rank = np.empty(len(ids), dtype=np.int32)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids), dtype=np.int32)
    return rank


def best_first(scores: np.ndarray, tie_rank: Callable[[], np.ndarray], k: int | None = None) -> np.ndarray:
    """Positions of the first ``k`` (all when None) of ``scores`` (no NaN) by
    descending score, ties by ascending ``tie_rank()``: unique ranks >= 0, one
    per score, asked for only when two scores are equal (-0.0 and 0.0 too).
    If so, all are re-sorted, already nearly in order, by unique int64 keys
    ``place * (max rank + 1) + rank``; place counts the distinct scores above."""
    order = np.argsort(-scores)
    ordered = scores[order]
    new_place = ordered[1:] != ordered[:-1]
    if not new_place.all():
        key = np.zeros(order.size, dtype=np.int64)
        np.cumsum(new_place, out=key[1:])
        rank = tie_rank()[order]
        key *= int(rank.max()) + 1
        key += rank
        order = order[np.argsort(key, kind="stable")]
    return order[:k]


class RankedList:
    """Ordered results for one query id: ``ids`` (doc ids) and ``scores``
    (a float64 array of the same length); an entry's rank is its 1-based
    position.

    Doc_ids must be unique. Non-increasing scores are expected but only
    warned about, because external tools re-sort by score and we preserve
    whatever the file said.
    """

    __slots__ = ("qid", "ids", "scores")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, qid: str, ids: Sequence[str] = (), scores: Iterable[float] = ()) -> None:
        ids = list(ids)
        scores = _score_column(qid, ids, scores)
        if len(set(ids)) != len(ids):
            seen: set[str] = set()
            for doc_id in ids:
                if doc_id in seen:
                    raise ValueError(f"qid {qid}: duplicate doc_id {doc_id!r}")
                seen.add(doc_id)
        if np.any(scores[1:] > scores[:-1]):
            warnings.warn(
                f"qid {qid}: scores are not non-increasing; order preserved",
                RunFileWarning,
                stacklevel=2,
            )
        self.qid = qid
        self.ids = ids
        self.scores = scores

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RankedList):
            return NotImplemented
        return (
            self.qid == other.qid
            and self.ids == other.ids
            and np.array_equal(self.scores, other.scores)
        )

    def __repr__(self) -> str:
        return f"RankedList({self.qid!r}, {self.ids!r}, {self.scores.tolist()!r})"

    @property
    def entries(self) -> list[RankedEntry]:
        """The list as (doc_id, score) tuples with Python float scores."""
        return list(map(RankedEntry, self.ids, self.scores.tolist()))

    def doc_set(self) -> set[str]:
        return set(self.ids)

    def truncated(self, depth: int) -> "RankedList":
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        return RankedList(self.qid, self.ids[:depth], self.scores[:depth])

    @classmethod
    def from_scores(
        cls, qid: str, ids: Sequence[str], scores: Iterable[float], depth: int | None = None
    ) -> "RankedList":
        """Order doc ids by descending score, ties by ascending doc_id
        (:func:`best_first`), and keep the first ``depth`` (all when None)."""
        scores = _score_column(qid, ids, scores)
        order = best_first(scores, lambda: id_rank(ids), depth)
        return cls(qid, list(map(ids.__getitem__, order.tolist())), scores[order])


def qid_sort_key(qid: str):
    """Natural order for ids like ``31_4``: numeric segments sort numerically."""
    return tuple((0, int(seg)) if seg.isdigit() else (1, seg) for seg in qid.split("_"))


def write_run(path: str | Path, run: Mapping[str, RankedList] | Sequence[RankedList], tag: str = "convpr") -> None:
    """Write lists in natural qid order; scores use repr for exact round-trip."""
    if tag.split() != [tag]:
        raise ValueError(f"run tag {tag!r} is empty or has whitespace")
    lists = list(run.values()) if isinstance(run, Mapping) else list(run)
    seen: set[str] = set()
    for rl in lists:
        # read_run could not read the file back: the ranks would restart.
        if rl.qid in seen:
            raise ValueError(f"run has two ranked lists for qid {rl.qid!r}")
        seen.add(rl.qid)
        # Nor could it split a line whose qid or doc id is empty or has
        # whitespace into its 6 columns.
        if rl.qid.split() != [rl.qid]:
            raise ValueError(f"qid {rl.qid!r} is empty or has whitespace")
        if " ".join(rl.ids).split() != rl.ids:
            bad = next(d for d in rl.ids if d.split() != [d])
            raise ValueError(f"qid {rl.qid}: doc id {bad!r} is empty or has whitespace")
    lists.sort(key=lambda rl: qid_sort_key(rl.qid))
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for rl in lists:
            head, tail = f"{rl.qid} Q0 ", f" {tag}\n"
            rows = zip(range(1, len(rl) + 1), rl.ids, rl.scores.tolist())
            fh.write("".join([f"{head}{d} {rank} {s!r}{tail}" for rank, d, s in rows]))


def read_run(path: str | Path, *, pool: dict[str, str] | None = None) -> dict[str, RankedList]:
    """Parse a 6-column run file into one RankedList per qid.

    Rank gaps and NaN scores are errors; non-monotone scores produce a
    RunFileWarning. Every qid and doc id is stored as ``pool.setdefault(s,
    s)``, so equal ids share one string object, within the file and with
    every other reader given the same ``pool`` (a fresh one when None).
    """
    path = Path(path)
    if pool is None:
        pool = {}
    per_qid: dict[str, tuple[list[str], list[float]]] = {}
    qid_now = None
    ids: list[str] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 6:
                raise ValueError(f"{path}:{lineno}: expected 6 columns, found {len(parts)}")
            qid, _q0, doc_id, rank_s, score_s, _tag = parts
            try:
                rank = int(rank_s)
                score = float(score_s)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad rank/score: {exc}") from exc
            if score != score:  # NaN would order the list arbitrarily
                raise ValueError(f"{path}:{lineno}: qid {qid}: score is NaN")
            if qid != qid_now:  # a qid's lines are usually consecutive
                # Pool the finished qid's ids in one map call rather than one
                # call per line, so only one qid's unpooled strings are alive.
                ids[:] = map(pool.setdefault, ids, ids)
                qid_now = qid = pool.setdefault(qid, qid)
                ids, scores = per_qid.setdefault(qid, ([], []))
            if rank != len(ids) + 1:
                raise ValueError(
                    f"{path}:{lineno}: qid {qid}: rank {rank} does not follow {len(ids)}"
                )
            ids.append(doc_id)
            scores.append(score)
    ids[:] = map(pool.setdefault, ids, ids)
    return {qid: RankedList(qid, ids, scores) for qid, (ids, scores) in per_qid.items()}
