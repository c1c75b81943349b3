"""Reciprocal rank fusion and reranking by external scores.

RRF scores a passage by sum over input lists of 1/(k + rank), where rank
is the passage's 1-based position in the list; passages absent from a list
contribute nothing for it. The paper's two pipeline shapes are both
:func:`fuse_runs` followed, when rerank scores are given, by
:func:`rerank_run`. Early fusion fuses the query variants' first-stage
runs and reranks the fused run, so the expensive reranker runs once; late
fusion only fuses runs that each variant has already reranked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import open_text, reject_bools
from .runs import RankedList, qid_sort_key

DEFAULT_FUSION_DEPTH = 1000

@dataclass(frozen=True)
class RrfParams:
    k: float = 60.0

    def __post_init__(self) -> None:
        reject_bools(self, "rrf ")
        if not 0 < self.k < math.inf:
            raise ValueError(f"rrf k must be finite and > 0, got {self.k}")


def rrf_fuse(
    lists: Sequence[RankedList],
    params: RrfParams | None = None,
    depth: int = DEFAULT_FUSION_DEPTH,
) -> RankedList:
    """Fuse lists for one qid; ties break by ascending doc_id, output is
    truncated to ``depth``."""
    if not lists:
        raise ValueError("rrf_fuse needs at least one ranked list")
    if depth < 1:
        raise ValueError(f"fusion depth must be >= 1, got {depth}")
    params = params or RrfParams()
    qid = lists[0].qid
    for rl in lists[1:]:
        if rl.qid != qid:
            raise ValueError(f"cannot fuse lists with mismatched qids {qid!r} and {rl.qid!r}")
    # Every doc's score is summed list by list from 0.0, the same float
    # additions in the same order as a per-doc running sum.
    slot: dict[str, int] = {}
    slots = [[slot.setdefault(d, len(slot)) for d in rl.ids] for rl in lists]
    fused = np.zeros(len(slot), dtype=np.float64)
    for positions in slots:
        fused[positions] += 1.0 / (params.k + np.arange(1, len(positions) + 1))
    return RankedList.from_scores(qid, list(slot), fused, depth)


def load_rerank_scores(
    path: str | Path, *, pool: dict[str, str] | None = None
) -> dict[str, dict[str, float]]:
    """Read ``qid<TAB>doc_id<TAB>score`` rows into ``{qid: {doc_id: score}}``,
    one score per (qid, doc) pair and no NaN, which would order a reranked
    list arbitrarily. Every qid and doc id is stored as ``pool.setdefault(s,
    s)``, so equal ids share one string object, within the file and with the
    runs read with the same ``pool`` (a fresh one when None)."""
    path = Path(path)
    intern = (pool if pool is not None else {}).setdefault
    scores: dict[str, dict[str, float]] = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected qid<TAB>doc_id<TAB>score")
            qid, doc_id, score_s = parts
            by_doc = scores.get(qid)
            if by_doc is None:
                by_doc = scores[intern(qid, qid)] = {}
            doc_id = intern(doc_id, doc_id)
            if doc_id in by_doc:
                raise ValueError(f"{path}:{lineno}: duplicate score for ({qid!r}, {doc_id!r})")
            try:
                score = float(score_s)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad score: {exc}") from exc
            if math.isnan(score):
                raise ValueError(f"{path}:{lineno}: score is NaN")
            by_doc[doc_id] = score
    return scores


def rerank(ranked: RankedList, scores: Mapping[str, Mapping[str, float]]) -> RankedList:
    """Reorder a list by ``{qid: {doc_id: score}}``, keeping membership identical.

    Every (qid, doc) pair must be covered; missing pairs are an error so a
    partial score file cannot silently drop or misplace candidates.
    """
    qid = ranked.qid
    by_doc = scores.get(qid, {})
    try:
        rescored = list(map(by_doc.__getitem__, ranked.ids))
    except KeyError:
        missing = [d for d in ranked.ids if d not in by_doc]
        shown = ", ".join(repr(d) for d in missing[:5])
        more = f" (+{len(missing) - 5} more)" if len(missing) > 5 else ""
        raise ValueError(
            f"rerank scores missing for qid {qid!r}: first missing pair "
            f"({qid!r}, {missing[0]!r}); all missing: {shown}{more}"
        ) from None
    return RankedList.from_scores(qid, ranked.ids, rescored)


def fuse_runs(
    runs: Sequence[Mapping[str, RankedList]],
    params: RrfParams | None = None,
    depth: int = DEFAULT_FUSION_DEPTH,
) -> dict[str, RankedList]:
    """Apply rrf_fuse per qid across whole runs; qids missing from some runs
    are fused over the lists that do have them."""
    if not runs:
        raise ValueError("fuse_runs needs at least one run")
    if depth < 1:
        raise ValueError(f"fusion depth must be >= 1, got {depth}")
    qids = sorted({qid for run in runs for qid in run}, key=qid_sort_key)
    return {
        qid: rrf_fuse([run[qid] for run in runs if qid in run], params, depth) for qid in qids
    }


def rerank_run(
    run: Mapping[str, RankedList], scores: Mapping[str, Mapping[str, float]]
) -> dict[str, RankedList]:
    return {qid: rerank(rl, scores) for qid, rl in run.items()}
