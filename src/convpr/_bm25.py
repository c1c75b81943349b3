"""BM25 scoring kernels over the flat postings layout of index.InvertedIndex.

Both kernels score whole posting slices as one vectorized numpy expression:
``score_postings`` one query term's at a time, ``max_posting_score`` runs
of terms. Term frequencies and doc ordinals are stored as unsigned
integers of the smallest dtype that holds them, and the kernels take them
as they are. Each tf slice is converted to float64 once (exactly), so the
arithmetic is float64 throughout; each ordinal slice is converted to
``intp`` once, because numpy would otherwise convert a narrower index
array again on every gather and scatter.

A contribution ``w * tf / (tf + len_norm[d])`` is computed in place on
those per-slice copies and on the gathered ``len_norm[d]``, so no other
temporary is allocated per slice but a run's repeated weights. IEEE
addition and multiplication are commutative, so ``len_norm[d] + tf`` and
``tf * w`` are the same bits as the expression's ``tf + len_norm[d]`` and
``w * tf``. The index arrays themselves are never written.
"""

from __future__ import annotations

import numpy as np

# Postings that max_posting_score scores at once.
_RUN_POSTINGS = 1 << 20


def get_backend() -> str:
    return "numpy"


def _contributions(d, tf, weight, len_norm):
    """``weight * tf / (tf + len_norm[d])``, computed in ``tf``, which must
    be a float64 copy of the slice's term frequencies."""
    den = len_norm[d]
    den += tf
    tf *= weight
    tf /= den
    return tf


def score_postings(starts, ends, weights, doc_ords, tfs, len_norm, scores) -> None:
    """scores[d] += w * tf / (tf + len_norm[d]) for each posting of each query term."""
    for t in range(starts.shape[0]):
        s, e = starts[t], ends[t]
        d = doc_ords[s:e].astype(np.intp)
        tf = tfs[s:e].astype(np.float64)
        # Doc ordinals are unique within one posting list and add.at adds in
        # index order, so each score gets the same single float addition as
        # with `scores[d] += ...`, only faster.
        np.add.at(scores, d, _contributions(d, tf, weights[t], len_norm))


def max_posting_score(offsets, weights, doc_ords, tfs, len_norm) -> np.ndarray:
    """Each term's largest single-posting contribution, a float64 array by
    term id. The postings are scored ``_RUN_POSTINGS`` at a time, so a
    term may span several runs, and the temporaries stay that size however
    long a term is. Every term must hold a posting (``offsets`` strictly
    increases): ``np.maximum.reduceat`` would give an empty term the next
    term's first value, and an empty last term would stay at -inf."""
    offsets = offsets.astype(np.int64)  # np.repeat and reduceat take no uint64 counts or indices
    out = np.full(len(offsets) - 1, -np.inf)
    total = int(offsets[-1])
    for s in range(0, total, _RUN_POSTINGS):
        e = min(s + _RUN_POSTINGS, total)
        # Terms t..u-1 hold postings s..e-1; bounds are their slices' ends within the run.
        t, u = np.searchsorted(offsets, [s, e - 1], "right") - (1, 0)
        bounds = np.clip(offsets[t : u + 1], s, e)
        w = np.repeat(weights[t:u], np.diff(bounds))
        scores = _contributions(doc_ords[s:e].astype(np.intp), tfs[s:e].astype(np.float64), w, len_norm)
        np.maximum(out[t:u], np.maximum.reduceat(scores, bounds[:-1] - s), out=out[t:u])
    return out
