"""BM25 scoring kernels over the flat postings layout of index.InvertedIndex.

Both kernels work term at a time: each query term's posting slice is
scored as one vectorized numpy expression. Term frequencies and doc
ordinals are stored as unsigned integers of the smallest dtype that holds
them, and the kernels take them as they are. Each tf slice is converted to
float64 once (exactly), so the arithmetic is float64 throughout; each
ordinal slice is converted to ``intp`` once, because numpy would otherwise
convert a narrower index array again on every gather and scatter.

A term's contribution ``w * tf / (tf + len_norm[d])`` is computed in place
on those per-slice copies and on the gathered ``len_norm[d]``, so no other
temporary is allocated per term. IEEE addition and multiplication are
commutative, so ``len_norm[d] + tf`` and ``tf * w`` are the same bits as
the expression's ``tf + len_norm[d]`` and ``w * tf``. The index arrays
themselves are never written.
"""

from __future__ import annotations

import numpy as np


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


def max_posting_score(start, end, weight, doc_ords, tfs, len_norm) -> float:
    """The largest single-posting contribution of one term; 0.0 if it has none."""
    if end <= start:
        return 0.0
    d = doc_ords[start:end].astype(np.intp)
    tf = tfs[start:end].astype(np.float64)
    return float(_contributions(d, tf, weight, len_norm).max())
