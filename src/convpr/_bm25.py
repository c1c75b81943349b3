"""BM25 scoring kernels over the flat postings layout of index.InvertedIndex.

Both kernels score whole posting slices as one vectorized numpy expression:
``score_postings`` one query term's at a time, ``max_posting_score`` runs
of terms. Doc ordinals are stored as unsigned integers of the smallest
dtype that holds them, and the kernels take them as they are. Term
frequencies are stored once per tf group, a run of postings of one term
that share one tf: each kernel rebuilds a slice's tf column as one
``np.repeat`` of its groups' tfs, as float64 (exact for any integer tf
below 2^53), over the group sizes, so the arithmetic is float64
throughout. Each ordinal slice is converted to ``intp`` once, because
numpy would otherwise convert a narrower index array again on every
gather and scatter.

A contribution ``w * tf / (tf + len_norm[d])`` is computed in place on
the gathered ``len_norm[d]`` and on that tf column, so no other temporary
is allocated per slice but a run's repeated weights. IEEE addition and
multiplication are commutative, so ``len_norm[d] + tf`` and ``tf * w`` are
the same bits as the expression's ``tf + len_norm[d]`` and ``w * tf``. The
index arrays themselves are never written.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Postings that max_posting_score scores at once.
_RUN_POSTINGS = 1 << 20


class TfGroups(NamedTuple):
    """The term frequencies of some query terms' postings: term ``t``'s
    postings are the groups ``first[t]:last[t]``, and group ``g`` holds
    ``sizes[g]`` postings (``intp``), each of term frequency ``tfs[g]``
    (float64)."""

    first: np.ndarray
    last: np.ndarray
    sizes: np.ndarray
    tfs: np.ndarray


def get_backend() -> str:
    return "numpy"


def _contributions(d, tf, weight, len_norm):
    """``weight * tf / (tf + len_norm[d])``, computed in the gathered
    ``len_norm[d]``. ``tf`` is the slice's term frequencies as a float64
    array, which is overwritten."""
    den = len_norm[d]
    den += tf
    tf *= weight
    return np.divide(tf, den, out=den)


def score_postings(starts, ends, weights, doc_ords, groups, len_norm, scores) -> None:
    """scores[d] += w * tf / (tf + len_norm[d]) for each posting of each
    query term; ``groups`` (a :class:`TfGroups`) holds the terms' tfs."""
    tfs, sizes = groups.tfs, groups.sizes
    # Python ints slice, and Python floats multiply, faster than numpy
    # scalars; a weight is the same double either way.
    terms = zip(starts.tolist(), ends.tolist(), groups.first.tolist(), groups.last.tolist(), weights.tolist())
    for s, e, g, h, w in terms:
        d = doc_ords[s:e].astype(np.intp)
        tf = np.repeat(tfs[g:h], sizes[g:h])
        # Doc ordinals are unique within one posting list and add.at adds in
        # index order, so each score gets the same single float addition as
        # with `scores[d] += ...`, only faster.
        np.add.at(scores, d, _contributions(d, tf, w, len_norm))


def _overlap(offsets, s, e):
    """The slices ``i..j-1`` of ``offsets`` that hold positions ``s..e-1``,
    and their bounds clipped to those positions."""
    i, j = np.searchsorted(offsets, [s, e - 1], "right") - (1, 0)
    return i, j, np.clip(offsets[i : j + 1], s, e)


def max_posting_score(offsets, weights, doc_ords, group_offsets, group_tfs, len_norm) -> np.ndarray:
    """Each term's largest single-posting contribution, a float64 array by
    term id; group ``g`` holds postings ``group_offsets[g]:group_offsets[g +
    1]`` of tf ``group_tfs[g]``. The postings are scored ``_RUN_POSTINGS``
    at a time, so a term or group may span several runs, and the
    temporaries stay that size however long a term is. Every term must hold
    a posting (``offsets`` strictly increases): ``np.maximum.reduceat``
    would give an empty term the next term's first value, and an empty last
    term would stay at -inf."""
    # np.repeat and reduceat take no uint64 counts or indices
    offsets, group_offsets = offsets.astype(np.int64), group_offsets.astype(np.int64)
    out = np.full(len(offsets) - 1, -np.inf)
    total = int(offsets[-1])
    for s in range(0, total, _RUN_POSTINGS):
        e = min(s + _RUN_POSTINGS, total)
        # Terms t..u-1 hold postings s..e-1; bounds are their slices' ends within the run.
        t, u, bounds = _overlap(offsets, s, e)
        g, h, group_bounds = _overlap(group_offsets, s, e)
        w = np.repeat(weights[t:u], np.diff(bounds))
        tf = np.repeat(group_tfs[g:h].astype(np.float64), np.diff(group_bounds))
        scores = _contributions(doc_ords[s:e].astype(np.intp), tf, w, len_norm)
        np.maximum(out[t:u], np.maximum.reduceat(scores, bounds[:-1] - s), out=out[t:u])
    return out
