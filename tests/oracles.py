"""Brute-force reference implementations used to verify the library.

Everything here recomputes from first principles: collection statistics are
derived from raw token lists on every call and formulas are transcribed
directly, with no calls into convpr scoring, expansion, fusion or metric
code. Slow on purpose; only run on toy-sized inputs.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np


# -- BM25 ---------------------------------------------------------------------


def bm25_idf(n_docs: int, df: int) -> float:
    return math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))


def bm25_score(docs: dict[str, list[str]], query: list[str], doc_id: str, k1: float, b: float) -> float:
    """Direct formula, summed over query tokens with multiplicity."""
    n = len(docs)
    total_len = sum(len(t) for t in docs.values())
    avgdl = total_len / n
    doc = docs[doc_id]
    dl = len(doc)
    score = 0.0
    for tok in query:
        tf = doc.count(tok)
        if tf == 0:
            continue
        df = sum(1 for toks in docs.values() if tok in toks)
        idf = bm25_idf(n, df)
        if avgdl == 0:
            continue
        score += idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))
    return score


def bm25_rank(docs: dict[str, list[str]], query: list[str], k1: float, b: float, k: int) -> list[tuple[str, float]]:
    """Score every document, keep positive scores, sort by (-score, doc_id)."""
    scored = []
    for doc_id in docs:
        s = bm25_score(docs, query, doc_id, k1, b)
        if s > 0.0:
            scored.append((doc_id, s))
    scored.sort(key=lambda ds: (-ds[1], ds[0]))
    return scored[:k]


def bm25_rank_bitwise(docs: dict[str, list[str]], query: list[str], k1: float, b: float, k: int) -> list[tuple[str, float]]:
    """:func:`bm25_rank` with each score computed by the IEEE operations of a
    term-at-a-time kernel, in its order, so that it is the same bits: for
    each distinct query token with df > 0, in first-occurrence order, every
    document holding it adds ``w * tf / (tf + len_norm)`` to a sum starting
    at 0.0, where ``w = qtf * idf * (k1 + 1.0)``, ``idf = log1p((n - df +
    0.5) / (df + 0.5))`` and ``len_norm = k1 * (1.0 - b + b * (dl /
    avgdl))``. The log1p is numpy's, as libm's may differ in the last bit."""
    n = len(docs)
    avgdl = sum(len(t) for t in docs.values()) / n
    len_norm = {d: k1 * (1.0 - b + b * (len(t) / avgdl)) for d, t in docs.items()}
    scores = dict.fromkeys(docs, 0.0)
    for tok, qtf in Counter(query).items():
        tfs = {d: t.count(tok) for d, t in docs.items() if tok in t}
        if not tfs:
            continue
        df = float(len(tfs))
        idf = float(np.log1p(np.array([(n - df + 0.5) / (df + 0.5)]))[0])
        w = qtf * idf * (k1 + 1.0)
        for d, tf in tfs.items():
            scores[d] += w * tf / (tf + len_norm[d])
    return score_order((d, s) for d, s in scores.items() if s > 0.0)[:k]


def ke_score(docs: dict[str, list[str]], term: str, k1: float, b: float) -> float:
    """Keyword importance: the best single-document score of a one-token query."""
    best = 0.0
    for doc_id in docs:
        best = max(best, bm25_score(docs, [term], doc_id, k1, b))
    return best


def qpp_score(docs: dict[str, list[str]], tokens: list[str], k1: float, b: float) -> float:
    """Utterance ambiguity: the top-1 score of the whole token stream."""
    best = 0.0
    for doc_id in docs:
        best = max(best, bm25_score(docs, tokens, doc_id, k1, b))
    return best


# -- index layout --------------------------------------------------------------


def reference_index(passages, tokenizer):
    """The v5 index arrays built the direct way: one Python list of (doc
    ordinal, tf) pairs per term, filled passage by passage, then split into
    one group per distinct tf, and the doc_id rank written ordinal by
    ordinal."""
    from convpr.index import InvertedIndex

    term_ids: dict[str, int] = {}
    per_term: list[list[tuple[int, int]]] = []
    doc_ids: list[str] = []
    doc_lengths: list[int] = []
    for ordinal, passage in enumerate(passages):
        doc_ids.append(passage.doc_id)
        tokens = tokenizer(passage.text)
        doc_lengths.append(len(tokens))
        for term, tf in Counter(tokens).items():
            if term not in term_ids:
                term_ids[term] = len(term_ids)
                per_term.append([])
            per_term[term_ids[term]].append((ordinal, tf))

    term_groups, group_offsets, group_tfs, doc_ords = [0], [0], [], []
    for postings in per_term:
        for tf, count in sorted(Counter(tf for _, tf in postings).items()):
            group_tfs.append(tf)
            group_offsets.append(group_offsets[-1] + count)
            doc_ords += [d for d, f in postings if f == tf]
        term_groups.append(len(group_tfs))
    docid_rank = np.empty(len(doc_ids), dtype=np.int32)
    for pos, ordinal in enumerate(sorted(range(len(doc_ids)), key=doc_ids.__getitem__)):
        docid_rank[ordinal] = pos
    return InvertedIndex(
        term_ids=term_ids,
        doc_ids=np.array(doc_ids, dtype=object),
        term_groups=np.array(term_groups, dtype=np.int64),
        group_offsets=np.array(group_offsets, dtype=np.int64),
        group_tfs=np.array(group_tfs, dtype=np.min_scalar_type(max(group_tfs, default=0))),
        doc_ords=np.array(doc_ords, dtype=np.int32),
        doc_lengths=np.array(doc_lengths, dtype=np.int64),
        docid_rank=docid_rank,
        tokenizer=tokenizer,
    )


# -- historical query expansion, transcribed line by line ----------------------


def hqe_expand(
    docs: dict[str, list[str]],
    turns: list[list[str]],
    k1: float,
    b: float,
    r_topic: float,
    r_sub: float,
    eta: float,
    m_window: int,
    eligible: list[list[bool]] | None = None,
) -> list[str]:
    """Expansion pseudocode: collect keyword sets over turns 1..i, then for
    i > 1 emit topic keywords, subtopic keywords when the current turn is
    ambiguous, and finally the current turn's tokens."""
    i = len(turns)
    w_topic: list[str] = []
    w_sub: list[str] = []
    for j in range(1, i + 1):
        toks = turns[j - 1]
        for idx in range(len(toks)):
            if eligible is not None and not eligible[j - 1][idx]:
                continue
            t = toks[idx]
            r = ke_score(docs, t, k1, b)
            if r > r_topic and t not in w_topic:
                w_topic.append(t)
            if r > r_sub and j >= i - m_window and t not in w_sub:
                w_sub.append(t)
    out: list[str] = []
    if i > 1:
        ambiguity = qpp_score(docs, turns[-1], k1, b)
        out.extend(w_topic)
        if ambiguity < eta:
            out.extend(w_sub)
    out.extend(turns[-1])
    return out


# -- reciprocal rank fusion ------------------------------------------------------


def rrf_scores(ranked_doc_lists: list[list[str]], k: float) -> dict[str, float]:
    """Sum 1/(k + rank) over every list containing the doc, ranks 1-based."""
    scores: dict[str, float] = {}
    for docs in ranked_doc_lists:
        for rank, doc_id in enumerate(docs, start=1):
            scores[doc_id] = scores.get(doc_id, 0.0) + 1.0 / (k + rank)
    return scores


def rrf_rank(ranked_doc_lists: list[list[str]], k: float, depth: int) -> list[tuple[str, float]]:
    scores = rrf_scores(ranked_doc_lists, k)
    ordered = sorted(scores.items(), key=lambda ds: (-ds[1], ds[0]))
    return ordered[:depth]


# -- ordering by score ---------------------------------------------------------------


def score_order(pairs) -> list[tuple[str, float]]:
    """(doc_id, score) pairs by descending score, ties by ascending doc_id,
    using Python's own float and str comparisons (so -0.0 ties 0.0)."""
    return sorted(pairs, key=lambda ds: (-ds[1], ds[0]))


# Doc ids whose order differs between Python and numpy strings: "a\x00"
# sorts after "a" in Python, but numpy's fixed-width strings drop the NUL.
TIE_ID_POOL = ["a", "a\x00", "b", "B", "\u00e9", "10", "9", "d01", "d1", "d001", "z_1"] + [
    f"p{i}" for i in range(40)
]


def random_scored(rng, n: int) -> tuple[list[str], list[float]]:
    """``n`` distinct doc ids from TIE_ID_POOL with scores drawn so that most
    of them tie, including -0.0 against 0.0."""
    ids = rng.sample(TIE_ID_POOL, n)
    return ids, [rng.choice([2.0, 1.0, 0.0, -0.0, -1.5, rng.random()]) for _ in ids]


# -- retrieval metrics -------------------------------------------------------------


def average_precision(doc_ids: list[str], relevant: set[str], depth: int) -> float:
    if not relevant:
        return 0.0
    total = 0.0
    for pos in range(min(len(doc_ids), depth)):
        if doc_ids[pos] in relevant:
            hits_so_far = sum(1 for d in doc_ids[: pos + 1] if d in relevant)
            total += hits_so_far / (pos + 1)
    return total / len(relevant)


def ndcg(doc_ids: list[str], grades: dict[str, int], k: int) -> float:
    ideal = sorted(grades.values(), reverse=True)[:k]
    idcg = 0.0
    for pos, g in enumerate(ideal, start=1):
        idcg += g / math.log2(pos + 1)
    if idcg == 0.0:
        return 0.0
    dcg = 0.0
    for pos, doc_id in enumerate(doc_ids[:k], start=1):
        g = grades.get(doc_id, 0)
        if g:
            dcg += g / math.log2(pos + 1)
    return dcg / idcg


def recall(doc_ids: list[str], relevant: set[str], k: int) -> float:
    if not relevant:
        return 0.0
    return sum(1 for d in doc_ids[:k] if d in relevant) / len(relevant)


# -- random instance generators ------------------------------------------------------


def random_corpus(rng, max_docs: int = 50, vocab_size: int = 30, max_len: int = 12) -> dict[str, list[str]]:
    """Random toy corpus keyed by doc_id; skewed term distribution so that
    document frequencies vary. Guaranteed to contain at least one token."""
    n_docs = int(rng.integers(1, max_docs + 1))
    docs = {}
    for d in range(n_docs):
        length = int(rng.integers(0, max_len + 1))
        tokens = [f"w{int(vocab_size * rng.random() ** 2)}" for _ in range(length)]
        docs[f"d{d:03d}"] = tokens
    if sum(len(t) for t in docs.values()) == 0:
        docs["d000"] = ["w0"]
    return docs


def random_query(rng, vocab_size: int = 30, max_terms: int = 8) -> list[str]:
    """Query of 1..max_terms tokens; roughly one in eight is unindexed."""
    length = int(rng.integers(1, max_terms + 1))
    out = []
    for _ in range(length):
        if rng.random() < 0.125:
            out.append(f"oov{int(rng.integers(0, 5))}")
        else:
            out.append(f"w{int(rng.integers(0, vocab_size))}")
    return out


def threshold_between(values: list[float], rng, floor: float = 0.0, min_gap: float = 1e-6):
    """Pick a threshold that sits a safe distance away from every value in
    *values*, so float noise cannot flip a comparison. Returns None when no
    safe gap exists."""
    distinct = sorted(set(values) | {floor})
    gaps = [
        (a, b) for a, b in zip(distinct, distinct[1:]) if b - a > min_gap
    ]
    choices = [(a + b) / 2.0 for a, b in gaps]
    choices.append(distinct[-1] + 1.0)
    return float(choices[int(rng.integers(0, len(choices)))])
