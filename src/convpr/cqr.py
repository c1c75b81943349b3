"""Conversational query reformulation.

Historical query expansion (HQE) mines two keyword sets from the turns seen
so far: topic keywords score above ``r_topic`` with the keyword extractor
(the best single-document BM25 score of the token), and subtopic keywords
score above ``r_sub`` within the last ``m_window`` turns. A query
performance predictor (top-1 BM25 score of the whole utterance) decides
whether the turn is ambiguous: below ``eta`` the subtopic set is added too.
Because ``r_topic > r_sub``, in-window topic keywords land in both sets and
therefore show up twice in the expansion, which is the whole term-weighting
mechanism: duplicated tokens carry weight for bag-of-words retrieval.

Also here: the window-concatenation baselines, externally produced rewrite
files, and POS annotations used to restrict keyword candidates to
nouns/adjectives.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .corpus import Utterance
from .index import Searcher
from .tokenization import tokenize

CONTENT_TAGS = frozenset({"NOUN", "ADJ"})

# Tuned operating points: the first optimizes recall at depth 1000 and is
# the default; the second optimizes MAP and suits reranking pipelines.
HQE_RETRIEVAL_DEFAULTS: "HqeParams"
HQE_RERANK_DEFAULTS: "HqeParams"

CONCAT_DEFAULT_WINDOW = 9


@dataclass(frozen=True)
class HqeParams:
    r_topic: float = 4.5
    r_sub: float = 3.5
    eta: float = 10.0
    m_window: int = 5

    def __post_init__(self) -> None:
        # A NaN eta would silently switch the subtopic branch off, and a
        # non-finite threshold admits every keyword or none.
        for name in ("r_topic", "r_sub", "eta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.r_topic > self.r_sub:
            raise ValueError(f"r_topic ({self.r_topic}) must exceed r_sub ({self.r_sub})")
        if self.m_window < 0:
            raise ValueError(f"m_window must be >= 0, got {self.m_window}")


HQE_RETRIEVAL_DEFAULTS = HqeParams()
HQE_RERANK_DEFAULTS = HqeParams(r_topic=4.0, r_sub=3.0, eta=12.0, m_window=1)


@dataclass(frozen=True)
class ReformulatedQuery:
    """Token sequence for retrieval plus a displayable surface form.

    Duplicate tokens are meaningful (they encode term weight), and
    ``tokens == tokenize(display_text)`` under the tokenizer that built it.
    """

    qid: str
    tokens: tuple[str, ...]
    display_text: str


class PosAnnotations:
    """Per-qid coarse POS tags aligned to the raw utterance token stream."""

    def __init__(self, tags: Mapping[str, Sequence[str]]):
        self._tags = {qid: list(ts) for qid, ts in tags.items()}

    @classmethod
    def load(cls, path: str | Path) -> "PosAnnotations":
        """Read JSONL rows ``{"qid": "<string>", "tags": ["<string>", ...]}``."""
        path = Path(path)
        tags: dict[str, list[str]] = {}
        with path.open("r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                    qid, ts = obj["qid"], obj["tags"]
                except (json.JSONDecodeError, KeyError, TypeError) as exc:
                    raise ValueError(f"{path}:{lineno}: bad annotation row: {exc}") from exc
                if not isinstance(qid, str):
                    raise ValueError(f"{path}:{lineno}: qid must be a string, got {qid!r}")
                if not (isinstance(ts, list) and all(isinstance(t, str) for t in ts)):
                    raise ValueError(f"{path}:{lineno}: tags must be a list of strings, got {ts!r}")
                if qid in tags:
                    raise ValueError(f"{path}:{lineno}: duplicate qid {qid!r}")
                tags[qid] = ts
        return cls(tags)

    def content_tokens(self, qid: str, tokens: Sequence[str]) -> list[str]:
        """The NOUN/ADJ-tagged ``tokens`` of turn ``qid``, in order."""
        if qid not in self._tags:
            raise ValueError(f"no POS annotation for qid {qid!r}")
        tags = self._tags[qid]
        if len(tags) != len(tokens):
            raise ValueError(
                f"qid {qid!r}: {len(tags)} tags for {len(tokens)} tokens; annotations must "
                "align with the raw utterance token stream"
            )
        return [tok for tok, tag in zip(tokens, tags) if tag in CONTENT_TAGS]


def extract_keywords(
    searcher: Searcher,
    utterances: Sequence[Utterance],
    hqe: HqeParams,
    pos: PosAnnotations | None = None,
) -> tuple[list[str], list[str]]:
    """Collect (topic, subtopic) keyword lists from turns 1..i.

    Both lists are deduplicated in first-occurrence order. The subtopic
    window covers turns max(1, i - m_window)..i; the current turn takes part
    in both sets. With annotations, only NOUN/ADJ tokens are candidates.
    """
    if not utterances:
        raise ValueError("extract_keywords needs at least one utterance")
    i = len(utterances)
    w_topic: list[str] = []
    w_sub: list[str] = []
    seen_topic: set[str] = set()
    seen_sub: set[str] = set()
    for j, utt in enumerate(utterances, start=1):
        tokens = searcher.tokenize(utt.raw_text)
        if pos is not None:
            tokens = pos.content_tokens(utt.qid, tokens)
        in_window = j >= i - hqe.m_window
        for tok in tokens:
            r = searcher.max_score_term(tok)
            if r > hqe.r_topic and tok not in seen_topic:
                seen_topic.add(tok)
                w_topic.append(tok)
            if r > hqe.r_sub and in_window and tok not in seen_sub:
                seen_sub.add(tok)
                w_sub.append(tok)
    return w_topic, w_sub


def hqe_rewrite(
    searcher: Searcher,
    utterances: Sequence[Utterance],
    hqe: HqeParams | None = None,
    pos: PosAnnotations | None = None,
) -> ReformulatedQuery:
    """Expand the latest utterance with keywords from the session so far.

    Turn 1 passes through unchanged. Later turns are prefixed with the
    topic keywords, plus the subtopic keywords when the utterance's top-1
    retrieval score falls below ``eta`` (low score = ambiguous); the raw
    utterance tokens always close the query.
    """
    if not utterances:
        raise ValueError("hqe_rewrite needs at least one utterance")
    hqe = hqe or HQE_RETRIEVAL_DEFAULTS
    current = utterances[-1]
    current_tokens = searcher.tokenize(current.raw_text)
    if len(utterances) == 1:
        return ReformulatedQuery(current.qid, tuple(current_tokens), current.raw_text)

    w_topic, w_sub = extract_keywords(searcher, utterances, hqe, pos)
    expansion = list(w_topic)
    ambiguity = searcher.max_score(current_tokens)
    if ambiguity < hqe.eta:
        expansion.extend(w_sub)
    display = " ".join(expansion + [current.raw_text]) if expansion else current.raw_text
    return ReformulatedQuery(current.qid, tuple(expansion + current_tokens), display)


def concat_rewrite(
    utterances: Sequence[Utterance],
    m_window: int = CONCAT_DEFAULT_WINDOW,
    pos: PosAnnotations | None = None,
    tokenizer=tokenize,
) -> ReformulatedQuery:
    """Prepend the previous ``m_window`` turns to the current one.

    With annotations, history keeps only NOUN/ADJ tokens; the current turn
    is never filtered. ``m_window=0`` returns the raw query.
    """
    if not utterances:
        raise ValueError("concat_rewrite needs at least one utterance")
    if m_window < 0:
        raise ValueError(f"m_window must be >= 0, got {m_window}")
    current = utterances[-1]
    history = utterances[max(0, len(utterances) - 1 - m_window) : -1]

    if pos is None:
        parts = [u.raw_text for u in history] + [current.raw_text]
        tokens = [t for u in history for t in tokenizer(u.raw_text)] + tokenizer(current.raw_text)
        return ReformulatedQuery(current.qid, tuple(tokens), " ".join(parts))

    kept = [t for u in history for t in pos.content_tokens(u.qid, tokenizer(u.raw_text))]
    current_tokens = tokenizer(current.raw_text)
    display = " ".join(kept + [current.raw_text]) if kept else current.raw_text
    return ReformulatedQuery(current.qid, tuple(kept + current_tokens), display)


def raw_query(utterance: Utterance, tokenizer=tokenize) -> ReformulatedQuery:
    return ReformulatedQuery(utterance.qid, tuple(tokenizer(utterance.raw_text)), utterance.raw_text)


def load_external_rewrites(path: str | Path, tokenizer=tokenize) -> dict[str, ReformulatedQuery]:
    """Read a ``qid<TAB>text`` file of externally produced rewrites
    (manual annotations, seq2seq output, ...). A qid must be one run-file
    column, so an empty one or one with whitespace is an error, and so is a
    duplicate; a qid missing at use time is the caller's error to raise."""
    path = Path(path)
    rewrites: dict[str, ReformulatedQuery] = {}
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if "\t" not in line:
                raise ValueError(f"{path}:{lineno}: expected qid<TAB>text")
            qid, text = line.split("\t", 1)
            if qid.split() != [qid]:
                raise ValueError(f"{path}:{lineno}: qid {qid!r} is empty or has whitespace")
            if qid in rewrites:
                raise ValueError(f"{path}:{lineno}: duplicate qid {qid!r}")
            rewrites[qid] = ReformulatedQuery(qid, tuple(tokenizer(text)), text)
    return rewrites


def write_rewrites(path: str | Path, rewrites: Sequence[ReformulatedQuery]) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for r in rewrites:
            if "\n" in r.display_text or "\t" in r.qid:
                raise ValueError(f"rewrite {r.qid!r} cannot round-trip through TSV")
            fh.write(f"{r.qid}\t{r.display_text}\n")
