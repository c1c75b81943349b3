"""Seeded synthetic conversational collection.

The collection mimics the structure HQE relies on. Every session has a few
topic words that are rare in the corpus and a sequence of subtopics whose
words are shared across sessions and moderately common, so a later turn
that names only its subtopic is ambiguous without the session's history.

- Background text is drawn from a skewed vocabulary whose head is a set of
  English filler words, so fillers get a low IDF as stopwords do.
- Each (session, subtopic) pair has a block of relevant passages that mix
  topic and subtopic words into background text; each session also has
  topic-only passages.
- Turn 1 names the topic. Later turns drift through the subtopics and
  name the topic only now and then, otherwise they use a pronoun.
- Qrels grade the turn's subtopic block 2-3 and five topic-only passages
  1; two passages of each of the session's other subtopic blocks are
  judged 0.

The generator keeps every passage's token ids, which the benchmark's own
brute-force BM25 oracle and document-frequency recount read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FILLERS = (
    "the", "of", "and", "is", "what", "about", "how", "does", "tell", "me",
    "its", "they", "their", "are", "why", "more", "describe", "which", "with", "for",
)
PRONOUNS = ("its", "their", "they")
QUESTION_STEMS = (
    ("what", "about"), ("how", "does"), ("tell", "me", "about"), ("why", "is"),
    ("describe",), ("which", "are"), ("what", "is"), ("and", "what", "about"),
)
# Share of each session's turns whose stem ends in "the". The conversational
# topics in tests/fixtures/topics.json use it in 2 of 5 utterances. It is
# exact per session, so the query mix does not vary by seed. "the" heads the
# background vocabulary and occurs in about 90% of passages, so turns with
# it score nearly the whole corpus and turns without it a far smaller part.
THE_SHARE = 2 / 5

_CONS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONS for v in _VOWELS]


def pseudo_word(i: int) -> str:
    """Distinct lowercase word for each i >= 0; three syllables at least, so
    no pseudo-word can equal a filler word."""
    n = i + len(_SYLLABLES) ** 2
    out = []
    while n:
        n, r = divmod(n, len(_SYLLABLES))
        out.append(_SYLLABLES[r])
    return "".join(reversed(out))


TURNS = 10
VOCAB = 20000          # background words, fillers included
DOC_LEN = 60           # mean background words per passage
TOPIC_WORDS = 3        # per session
SUBTOPICS = 4          # per session
SUB_POOL = 240         # subtopic words, shared by all sessions
SUB_WORDS = 2          # per subtopic
BLOCK_DOCS = 10        # relevant passages per (session, subtopic)
TOPIC_ONLY_DOCS = 10   # per session
POOL_INJECTIONS = 400  # mean background passages per subtopic word


@dataclass(frozen=True)
class Spec:
    """Collection size; everything else is fixed above."""

    docs: int
    sessions: int


@dataclass
class Collection:
    spec: Spec
    words: list[str]              # word id -> surface form
    doc_ids: list[str]            # ordinal -> doc_id, in file order
    doc_tokens: list[np.ndarray]  # ordinal -> word ids
    sessions: list[dict]          # {"number", "turns": [{"text", "tags", "external", "rel"}]}

    @property
    def qids(self) -> list[str]:
        return [f"{s['number']}_{t}" for s in self.sessions for t in range(1, len(s["turns"]) + 1)]

    # -- files the program reads ---------------------------------------------

    def write_corpus(self, path: Path) -> None:
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            for doc_id, ids in zip(self.doc_ids, self.doc_tokens):
                fh.write(f"{doc_id}\t{' '.join(self.words[i] for i in ids)}\n")

    def write_topics(self, path: Path) -> None:
        data = [
            {
                "number": s["number"],
                "turn": [
                    {"number": t, "raw_utterance": turn["text"]}
                    for t, turn in enumerate(s["turns"], start=1)
                ],
            }
            for s in self.sessions
        ]
        path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")

    def write_qrels(self, path: Path) -> None:
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            for s in self.sessions:
                for t, turn in enumerate(s["turns"], start=1):
                    for doc_id, grade in turn["rel"]:
                        fh.write(f"{s['number']}_{t} 0 {doc_id} {grade}\n")

    def write_external(self, path: Path) -> None:
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            for s in self.sessions:
                for t, turn in enumerate(s["turns"], start=1):
                    fh.write(f"{s['number']}_{t}\t{turn['external']}\n")

    def write_pos(self, path: Path) -> None:
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            for s in self.sessions:
                for t, turn in enumerate(s["turns"], start=1):
                    fh.write(json.dumps({"qid": f"{s['number']}_{t}", "tags": turn["tags"]}) + "\n")

    def write_all(self, out: Path) -> None:
        self.write_corpus(out / "corpus.tsv")
        self.write_topics(out / "topics.json")
        self.write_qrels(out / "qrels.txt")
        self.write_external(out / "external.tsv")
        self.write_pos(out / "pos.jsonl")

    def grades(self) -> dict[tuple[str, str], int]:
        return {
            (f"{s['number']}_{t}", doc_id): grade
            for s in self.sessions
            for t, turn in enumerate(s["turns"], start=1)
            for doc_id, grade in turn["rel"]
        }


def generate(spec: Spec, seed: int) -> Collection:
    rng = np.random.default_rng(seed)
    n_fill = len(FILLERS)
    words = list(FILLERS) + [pseudo_word(i) for i in range(VOCAB - n_fill)]
    pool_base = len(words)
    words += [pseudo_word(VOCAB + i) for i in range(SUB_POOL)]
    topic_base = len(words)
    n_topic = spec.sessions * TOPIC_WORDS
    words += [pseudo_word(VOCAB + SUB_POOL + i) for i in range(n_topic)]
    word_id = {w: i for i, w in enumerate(words)}

    # Background passages; the cube skews draws towards the low ids, the fillers.
    lengths = np.maximum(8, rng.normal(DOC_LEN, DOC_LEN / 4, spec.docs)).astype(np.int64)
    flat = (VOCAB * rng.random(int(lengths.sum())) ** 3).astype(np.int64)
    bounds = np.concatenate(([0], np.cumsum(lengths)))
    docs = [flat[bounds[i] : bounds[i + 1]] for i in range(spec.docs)]
    extra: list[list[int]] = [[] for _ in range(spec.docs)]

    # Subtopic pool words also occur in random background passages, so they
    # are moderately common and score between the HQE thresholds.
    for w in range(SUB_POOL):
        n = int(rng.integers(POOL_INJECTIONS // 2, POOL_INJECTIONS * 3 // 2))
        for d in rng.choice(spec.docs, size=n, replace=False):
            extra[d].append(pool_base + w)

    # Topical passages take over random ordinals; positions are disjoint.
    per_session = SUBTOPICS * BLOCK_DOCS + TOPIC_ONLY_DOCS
    slots = rng.choice(spec.docs, size=spec.sessions * per_session, replace=False)
    perm = rng.permutation(spec.docs)
    doc_ids = [f"p{int(perm[i]):07d}" for i in range(spec.docs)]

    sessions = []
    slot = 0
    for s in range(spec.sessions):
        topic = [topic_base + s * TOPIC_WORDS + k for k in range(TOPIC_WORDS)]
        subs = [
            sorted(rng.choice(SUB_POOL, size=SUB_WORDS, replace=False) + pool_base)
            for _ in range(SUBTOPICS)
        ]
        blocks: list[list[int]] = []
        for sub in subs:
            block = []
            for _ in range(BLOCK_DOCS):
                d = int(slots[slot])
                slot += 1
                k = int(rng.integers(1, TOPIC_WORDS + 1))
                extra[d] += list(rng.choice(topic, size=k, replace=False))
                extra[d] += [w for w in sub for _ in range(int(rng.integers(1, 4)))]
                block.append(d)
            blocks.append(block)
        topic_only = []
        for _ in range(TOPIC_ONLY_DOCS):
            d = int(slots[slot])
            slot += 1
            extra[d] += [w for w in topic for _ in range(int(rng.integers(1, 3)))]
            extra[d].append(pool_base + int(rng.integers(SUB_POOL)))
            topic_only.append(d)
        # A few background mentions keep topic words from being unique to
        # the judged passages.
        for w in topic:
            for d in rng.choice(spec.docs, size=20, replace=False):
                extra[d].append(w)

        turns = []
        k = 0
        with_the = set(rng.choice(TURNS, size=round(THE_SHARE * TURNS), replace=False) + 1)
        for t in range(1, TURNS + 1):
            if t > 1 and rng.random() < 0.4:
                k = min(k + 1, SUBTOPICS - 1)
            sub = [int(w) for w in subs[k]]
            stem = list(QUESTION_STEMS[int(rng.integers(len(QUESTION_STEMS)))])
            if t in with_the:
                stem.append("the")
            if t == 1:
                subject = topic[:2]
            elif rng.random() < 0.25:
                subject = [topic[int(rng.integers(TOPIC_WORDS))]]
            else:
                subject = [word_id[PRONOUNS[int(rng.integers(len(PRONOUNS)))]]]
            content = sub[: int(rng.integers(1, len(sub) + 1))]
            ids = [word_id[w] for w in stem] + subject + content
            tags = ["OTHER"] * len(stem) + [
                "NOUN" if w >= pool_base else "OTHER" for w in subject
            ] + ["ADJ" if i == 0 and len(content) > 1 else "NOUN" for i in range(len(content))]
            text = " ".join(words[i] for i in ids) + "?"
            external = " ".join(
                stem + [words[i] for i in topic[:2]] + [words[i] for i in content]
            ) + "?"
            rel = [(doc_ids[d], int(rng.integers(2, 4))) for d in blocks[k]]
            rel += [(doc_ids[d], 1) for d in topic_only[:5]]
            judged = {doc for doc, _ in rel}
            rel += [
                (doc_ids[d], 0)
                for kk, block in enumerate(blocks)
                if kk != k
                for d in block[:2]
                if doc_ids[d] not in judged
            ]
            turns.append({"text": text, "tags": tags, "external": external, "rel": rel})
        sessions.append({"number": s + 1, "turns": turns})

    # Shuffle injected words into each passage so topical words do not
    # always sit at the end.
    for d in range(spec.docs):
        if extra[d]:
            merged = np.concatenate((docs[d], np.asarray(extra[d], dtype=np.int64)))
            docs[d] = merged[rng.permutation(merged.size)]
    return Collection(spec=spec, words=words, doc_ids=doc_ids, doc_tokens=docs, sessions=sessions)
