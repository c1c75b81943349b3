"""Ranked result lists and the 6-column TREC run file format.

In memory a ranked list is an ordered list of (doc_id, score) entries and
an entry's rank is its 1-based position. A rank number exists only in run
files, whose lines are ``qid Q0 doc_id rank score tag`` with ranks 1..n per
qid; scores are written with full float precision so that write → read
round-trips are exact.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence


class RunFileWarning(UserWarning):
    """Recoverable oddity in a run: preserved as-is, but worth flagging."""


class RankedEntry(NamedTuple):
    doc_id: str
    score: float


@dataclass
class RankedList:
    """Ordered (doc_id, score) results for one query id; an entry's rank
    is its 1-based position in ``entries``.

    Doc_ids must be unique. Non-increasing scores are expected but only
    warned about, because external tools re-sort by score and we preserve
    whatever the file said.
    """

    qid: str
    entries: list[RankedEntry] = field(default_factory=list)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for e in self.entries:
            if e.doc_id in seen:
                raise ValueError(f"qid {self.qid}: duplicate doc_id {e.doc_id!r}")
            seen.add(e.doc_id)
        scores = [e.score for e in self.entries]
        if any(b > a for a, b in zip(scores, scores[1:])):
            warnings.warn(
                f"qid {self.qid}: scores are not non-increasing; order preserved",
                RunFileWarning,
                stacklevel=2,
            )

    def __len__(self) -> int:
        return len(self.entries)

    def doc_ids(self) -> list[str]:
        return [e.doc_id for e in self.entries]

    def doc_set(self) -> set[str]:
        return {e.doc_id for e in self.entries}

    def truncated(self, depth: int) -> "RankedList":
        return RankedList(self.qid, self.entries[:depth])

    @classmethod
    def from_scores(cls, qid: str, scored: Iterable[tuple[str, float]]) -> "RankedList":
        """Sort (doc_id, score) pairs by descending score, ties by ascending doc_id."""
        ordered = sorted(scored, key=lambda ds: (-ds[1], ds[0]))
        return cls(qid, [RankedEntry(d, s) for d, s in ordered])


def qid_sort_key(qid: str):
    """Natural order for ids like ``31_4``: numeric segments sort numerically."""
    return tuple((0, int(seg)) if seg.isdigit() else (1, seg) for seg in qid.split("_"))


def write_run(path: str | Path, run: Mapping[str, RankedList] | Sequence[RankedList], tag: str = "convpr") -> None:
    """Write lists in natural qid order; scores use repr for exact round-trip."""
    if tag.split() != [tag]:
        raise ValueError(f"run tag {tag!r} is empty or has whitespace")
    lists = list(run.values()) if isinstance(run, Mapping) else list(run)
    lists.sort(key=lambda rl: qid_sort_key(rl.qid))
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for rl in lists:
            for rank, e in enumerate(rl.entries, start=1):
                fh.write(f"{rl.qid} Q0 {e.doc_id} {rank} {e.score!r} {tag}\n")


def read_run(path: str | Path) -> dict[str, RankedList]:
    """Parse a 6-column run file into one RankedList per qid.

    Rank gaps are an error; non-monotone scores produce a RunFileWarning.
    """
    path = Path(path)
    per_qid: dict[str, list[RankedEntry]] = {}
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
            entries = per_qid.setdefault(qid, [])
            if rank != len(entries) + 1:
                raise ValueError(
                    f"{path}:{lineno}: qid {qid}: rank {rank} does not follow {len(entries)}"
                )
            entries.append(RankedEntry(doc_id, score))
    return {qid: RankedList(qid, entries) for qid, entries in per_qid.items()}
