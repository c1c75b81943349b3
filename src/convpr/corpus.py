"""Passage collections, conversational topic files, and the one reader of
line-oriented inputs.

Every line-oriented input (passages, POS annotations, rewrites, rerank
scores, qrels and runs) is opened only by :func:`read_lines`, so one rule
decides its encoding, line ends, blank lines and the ``path:line:`` prefix
of its errors. Loaders stream their input and fail loudly: duplicated
passage ids and malformed rows corrupt retrieval metrics silently, so both
are errors.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from itertools import compress, count, filterfalse, repeat
from pathlib import Path
from typing import Iterator

PASSAGE_FORMATS = ("tsv", "jsonl")


@dataclass(frozen=True)
class Passage:
    """One retrievable unit of text with a stable external identifier."""

    doc_id: str
    text: str


@dataclass(frozen=True)
class Utterance:
    """A single conversational turn; turns are 1-based within a session."""

    session_id: str
    turn: int
    raw_text: str

    @property
    def qid(self) -> str:
        return f"{self.session_id}_{self.turn}"


@dataclass
class Session:
    session_id: str
    utterances: list[Utterance] = field(default_factory=list)

    def __post_init__(self) -> None:
        for i, utt in enumerate(self.utterances, start=1):
            if utt.turn != i:
                raise ValueError(
                    f"session {self.session_id}: turns must be contiguous from 1, "
                    f"found turn {utt.turn} at position {i}"
                )


def is_integral(value) -> bool:
    """Whether ``value`` is a whole number: an int, or a float without a
    fraction. A bool is not, though Python counts it as an int."""
    return (
        isinstance(value, (int, float)) and not isinstance(value, bool) and float(value).is_integer()
    )


def reject_bools(params, prefix: str = "") -> None:
    """Raise if a field of the dataclass ``params`` holds a bool: Python
    counts it as a number, so a YAML ``k1: true`` would run as 1.0."""
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, bool):
            raise ValueError(f"{prefix}{f.name} must be a number, got {value!r}")


def _is_id(value) -> bool:
    """Whether a JSON value may name a passage or a session: a string, or
    an int that is not a bool (``str(True)`` would be the id ``True``)."""
    return isinstance(value, str) or (isinstance(value, int) and not isinstance(value, bool))


def is_utf8(text: str) -> bool:
    """Whether ``text`` encodes as UTF-8. A JSON or YAML ``\\ud800`` escape
    reads as a lone surrogate, which no UTF-8 file can hold, so a string
    that is written later is checked where it is read."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


@contextmanager
def read_lines(path: str | Path) -> Iterator[Iterator[str]]:
    """Open the line-oriented input ``path``; yield an iterator over its lines.

    One rule holds for every such input: UTF-8, with a leading BOM dropped;
    a line ends at ``\\n``, ``\\r\\n`` or a lone ``\\r`` (universal
    newlines); a line of only whitespace is skipped. A ValueError raised
    inside the ``with`` block is raised again with the prefix ``path:line:``
    of the last line read, so an error about the whole file is raised after
    the block. A byte sequence that is not UTF-8 names its own line, found by
    reading the file again."""
    path = Path(path)
    read = count(1)
    with path.open("r", encoding="utf-8-sig") as fh:
        # All C iterators, so no Python frame runs per line: compress counts
        # each line read in ``read``, and filterfalse skips the blank ones.
        lines = filterfalse(str.isspace, compress(fh, read))
        try:
            yield map(str.removesuffix, lines, repeat("\n"))
        except UnicodeDecodeError as exc:
            raise ValueError(_utf8_error(path, exc)) from None
        except ValueError as exc:
            raise ValueError(f"{path}:{next(read) - 1}: {exc}") from exc


def file_digest(path: Path) -> str:
    """The sha256 of the bytes of ``path`` as hex digits, read 64 KiB at a
    time, so no temporary grows with the file. experiment hashes each run
    entry while the index is held: a 1 MiB or 256 KiB buffer raised the
    peak RSS of a warm experiment, and hashing is no slower at 64 KiB."""
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _utf8_error(path: Path, exc: UnicodeDecodeError) -> str:
    # Lines split as read_lines splits them; a byte that is not UTF-8 reads
    # as a lone surrogate, so the first line that holds one is the culprit.
    with path.open("r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as err:
                return f"{path}:{lineno}: not valid UTF-8: {err}"
    return f"{path}: not valid UTF-8: {exc}"


def load_passages(path: str | Path, format: str = "tsv") -> Iterator[Passage]:
    """Stream passages from a TSV (``doc_id<TAB>text``) or JSONL file. A
    JSONL row is ``{"id": <string or integer>, "contents": <string>}``.

    Raises ValueError with the offending line number on malformed rows and
    on duplicate doc_ids.
    """
    if format not in PASSAGE_FORMATS:
        raise ValueError(f"unknown passage format {format!r}, expected one of {PASSAGE_FORMATS}")
    seen: set[str] = set()
    with read_lines(path) as lines:
        for line in lines:
            if format == "tsv":
                if "\t" not in line:
                    raise ValueError("expected doc_id<TAB>text")
                doc_id, text = line.split("\t", 1)
            else:
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"invalid JSON: {exc}") from exc
                if not isinstance(obj, dict) or "id" not in obj or "contents" not in obj:
                    raise ValueError("expected an object with 'id' and 'contents'")
                doc_id, text = obj["id"], obj["contents"]
                if not _is_id(doc_id):
                    raise ValueError(f"id must be a string or an integer, got {doc_id!r}")
                if not isinstance(text, str):
                    raise ValueError(f"contents must be a string, got {text!r}")
                doc_id = str(doc_id)
                if not is_utf8(doc_id):
                    raise ValueError(f"id {doc_id!r} holds a lone surrogate, not UTF-8")
            # A run file holds the doc_id as one whitespace-separated column.
            if doc_id.split() != [doc_id]:
                raise ValueError(f"doc_id {doc_id!r} is empty or has whitespace")
            if doc_id in seen:
                raise ValueError(f"duplicate doc_id {doc_id!r}")
            seen.add(doc_id)
            yield Passage(doc_id=doc_id, text=text)


def load_sessions(path: str | Path) -> list[Session]:
    """Parse a topic file: a JSON array of ``{number, turn: [{number, raw_utterance}]}``.

    Turn numbers must be whole numbers, contiguous starting at 1, session
    numbers distinct strings or integers, and each utterance a string: query
    ids are rendered as ``<session>_<turn>`` downstream.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8-sig") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise ValueError(f"{path}: topic file is not valid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise ValueError(f"{path}: topic file must be a JSON array of sessions")
    sessions = []
    seen: set[str] = set()
    for entry in data:
        if not isinstance(entry, dict) or "number" not in entry or "turn" not in entry:
            raise ValueError(f"{path}: sessions must be objects with 'number' and 'turn' fields")
        if not _is_id(entry["number"]):
            raise ValueError(
                f"{path}: session number must be a string or an integer, got {entry['number']!r}"
            )
        sid = str(entry["number"])
        if not is_utf8(sid):
            raise ValueError(f"{path}: session number {sid!r} holds a lone surrogate, not UTF-8")
        if sid.split() != [sid]:
            raise ValueError(f"{path}: session number {sid!r} is empty or has whitespace")
        if sid in seen:
            raise ValueError(f"{path}: two sessions have number {sid}, so their qids would collide")
        seen.add(sid)
        if not isinstance(entry["turn"], list):
            raise ValueError(f"{path}: session {sid}: 'turn' must be a JSON array of turns")
        utterances = []
        for i, t in enumerate(entry["turn"], start=1):
            if not isinstance(t, dict) or "number" not in t or "raw_utterance" not in t:
                raise ValueError(
                    f"{path}: session {sid}: turn {i} must be an object with 'number' "
                    "and 'raw_utterance' fields"
                )
            if not is_integral(t["number"]):
                raise ValueError(
                    f"{path}: session {sid}: turn {i} has number {t['number']!r}, not an integer"
                )
            if not isinstance(t["raw_utterance"], str):
                raise ValueError(
                    f"{path}: session {sid}: turn {i} has raw_utterance "
                    f"{t['raw_utterance']!r}, not a string"
                )
            if not is_utf8(t["raw_utterance"]):
                raise ValueError(
                    f"{path}: session {sid}: turn {i} has raw_utterance "
                    f"{t['raw_utterance']!r}, which holds a lone surrogate, not UTF-8"
                )
            turn_no = int(t["number"])
            if turn_no != i:
                raise ValueError(
                    f"{path}: session {sid}: non-contiguous turn numbers "
                    f"(expected {i}, found {turn_no})"
                )
            utterances.append(Utterance(session_id=sid, turn=turn_no, raw_text=t["raw_utterance"]))
        sessions.append(Session(session_id=sid, utterances=utterances))
    return sessions

