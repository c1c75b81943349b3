import json
import re

import pytest

from convpr.corpus import Passage, Session, Utterance, load_passages, load_sessions
from convpr.cqr import PosAnnotations, load_external_rewrites
from convpr.evaluation import load_qrels
from convpr.fusion import load_rerank_scores
from convpr.runs import read_run


def test_tsv_two_rows_in_file_order(tmp_path):
    p = tmp_path / "c.tsv"
    p.write_text("d1\tfirst passage\nd2\tsecond passage\n", encoding="utf-8")
    got = list(load_passages(p, "tsv"))
    assert got == [Passage("d1", "first passage"), Passage("d2", "second passage")]


def test_tsv_missing_tab_names_line(tmp_path):
    p = tmp_path / "c.tsv"
    p.write_text("no tab here\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":1:"):
        list(load_passages(p, "tsv"))


def test_tsv_text_may_contain_tabs(tmp_path):
    p = tmp_path / "c.tsv"
    p.write_text("d1\ta\tb\tc\n", encoding="utf-8")
    (got,) = load_passages(p, "tsv")
    assert got.text == "a\tb\tc"


def test_duplicate_doc_id_is_an_error(tmp_path):
    p = tmp_path / "c.tsv"
    p.write_text("d1\tx\nd1\ty\n", encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate doc_id"):
        list(load_passages(p, "tsv"))


@pytest.mark.parametrize(
    "format,text",
    [
        ("tsv", "d1\tx\nd 2\ty\n"),
        ("jsonl", '{"id": "d1", "contents": "x"}\n{"id": "d 2", "contents": "y"}\n'),
    ],
)
def test_doc_id_with_whitespace_is_an_error(tmp_path, format, text):
    # A run file holds the doc_id as one whitespace-separated column.
    p = tmp_path / f"c.{format}"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=r":2: doc_id 'd 2'"):
        list(load_passages(p, format))


def test_jsonl_three_objects(tmp_path):
    p = tmp_path / "c.jsonl"
    rows = [{"id": f"d{i}", "contents": f"text {i}"} for i in range(3)]
    p.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    got = list(load_passages(p, "jsonl"))
    assert [g.doc_id for g in got] == ["d0", "d1", "d2"]


def test_jsonl_missing_field_is_an_error(tmp_path):
    p = tmp_path / "c.jsonl"
    p.write_text('{"id": "d0"}\n', encoding="utf-8")
    with pytest.raises(ValueError, match=r":1:"):
        list(load_passages(p, "jsonl"))


@pytest.mark.parametrize(
    "row,message",
    [
        ({"id": None, "contents": "x"}, "id must be a string or an integer, got None"),
        ({"id": True, "contents": "x"}, "id must be a string or an integer, got True"),
        ({"id": 2.0, "contents": "x"}, "id must be a string or an integer, got 2.0"),
        ({"id": "d2", "contents": None}, "contents must be a string, got None"),
        ({"id": "d2", "contents": ["x"]}, "contents must be a string, got ['x']"),
    ],
)
def test_jsonl_fields_must_hold_their_json_types(tmp_path, row, message):
    # str() would index the doc "None" or the term "none" without a word.
    p = tmp_path / "c.jsonl"
    p.write_text('{"id": "d1", "contents": "x"}\n' + json.dumps(row) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{p}:2: {message}")):
        list(load_passages(p, "jsonl"))


def test_jsonl_integer_ids_load_as_strings(tmp_path):
    p = tmp_path / "c.jsonl"
    p.write_text('{"id": 7, "contents": "x"}\n', encoding="utf-8")
    assert list(load_passages(p, "jsonl")) == [Passage("7", "x")]


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown passage format"):
        list(load_passages(tmp_path / "c.csv", "csv"))


@pytest.mark.parametrize("format", ["tsv", "jsonl"])
def test_round_trip_preserves_ids_and_text_bytes(tmp_path, format):
    original = [
        Passage("doc:1", "Ünïcode text — with punctuation!"),
        Passage("doc:2", "plain ascii"),
        Passage("doc:3", "trailing spaces   "),
    ]
    if format == "tsv":
        rows = [f"{p.doc_id}\t{p.text}" for p in original]
    else:
        rows = [json.dumps({"id": p.doc_id, "contents": p.text}, ensure_ascii=False) for p in original]
    path = tmp_path / f"c.{format}"
    path.write_text("".join(row + "\n" for row in rows), encoding="utf-8")
    reloaded = list(load_passages(path, format))
    assert reloaded == original


# Each line loader, reading to a value that compares by content, and three
# rows; row 3 holds a "@" where a space may stand, for each test to replace.
_LINE_LOADERS = {
    "passages": (lambda p: list(load_passages(p)), ["d1\ta", "d2\tb", "d3\tx@y"]),
    "pos": (
        lambda p: PosAnnotations.load(p)._tags,
        ['{"qid": "1_1", "tags": []}', '{"qid": "1_2", "tags": ["NOUN"]}',
         '{"qid": "1_3",@"tags": ["ADJ"]}'],
    ),
    "rewrites": (load_external_rewrites, ["1_1\ta", "1_2\tb", "1_3\tx@y"]),
    "run": (read_run, ["1 Q0 d1 1 2.0 t", "1 Q0 d2 2 1.0 t", "1 Q0 d3 3@0.5 t"]),
    "scores": (load_rerank_scores, ["1\td1\t1.0", "1\td2\t0.5", "1\td3\t@0.2"]),
    "qrels": (lambda p: load_qrels(p)._grades, ["1 0 d1 1", "1 0 d2 0", "1 0 d3@1"]),
}


def _load(path, name, text):
    """Write ``text`` to ``path`` as UTF-8, untranslated, and load it as ``name``."""
    path.write_bytes(text.encode("utf-8"))
    return _LINE_LOADERS[name][0](path)


def _lf_text(name, at=" "):
    return "".join(row.replace("@", at) + "\n" for row in _LINE_LOADERS[name][1])


@pytest.mark.parametrize("name", list(_LINE_LOADERS))
def test_undecodable_byte_names_file_and_line(tmp_path, name):
    path = tmp_path / name
    _load(path, name, _lf_text(name))  # the file is valid without the byte
    for eol in (b"\n", b"\r"):  # the line is counted as read_lines splits
        path.write_bytes(_lf_text(name, "@").encode("utf-8").replace(b"@", b"\xff").replace(b"\n", eol))
        with pytest.raises(ValueError) as exc:
            _LINE_LOADERS[name][0](path)
        assert str(exc.value).startswith(f"{path}:3: not valid UTF-8: "), exc.value


@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("name", list(_LINE_LOADERS))
def test_blank_lines_are_skipped_not_read_as_rows(tmp_path, name, eol):
    # Empty lines and lines of spaces and tabs are skipped, and a CRLF or
    # CR-only file reads as its LF twin: no row keeps a "\r".
    rows = _lf_text(name).splitlines()
    spaced = eol.join(["", rows[0], " \t ", rows[1], "", rows[2], "  "]) + eol
    assert _load(tmp_path / "spaced", name, spaced) == _load(tmp_path / "lf", name, _lf_text(name))


@pytest.mark.parametrize("name", list(_LINE_LOADERS))
def test_leading_bom_is_dropped(tmp_path, name):
    # Read as text, a BOM would prefix the first id: a qrels file's first
    # qid would match no run's, and its query would leave the means silently.
    lf = _lf_text(name)
    assert _load(tmp_path / "bom", name, "\ufeff" + lf) == _load(tmp_path / "lf", name, lf)


@pytest.mark.parametrize("name", list(_LINE_LOADERS))
def test_bad_row_after_blank_lines_names_its_own_line(tmp_path, name):
    path, row = tmp_path / name, _lf_text(name).splitlines()[0]
    with pytest.raises(ValueError) as exc:
        _load(path, name, f"\n \n{row}\r\n\r\noops\n{row}\n")
    message = str(exc.value)
    assert message.startswith(f"{path}:5: ") and message.count(str(path)) == 1, message


def _topic_file(tmp_path, sessions):
    p = tmp_path / "topics.json"
    p.write_text(json.dumps(sessions), encoding="utf-8")
    return p


def test_topic_file_with_a_bom_loads(tmp_path):
    p = tmp_path / "topics.json"
    p.write_bytes(b"\xef\xbb\xbf" + json.dumps([{"number": 1, "turn": [
        {"number": 1, "raw_utterance": "hi"}]}]).encode("utf-8"))
    (session,) = load_sessions(p)
    assert session.utterances == [Utterance("1", 1, "hi")]


def test_session_with_twelve_turns(tmp_path):
    turns = [{"number": i, "raw_utterance": f"question number {i}"} for i in range(1, 13)]
    turns[0]["raw_utterance"] = "What is a physician's assistant?"
    p = _topic_file(tmp_path, [{"number": 1, "turn": turns}])
    (session,) = load_sessions(p)
    assert len(session.utterances) == 12
    assert session.utterances[0].raw_text == "What is a physician's assistant?"
    assert session.utterances[0].qid == "1_1"
    assert session.utterances[11].qid == "1_12"


def test_single_session_single_turn(tmp_path):
    p = _topic_file(tmp_path, [{"number": 1, "turn": [{"number": 1, "raw_utterance": "hi"}]}])
    (session,) = load_sessions(p)
    assert session.utterances[0].qid == "1_1"


def test_non_contiguous_turns_rejected(tmp_path):
    p = _topic_file(
        tmp_path,
        [{"number": 2, "turn": [
            {"number": 1, "raw_utterance": "a"},
            {"number": 3, "raw_utterance": "b"},
        ]}],
    )
    with pytest.raises(ValueError, match="non-contiguous"):
        load_sessions(p)


def test_session_type_validates_turn_order():
    with pytest.raises(ValueError, match="contiguous"):
        Session("s", [Utterance("s", 2, "b")])


def test_session_number_with_whitespace_is_an_error(tmp_path):
    # The session number is the first part of every qid in a run file.
    p = tmp_path / "t.json"
    p.write_text('[{"number": "31 b", "turn": [{"number": 1, "raw_utterance": "x"}]}]',
                 encoding="utf-8")
    with pytest.raises(ValueError, match="session number '31 b'"):
        load_sessions(p)


def test_two_sessions_with_one_number_are_an_error(tmp_path):
    # Their qids would collide, and a run keeps one list per qid.
    turn = [{"number": 1, "raw_utterance": "x"}]
    p = _topic_file(tmp_path, [{"number": 3, "turn": turn}, {"number": "3", "turn": turn}])
    with pytest.raises(ValueError, match=re.escape(f"{p}: two sessions have number 3")):
        load_sessions(p)


@pytest.mark.parametrize("number", [1.5, True, "1", None])
def test_turn_number_that_is_not_a_whole_number_is_an_error(tmp_path, number):
    turns = [{"number": number, "raw_utterance": "x"}]
    p = _topic_file(tmp_path, [{"number": 4, "turn": turns}])
    message = f"{p}: session 4: turn 1 has number {number!r}, not an integer"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_sessions(p)


@pytest.mark.parametrize(
    "session,message",
    [
        ({"number": True}, "session number must be a string or an integer, got True"),
        ({"number": None}, "session number must be a string or an integer, got None"),
        ({"number": 4.0}, "session number must be a string or an integer, got 4.0"),
        (
            {"number": 4, "raw_utterance": None},
            "session 4: turn 1 has raw_utterance None, not a string",
        ),
        (
            {"number": 4, "raw_utterance": 12},
            "session 4: turn 1 has raw_utterance 12, not a string",
        ),
    ],
)
def test_topic_fields_must_hold_their_json_types(tmp_path, session, message):
    turn = {"number": 1, "raw_utterance": session.pop("raw_utterance", "x")}
    p = _topic_file(tmp_path, [{**session, "turn": [turn]}])
    with pytest.raises(ValueError, match=re.escape(f"{p}: {message}")):
        load_sessions(p)


def test_integral_float_turn_numbers_load(tmp_path):
    turns = [{"number": 1.0, "raw_utterance": "x"}, {"number": 2, "raw_utterance": "y"}]
    (session,) = load_sessions(_topic_file(tmp_path, [{"number": 4, "turn": turns}]))
    assert [u.qid for u in session.utterances] == ["4_1", "4_2"]
    assert type(session.utterances[0].turn) is int
