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


# Each line loader, with a file whose line 3 holds a "@" for the byte 0xff.
_LINE_LOADERS = {
    "passages": (lambda p: list(load_passages(p)), "d1\ta\nd2\tb\nd3\t@\n"),
    "pos": (PosAnnotations.load, "".join(f'{{"qid": "1_{t}", "tags": []}}\n' for t in "12@")),
    "rewrites": (load_external_rewrites, "1_1\ta\n1_2\tb\n1_3\t@\n"),
    "run": (read_run, "1 Q0 d1 1 2.0 t\n1 Q0 d2 2 1.0 t\n1 Q0 d@ 3 0.5 t\n"),
    "scores": (load_rerank_scores, "1\td1\t1.0\n1\td2\t0.5\n1\td@\t0.2\n"),
    "qrels": (load_qrels, "1 0 d1 1\n1 0 d2 0\n1 0 d@ 1\n"),
}


@pytest.mark.parametrize("name", list(_LINE_LOADERS))
def test_undecodable_byte_names_file_and_line(tmp_path, name):
    load, text = _LINE_LOADERS[name]
    path = tmp_path / name
    path.write_bytes(text.replace("@", "x").encode("utf-8"))
    load(path)  # the file is valid without the byte
    path.write_bytes(text.encode("utf-8").replace(b"@", b"\xff"))
    with pytest.raises(ValueError) as exc:
        load(path)
    assert str(exc.value).startswith(f"{path}:3: not valid UTF-8: "), exc.value


def _topic_file(tmp_path, sessions):
    p = tmp_path / "topics.json"
    p.write_text(json.dumps(sessions), encoding="utf-8")
    return p


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


@pytest.mark.parametrize(
    "rows,load",
    [
        (["d1\tcat sat", "d2\tdog ran"], lambda p: list(load_passages(p, "tsv"))),
        (['{"qid": "7_1", "tags": ["NOUN"]}', '{"qid": "7_2", "tags": ["ADJ", "NOUN"]}'],
         lambda p: PosAnnotations.load(p)._tags),
        (["7_1\tcat sat", "7_2\tdog"], load_external_rewrites),
        (["7_1 0 d1 1", "7_2 0 d2 2", "7_2 0 d3 0"],
         lambda p: (len(q := load_qrels(p)), {qid: dict(q.doc_grades(qid)) for qid in ("7_1", "7_2")})),
    ],
    ids=["passages-tsv", "pos-jsonl", "rewrites-tsv", "qrels"],
)
def test_blank_lines_are_skipped_not_read_as_rows(tmp_path, rows, load):
    plain, spaced = tmp_path / "plain", tmp_path / "spaced"
    plain.write_text("".join(row + "\n" for row in rows), encoding="utf-8")
    spaced.write_text("\n" + "\n\n".join(rows) + "\n\n\n", encoding="utf-8")
    assert load(spaced) == load(plain)
