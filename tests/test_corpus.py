import json
import re

import pytest

from convpr.corpus import Passage, Session, Utterance, load_passages, load_sessions, save_passages


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
    p = tmp_path / f"c.{format}"
    assert save_passages(p, original, format) == 3
    reloaded = list(load_passages(p, format))
    assert reloaded == original


def test_tsv_newline_in_text_cannot_round_trip(tmp_path):
    with pytest.raises(ValueError, match="round-trip"):
        save_passages(tmp_path / "c.tsv", [Passage("d1", "two\nlines")], "tsv")


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
