import json
import math
import re
import sys

import numpy as np
import pytest

import oracles
from conftest import index_from
from convpr.corpus import Utterance
from convpr.cqr import (
    HQE_RERANK_DEFAULTS,
    HQE_RETRIEVAL_DEFAULTS,
    HqeParams,
    PosAnnotations,
    concat_rewrite,
    extract_keywords,
    hqe_rewrite,
    load_external_rewrites,
    raw_query,
    write_rewrites,
)
from convpr.index import Bm25Params, Searcher
from convpr.tokenization import tokenize

# One rare term ("quasar"), one mid-frequency term ("radio"), and glue words
# spread across many docs so their best scores stay low.
DOCS = {
    "d01": ["quasar", "cores", "emit", "powerful", "radio", "jets"],
    "d02": ["the", "lighthouse", "beacon", "shines", "brightly"],
    "d03": ["tomato", "sauce", "with", "fresh", "basil"],
    "d04": ["the", "history", "of", "printing", "presses"],
    "d05": ["basketball", "drills", "improve", "footwork", "fast"],
    "d06": ["gardening", "tips", "for", "growing", "tomatoes"],
    "d07": ["deep", "sea", "creatures", "glow", "the", "dark"],
    "d08": ["annual", "rainfall", "of", "the", "amazon"],
    "d09": ["solar", "telescopes", "capture", "radio", "signals"],
    "d10": ["mountain", "hiking", "trails", "for", "spring"],
}


def _session(*texts):
    return [Utterance("5", i, t) for i, t in enumerate(texts, start=1)]


@pytest.fixture(scope="module")
def searcher():
    return Searcher(index_from(DOCS), Bm25Params())


def test_params_require_topic_above_sub():
    with pytest.raises(ValueError, match="must exceed"):
        HqeParams(r_topic=1.0, r_sub=2.0)
    with pytest.raises(ValueError, match="m_window"):
        HqeParams(m_window=-1)


@pytest.mark.parametrize("name", ["r_topic", "r_sub", "eta"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_require_finite_thresholds(name, value):
    # A NaN eta would switch the subtopic branch off without a word; an
    # infinite threshold admits every keyword or none.
    with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
        HqeParams(**{name: value})


def test_tuned_defaults():
    assert (
        HQE_RETRIEVAL_DEFAULTS.eta,
        HQE_RETRIEVAL_DEFAULTS.r_topic,
        HQE_RETRIEVAL_DEFAULTS.r_sub,
        HQE_RETRIEVAL_DEFAULTS.m_window,
    ) == (10.0, 4.5, 3.5, 5)
    assert (
        HQE_RERANK_DEFAULTS.eta,
        HQE_RERANK_DEFAULTS.r_topic,
        HQE_RERANK_DEFAULTS.r_sub,
        HQE_RERANK_DEFAULTS.m_window,
    ) == (12.0, 4.0, 3.0, 1)


def test_topic_threshold_above_every_score_empties_topic_set(searcher):
    utts = _session("what is a quasar", "what about the radio jets")
    w_topic, _ = extract_keywords(
        searcher, utts, HqeParams(r_topic=sys.float_info.max, r_sub=0.1, eta=1, m_window=5)
    )
    assert w_topic == []


def test_vacuous_sub_threshold_collects_all_indexed_tokens(searcher):
    utts = _session("quasar radio glow", "lighthouse beacon quasar")
    _, w_sub = extract_keywords(
        searcher, utts, HqeParams(r_topic=sys.float_info.max, r_sub=0.0, eta=1, m_window=5)
    )
    # every distinct indexed token from both turns, first occurrence first
    assert w_sub == ["quasar", "radio", "glow", "lighthouse", "beacon"]


def test_rare_term_crosses_threshold_common_term_does_not(searcher):
    # hand positioning via the exhaustive keyword-score oracle
    ke_rare = oracles.ke_score(DOCS, "quasar", 0.82, 0.68)
    ke_common = oracles.ke_score(DOCS, "the", 0.82, 0.68)
    assert ke_common < ke_rare
    threshold = (ke_rare + ke_common) / 2.0
    utts = _session("the quasar")
    w_topic, w_sub = extract_keywords(
        searcher, utts, HqeParams(r_topic=threshold, r_sub=threshold - 1e-6, eta=1, m_window=5)
    )
    assert w_topic == ["quasar"]
    assert "the" not in w_sub


def test_first_turn_passes_through(searcher):
    q = hqe_rewrite(searcher, _session("What is a quasar?"), HQE_RETRIEVAL_DEFAULTS)
    assert q.tokens == ("what", "is", "a", "quasar")
    assert q.display_text == "What is a quasar?"
    assert q.qid == "5_1"


def test_expansion_matches_pseudocode_oracle(searcher):
    texts = ["what is a quasar", "tell me about radio jets", "what about the glow"]
    utts = _session(*texts)
    params = HqeParams(r_topic=1.9, r_sub=1.2, eta=3.0, m_window=1)
    got = hqe_rewrite(searcher, utts, params)
    want = oracles.hqe_expand(
        DOCS,
        [tokenize(t) for t in texts],
        0.82,
        0.68,
        params.r_topic,
        params.r_sub,
        params.eta,
        params.m_window,
    )
    assert list(got.tokens) == want


def test_output_always_ends_with_raw_tokens(searcher):
    utts = _session("what is a quasar", "its radio jets", "the beacon glow")
    for i in (1, 2, 3):
        q = hqe_rewrite(searcher, utts[:i], HqeParams(r_topic=1.9, r_sub=1.2, eta=99, m_window=2))
        raw = tokenize(utts[i - 1].raw_text)
        assert list(q.tokens[-len(raw):]) == raw


def test_low_ambiguity_score_adds_subtopic_keywords(searcher):
    utts = _session("what is a quasar", "what about it")
    suppressed = hqe_rewrite(searcher, utts, HqeParams(r_topic=1.9, r_sub=1.2, eta=0.0, m_window=5))
    forced = hqe_rewrite(searcher, utts, HqeParams(r_topic=1.9, r_sub=1.2, eta=1e9, m_window=5))
    # eta=0 can never trigger (scores are >= 0), a huge eta always does
    assert list(suppressed.tokens) == ["quasar", "what", "about", "it"]
    assert list(forced.tokens) == ["quasar", "quasar", "what", "about", "it"]


def test_in_window_topic_keywords_appear_twice(searcher):
    utts = _session("the quasar core", "more about the quasar")
    q = hqe_rewrite(searcher, utts, HqeParams(r_topic=1.9, r_sub=1.2, eta=1e9, m_window=5))
    assert list(q.tokens).count("quasar") >= 2 + 1  # both keyword sets, plus the raw utterance


def test_raising_eta_only_adds_tokens(searcher):
    from collections import Counter

    utts = _session("what is a quasar", "tell me about radio jets", "what about the glow")
    lo = hqe_rewrite(searcher, utts, HqeParams(r_topic=1.9, r_sub=1.2, eta=0.5, m_window=2))
    hi = hqe_rewrite(searcher, utts, HqeParams(r_topic=1.9, r_sub=1.2, eta=50.0, m_window=2))
    lo_counts, hi_counts = Counter(lo.tokens), Counter(hi.tokens)
    assert all(hi_counts[t] >= c for t, c in lo_counts.items())


def test_display_text_tokenizes_to_tokens(searcher):
    utts = _session("What is a quasar?", "Tell me about the radio jets!")
    q = hqe_rewrite(searcher, utts, HqeParams(r_topic=1.9, r_sub=1.2, eta=1e9, m_window=5))
    assert list(q.tokens) == tokenize(q.display_text)
    assert q.display_text.endswith("Tell me about the radio jets!")


def test_window_clamps_at_first_turn(searcher):
    utts = _session("quasar", "radio", "glow")
    wide = extract_keywords(searcher, utts, HqeParams(r_topic=99.0, r_sub=0.1, eta=1, m_window=50))
    exact = extract_keywords(searcher, utts, HqeParams(r_topic=99.0, r_sub=0.1, eta=1, m_window=2))
    assert wide == exact


def test_pos_filter_blocks_other_tagged_history(searcher):
    utts = _session("the quasar", "more glow")
    pos = PosAnnotations({"5_1": ["OTHER", "OTHER"], "5_2": ["OTHER", "NOUN"]})
    w_topic, w_sub = extract_keywords(
        searcher, utts, HqeParams(r_topic=0.5, r_sub=0.1, eta=1, m_window=5), pos
    )
    assert "quasar" not in w_topic and "quasar" not in w_sub
    assert w_topic == ["glow"]


def test_pos_annotations_validate_alignment(tmp_path):
    pos = PosAnnotations({"5_1": ["NOUN"]})
    with pytest.raises(ValueError, match="align"):
        pos.content_tokens("5_1", ["a", "b", "c"])
    with pytest.raises(ValueError, match="no POS annotation"):
        pos.content_tokens("5_9", ["a"])


def test_pos_annotations_load_and_reject_duplicates(tmp_path):
    path = tmp_path / "pos.jsonl"
    path.write_text(
        json.dumps({"qid": "1_1", "tags": ["NOUN", "OTHER"]}) + "\n",
        encoding="utf-8",
    )
    pos = PosAnnotations.load(path)
    assert pos.content_tokens("1_1", ["quasar", "the"]) == ["quasar"]
    path.write_text(
        "\n".join(json.dumps({"qid": "1_1", "tags": ["NOUN"]}) for _ in range(2)) + "\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match="duplicate qid"):
        PosAnnotations.load(path)


@pytest.mark.parametrize(
    "row,message",
    [
        ({"qid": "1_1", "tags": ["NOUN", None]}, "tags must be a list of strings, got ['NOUN', None]"),
        ({"qid": "1_1", "tags": "NOUN"}, "tags must be a list of strings, got 'NOUN'"),
        ({"qid": 11, "tags": ["NOUN"]}, "qid must be a string, got 11"),
        ({"qid": None, "tags": ["NOUN"]}, "qid must be a string, got None"),
        ({"tags": ["NOUN"]}, "bad annotation row"),
    ],
)
def test_pos_annotation_fields_must_hold_their_json_types(tmp_path, row, message):
    # str(None) would be the tag "None" and str(11) the qid "11".
    path = tmp_path / "pos.jsonl"
    path.write_text(json.dumps({"qid": "1_0", "tags": []}) + "\n" + json.dumps(row) + "\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: {message}")):
        PosAnnotations.load(path)


# -- concat baselines ---------------------------------------------------------


def test_concat_zero_window_is_raw():
    utts = _session("first question", "second question", "third question")
    q = concat_rewrite(utts, m_window=0)
    assert q == raw_query(utts[-1])


def test_concat_one_window_prepends_previous_turn():
    utts = _session("what are the requirements", "what does it cost")
    q = concat_rewrite(utts, m_window=1)
    assert list(q.tokens) == tokenize(utts[0].raw_text) + tokenize(utts[1].raw_text)
    assert q.display_text == "what are the requirements what does it cost"


def test_concat_wide_window_equals_full_history():
    utts = _session("a b", "c d", "e f", "g h")
    assert concat_rewrite(utts, m_window=3) == concat_rewrite(utts, m_window=99)
    assert list(concat_rewrite(utts, m_window=99).tokens) == list("abcdefgh")


def test_concat_default_window_is_nine():
    utts = _session(*[f"turn {i}" for i in range(1, 12)])
    q = concat_rewrite(utts)
    # 9 history turns + the current one
    assert list(q.tokens).count("turn") == 10


def test_concat_pos_filters_history_not_current():
    utts = _session("the quasar", "the glow")
    pos = PosAnnotations({"5_1": ["OTHER", "NOUN"], "5_2": ["OTHER", "NOUN"]})
    q = concat_rewrite(utts, m_window=1, pos=pos)
    assert list(q.tokens) == ["quasar", "the", "glow"]
    assert q.display_text == "quasar the glow"
    assert list(q.tokens) == tokenize(q.display_text)


# -- external rewrites ----------------------------------------------------------


def test_external_rewrites_round_trip(tmp_path):
    path = tmp_path / "rw.tsv"
    # one rewrite per evaluation turn, as a full topic file would provide
    rows = {f"{s}_{t}": f"rewritten query {s} {t}" for s in range(1, 21) for t in range(1, 10)}
    rows = dict(list(rows.items())[:173])
    path.write_text("".join(f"{q}\t{t}\n" for q, t in rows.items()), encoding="utf-8")
    loaded = load_external_rewrites(path)
    assert len(loaded) == 173
    assert loaded["1_3"].display_text == "rewritten query 1 3"
    assert loaded["1_3"].tokens == ("rewritten", "query", "1", "3")

    out = tmp_path / "out.tsv"
    write_rewrites(out, list(loaded.values()))
    again = load_external_rewrites(out)
    assert again == loaded


def test_external_rewrites_duplicate_qid_rejected(tmp_path):
    path = tmp_path / "rw.tsv"
    path.write_text("1_1\ta\n1_1\tb\n", encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate qid"):
        load_external_rewrites(path)


def test_external_rewrites_malformed_row(tmp_path):
    path = tmp_path / "rw.tsv"
    path.write_text("no-tab-here\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":1:"):
        load_external_rewrites(path)


@pytest.mark.parametrize("qid", ["a b", "", " ", "7_1 "])
def test_external_rewrites_reject_empty_or_spaced_qids(tmp_path, qid):
    # A run file holds the qid as one whitespace-separated column.
    path = tmp_path / "rw.tsv"
    path.write_text(f"1_1\ta\n{qid}\tWhat is a quasar?\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        load_external_rewrites(path)
    assert str(exc.value) == f"{path}:2: qid {qid!r} is empty or has whitespace"


def test_random_sessions_match_pseudocode_oracle(searcher):
    rng = np.random.default_rng(29)
    vocab = sorted({t for toks in DOCS.values() for t in toks}) + ["offtopic", "novel"]
    for _ in range(15):
        n_turns = int(rng.integers(1, 6))
        texts = [
            " ".join(vocab[int(rng.integers(0, len(vocab)))] for _ in range(int(rng.integers(1, 5))))
            for _ in range(n_turns)
        ]
        utts = _session(*texts)
        params = HqeParams(
            r_topic=float(rng.uniform(1.0, 3.0)),
            r_sub=float(rng.uniform(0.2, 0.9)),
            eta=float(rng.uniform(0.5, 4.0)),
            m_window=int(rng.integers(0, 4)),
        )
        got = hqe_rewrite(searcher, utts, params)
        want = oracles.hqe_expand(
            DOCS, [tokenize(t) for t in texts], 0.82, 0.68,
            params.r_topic, params.r_sub, params.eta, params.m_window,
        )
        assert list(got.tokens) == want
