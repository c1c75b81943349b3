import random
import re

import numpy as np
import pytest

import oracles
from convpr import runs
from convpr.runs import (
    RankedEntry,
    RankedList,
    RunFileWarning,
    best_first,
    id_rank,
    qid_sort_key,
    read_run,
    write_run,
)


def _list(qid, pairs):
    return RankedList(qid, [d for d, _ in pairs], [s for _, s in pairs])


def test_rank_must_be_contiguous(tmp_path):
    # In memory a rank is a list position; in a run file every qid's ranks
    # are written as 1..n, and reading them back restores the same entries.
    full = RankedList.from_scores("1_1", ["b", "a", "c", "d"], [1.0, 1.0, 2.0, 0.5])
    cut = RankedList.from_scores("1_2", ["x", "y", "z"], [3.0, 2.0, 1.0]).truncated(2)
    path = tmp_path / "x.run"
    write_run(path, [full, cut])
    ranks: dict[str, list[int]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        qid, _q0, _doc, rank, _score, _tag = line.split()
        ranks.setdefault(qid, []).append(int(rank))
    assert ranks == {"1_1": [1, 2, 3, 4], "1_2": [1, 2]}
    assert read_run(path) == {"1_1": full, "1_2": cut}
    for depth in (0, -1):
        with pytest.raises(ValueError, match=f"depth must be >= 1, got {depth}"):
            full.truncated(depth)


def test_duplicate_doc_rejected():
    with pytest.raises(ValueError, match="duplicate doc_id"):
        RankedList("q", ["a", "a"], [1.0, 0.5])


def test_non_monotone_scores_warn_but_load():
    with pytest.warns(RunFileWarning):
        rl = RankedList("q", ["a", "b"], [1.0, 2.0])
    assert rl.ids == ["a", "b"]


def test_from_scores_ties_break_by_doc_id():
    rl = RankedList.from_scores("q", ["b", "a", "c"], [1.0, 1.0, 2.0])
    assert rl.ids == ["c", "a", "b"]
    assert [e.score for e in rl.entries] == [2.0, 1.0, 1.0]
    rng = random.Random(11)
    for case in range(300):
        ids, scores = oracles.random_scored(rng, rng.randint(0, len(oracles.TIE_ID_POOL)))
        depth = rng.randint(1, len(ids) + 1)
        got = RankedList.from_scores("q", ids, scores, depth)
        want = oracles.score_order(zip(ids, scores))[:depth]
        # repr compares bitwise: -0.0 must stay -0.0.
        assert [(e.doc_id, repr(e.score)) for e in got.entries] == [
            (d, repr(s)) for d, s in want
        ], case


def _no_ties(*_):
    raise AssertionError("tie ranks asked for, but no two scores are equal")


def test_best_first_asks_for_tie_ranks_only_when_scores_tie(monkeypatch):
    rng = np.random.default_rng(3)
    for n in (0, 1, 2, 7, 300):
        scores = rng.permutation(n) - n / 2 + rng.random(n) / 4
        assert best_first(scores, _no_ties).tolist() == np.argsort(-scores).tolist()
        assert best_first(scores, _no_ties, 3).tolist() == np.argsort(-scores)[:3].tolist()
    # Neither fusion nor reranking sorts the doc ids of a tie-free list.
    monkeypatch.setattr(runs, "id_rank", _no_ties)
    rl = RankedList.from_scores("q", ["b", "c", "a"], [1.0, -0.5, 2.0])
    assert rl.ids == ["a", "b", "c"]
    with pytest.raises(AssertionError, match="tie ranks asked for"):
        RankedList.from_scores("q", ["b", "a"], [1.0, 1.0])


def test_best_first_edge_cases():
    empty = best_first(np.array([], dtype=np.float64), _no_ties)
    assert empty.size == 0 and empty.dtype.kind == "i"
    assert best_first(np.array([1.0, 3.0, 2.0]), _no_ties, k=5).tolist() == [1, 2, 0]
    # -0.0 ties 0.0, so the rank decides, whatever the sign bit.
    for scores in ([0.0, -0.0, 1.0], [-0.0, 0.0, 1.0]):
        got = best_first(np.array(scores), lambda: np.array([1, 0, 2], dtype=np.int32))
        assert got.tolist() == [2, 1, 0], scores
    assert best_first(np.full(4, 2.5), lambda: np.array([3, 0, 2, 1]), k=2).tolist() == [1, 3]


def test_id_rank_is_python_string_order():
    assert id_rank([]).tolist() == []
    rank = id_rank(["b", "a\x00", "a", "B", "10", "9"])
    assert rank.dtype == np.int32
    assert rank.tolist() == [5, 4, 3, 2, 0, 1]


def test_best_first_matches_the_score_order_oracle():
    rng = random.Random(17)
    for case in range(150):
        ids, scores = oracles.random_scored(rng, rng.randint(1, len(oracles.TIE_ID_POOL)))
        want = [(d, repr(s)) for d, s in oracles.score_order(zip(ids, scores))]
        column = np.array(scores)
        for k in range(1, len(ids) + 2):
            got = best_first(column, lambda: id_rank(ids), k)
            # repr compares bitwise: -0.0 must stay -0.0.
            assert [(ids[i], repr(scores[i])) for i in got] == want[:k], (case, k)


def test_write_read_round_trip(tmp_path):
    run = {
        "1_2": _list("1_2", [("docB", 2.5), ("docA", 1.0 / 3.0)]),
        "1_10": _list("1_10", [("docC", 9.875)]),
    }
    path = tmp_path / "x.run"
    write_run(path, run, tag="test")
    again = read_run(path)
    assert again == run


def test_write_orders_by_natural_qid(tmp_path):
    run = {q: _list(q, [("d", 1.0)]) for q in ("31_10", "31_4", "4_1")}
    path = tmp_path / "x.run"
    write_run(path, run)
    qids = [line.split()[0] for line in path.read_text().splitlines()]
    assert qids == ["4_1", "31_4", "31_10"]


def test_qid_sort_key_mixes_numeric_and_string():
    qids = ["b_2", "10_1", "2_1", "b_10"]
    assert sorted(qids, key=qid_sort_key) == ["2_1", "10_1", "b_2", "b_10"]


def test_rank_gap_in_file_is_an_error(tmp_path):
    path = tmp_path / "x.run"
    path.write_text("q Q0 a 1 2.0 t\nq Q0 b 3 1.0 t\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"x\.run:2: qid q: rank 3 does not follow 1"):
        read_run(path)


def test_increasing_scores_in_file_warn(tmp_path):
    path = tmp_path / "x.run"
    path.write_text("q Q0 a 1 1.0 t\nq Q0 b 2 2.0 t\n", encoding="utf-8")
    with pytest.warns(RunFileWarning):
        run = read_run(path)
    assert run["q"].ids == ["a", "b"]


def test_wrong_column_count_is_an_error(tmp_path):
    path = tmp_path / "x.run"
    path.write_text("q Q0 a 1 1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"x\.run:1: expected 6 columns, found 5"):
        read_run(path)
    path.write_text("q Q0 a 1 1.0 t\n\nq Q0 b 2 0.5 t extra\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"x\.run:3: expected 6 columns, found 7"):
        read_run(path)


@pytest.mark.parametrize("rank,score", [("x", "0.5"), ("2.0", "0.5"), ("2", "high")])
def test_bad_rank_or_score_names_its_line(tmp_path, rank, score):
    path = tmp_path / "x.run"
    path.write_text(f"q Q0 a 1 1.0 t\nq Q0 b {rank} {score} t\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"x\.run:2: bad rank/score"):
        read_run(path)


def test_interleaved_qids_and_blank_lines_are_read_per_qid(tmp_path):
    path = tmp_path / "x.run"
    path.write_text(
        "\nq1 Q0 a 1 3.0 t\nq2 Q0 x 1 5.0 t\n  \nq1 Q0 b 2 2.0 t\n\nq2 Q0 y 2 -0.0 t\n",
        encoding="utf-8",
    )
    run = read_run(path)
    assert list(run) == ["q1", "q2"]
    assert run["q1"] == RankedList("q1", ["a", "b"], [3.0, 2.0])
    assert run["q2"] == RankedList("q2", ["x", "y"], [5.0, -0.0])
    assert repr(run["q2"].entries[1].score) == "-0.0"


def test_readers_given_one_pool_share_id_objects(tmp_path):
    """Equal ids of one file, or of files read with one pool, are one string
    object. (The ids are longer than one character, which CPython shares
    anyway.)"""
    a, b = tmp_path / "a.run", tmp_path / "b.run"
    a.write_text("q1 Q0 doc1 1 3.0 t\nq2 Q0 doc1 1 2.0 t\nq1 Q0 doc2 2 1.0 t\n", encoding="utf-8")
    b.write_text("q2 Q0 doc2 1 1.0 t\nq2 Q0 doc1 2 0.5 t\n", encoding="utf-8")
    alone = read_run(a)
    assert alone["q1"].ids[0] is alone["q2"].ids[0]
    pool: dict[str, str] = {}
    run_a, run_b = read_run(a, pool=pool), read_run(b, pool=pool)
    assert run_a == alone
    assert run_a["q1"].ids[0] is run_b["q2"].ids[1]
    assert run_a["q1"].ids[1] is run_b["q2"].ids[0]
    assert run_a["q2"].qid is run_b["q2"].qid
    # without a pool, each call has its own
    assert run_a["q1"].ids[0] is not alone["q1"].ids[0]


def test_scores_round_trip_exactly(tmp_path):
    scores = [1.0 / 3.0, 2.0 / 61.0, 9.87654321e-5]
    run = {"q": _list("q", [(f"d{i}", s) for i, s in enumerate(sorted(scores, reverse=True))])}
    path = tmp_path / "x.run"
    write_run(path, run)
    again = read_run(path)
    assert [e.score for e in again["q"].entries] == [e.score for e in run["q"].entries]
    for e in again["q"].entries:
        assert type(e) is RankedEntry and type(e.score) is float


def test_tag_with_whitespace_is_rejected_before_writing(tmp_path):
    path = tmp_path / "x.run"
    with pytest.raises(ValueError, match="run tag 'my raw'"):
        write_run(path, [_list("1_1", [("a", 1.0)])], tag="my raw")
    assert not path.exists()


@pytest.mark.parametrize(
    "qid, ids, message",
    [
        ("a b", ["d1"], "qid 'a b' is empty or has whitespace"),
        ("", ["d1"], "qid '' is empty or has whitespace"),
        ("1_1", ["d1", "d 2"], "qid 1_1: doc id 'd 2' is empty or has whitespace"),
        ("1_1", ["d1", ""], "qid 1_1: doc id '' is empty or has whitespace"),
        ("1_1", ["d1\td2"], "qid 1_1: doc id 'd1\\td2' is empty or has whitespace"),
    ],
)
def test_qid_or_doc_id_with_whitespace_is_rejected_before_writing(tmp_path, qid, ids, message):
    path = tmp_path / "x.run"
    lists = [_list("0_1", [("a", 1.0)]), RankedList(qid, ids, [1.0] * len(ids))]
    with pytest.raises(ValueError, match=re.escape(message)):
        write_run(path, lists)
    assert not path.exists()


def test_two_lists_for_one_qid_are_rejected_before_writing(tmp_path):
    path = tmp_path / "x.run"
    full = _list("1_1", [("a", 3.0), ("b", 2.0), ("c", 1.0)])
    with pytest.raises(ValueError, match="two ranked lists for qid '1_1'"):
        write_run(path, [full, _list("2_1", [("a", 1.0)]), full.truncated(2)])
    assert not path.exists()
    # A mapping's key does not name the list: its qid does.
    with pytest.raises(ValueError, match="two ranked lists for qid '1_1'"):
        write_run(path, {"1_1": full, "1_2": full.truncated(1)})
    assert not path.exists()


@pytest.mark.parametrize("nan", ["nan", "NaN", "-nan"])
def test_nan_score_names_its_line(tmp_path, nan):
    path = tmp_path / "x.run"
    path.write_text(
        f"q1 Q0 a 1 1.0 t\nq2 Q0 x 1 2.0 t\nq1 Q0 b 2 0.5 t\nq1 Q0 c 3 {nan} t\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match=r"x\.run:4: qid q1: score is NaN"):
        read_run(path)
