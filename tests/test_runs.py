import pytest

from convpr.runs import RankedEntry, RankedList, RunFileWarning, qid_sort_key, read_run, write_run


def _list(qid, pairs):
    return RankedList(qid, [RankedEntry(d, s) for d, s in pairs])


def test_rank_must_be_contiguous(tmp_path):
    # In memory a rank is a list position; in a run file every qid's ranks
    # are written as 1..n, and reading them back restores the same entries.
    full = RankedList.from_scores("1_1", [("b", 1.0), ("a", 1.0), ("c", 2.0), ("d", 0.5)])
    cut = RankedList.from_scores("1_2", [("x", 3.0), ("y", 2.0), ("z", 1.0)]).truncated(2)
    path = tmp_path / "x.run"
    write_run(path, [full, cut])
    ranks: dict[str, list[int]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        qid, _q0, _doc, rank, _score, _tag = line.split()
        ranks.setdefault(qid, []).append(int(rank))
    assert ranks == {"1_1": [1, 2, 3, 4], "1_2": [1, 2]}
    assert read_run(path) == {"1_1": full, "1_2": cut}


def test_duplicate_doc_rejected():
    with pytest.raises(ValueError, match="duplicate doc_id"):
        RankedList("q", [RankedEntry("a", 1.0), RankedEntry("a", 0.5)])


def test_non_monotone_scores_warn_but_load():
    with pytest.warns(RunFileWarning):
        rl = RankedList("q", [RankedEntry("a", 1.0), RankedEntry("b", 2.0)])
    assert rl.doc_ids() == ["a", "b"]


def test_from_scores_ties_break_by_doc_id():
    rl = RankedList.from_scores("q", [("b", 1.0), ("a", 1.0), ("c", 2.0)])
    assert rl.doc_ids() == ["c", "a", "b"]
    assert [e.score for e in rl.entries] == [2.0, 1.0, 1.0]


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
    with pytest.raises(ValueError, match="rank 3 does not follow 1"):
        read_run(path)


def test_increasing_scores_in_file_warn(tmp_path):
    path = tmp_path / "x.run"
    path.write_text("q Q0 a 1 1.0 t\nq Q0 b 2 2.0 t\n", encoding="utf-8")
    with pytest.warns(RunFileWarning):
        run = read_run(path)
    assert run["q"].doc_ids() == ["a", "b"]


def test_wrong_column_count_is_an_error(tmp_path):
    path = tmp_path / "x.run"
    path.write_text("q Q0 a 1 1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected 6 columns"):
        read_run(path)


def test_scores_round_trip_exactly(tmp_path):
    scores = [1.0 / 3.0, 2.0 / 61.0, 9.87654321e-5]
    run = {"q": _list("q", [(f"d{i}", s) for i, s in enumerate(sorted(scores, reverse=True))])}
    path = tmp_path / "x.run"
    write_run(path, run)
    again = read_run(path)
    assert [e.score for e in again["q"].entries] == [e.score for e in run["q"].entries]


def test_tag_with_whitespace_is_rejected_before_writing(tmp_path):
    path = tmp_path / "x.run"
    with pytest.raises(ValueError, match="run tag 'my raw'"):
        write_run(path, [_list("1_1", [("a", 1.0)])], tag="my raw")
    assert not path.exists()
