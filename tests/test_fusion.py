import random

import numpy as np
import pytest

import oracles
from convpr.fusion import (
    RrfParams,
    fuse_runs,
    load_rerank_scores,
    rerank,
    rerank_run,
    rrf_fuse,
)
from convpr.runs import RankedList, read_run


def _list(qid, doc_ids):
    n = len(doc_ids)
    return RankedList(qid, doc_ids, [float(n - i) for i in range(n)])


def test_params_validated():
    with pytest.raises(ValueError):
        RrfParams(k=0.0)
    # k = inf gives every doc 0.0, so the fused lists would be in doc_id order
    for k in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="rrf k must be finite and > 0"):
            RrfParams(k=k)
    assert RrfParams.k == 60.0
    from convpr.fusion import DEFAULT_FUSION_DEPTH

    assert DEFAULT_FUSION_DEPTH == 1000


def test_rank1_in_two_lists_scores_two_over_sixtyone():
    fused = rrf_fuse([_list("q", ["p", "x"]), _list("q", ["p", "y"])], RrfParams(60.0))
    assert fused.entries[0].doc_id == "p"
    assert abs(fused.entries[0].score - 2.0 / 61.0) < 1e-12


def test_single_list_order_preserved():
    lst = _list("q", ["c", "a", "b", "e", "d"])
    fused = rrf_fuse([lst], RrfParams(60.0))
    assert fused.ids == lst.ids


def test_three_synthetic_lists_match_oracle():
    lists = [
        _list("q", ["a", "b", "c", "d", "e"]),
        _list("q", ["c", "a", "f", "b", "g"]),
        _list("q", ["f", "c", "a", "h", "b"]),
    ]
    fused = rrf_fuse(lists, RrfParams(60.0), depth=100)
    want = oracles.rrf_rank([l.ids for l in lists], 60.0, 100)
    assert [(e.doc_id, e.score) for e in fused.entries] == want


def test_random_lists_match_oracle_at_every_depth():
    rng = random.Random(3)
    pool = oracles.TIE_ID_POOL
    for case in range(200):
        lists = [_list("q", rng.sample(pool, rng.randint(1, len(pool)))) for _ in range(rng.randint(1, 4))]
        k = rng.choice([60.0, 1.0, 2.5])
        depth = rng.randint(1, len(pool) + 1)
        fused = rrf_fuse(lists, RrfParams(k), depth=depth)
        want = oracles.rrf_rank([l.ids for l in lists], k, depth)
        assert [(e.doc_id, e.score) for e in fused.entries] == want, case


def test_mismatched_qids_rejected():
    with pytest.raises(ValueError, match="mismatched qids"):
        rrf_fuse([_list("q1", ["a"]), _list("q2", ["a"])])


def test_depth_truncates():
    fused = rrf_fuse([_list("q", list("abcdefgh"))], depth=3)
    assert len(fused) == 3
    # a depth below 1 would slice from the end, or give an empty list
    for depth in (0, -2):
        with pytest.raises(ValueError, match=f"fusion depth must be >= 1, got {depth}"):
            rrf_fuse([_list("q", list("abcdefgh"))], depth=depth)
        with pytest.raises(ValueError, match=f"fusion depth must be >= 1, got {depth}"):
            fuse_runs([{"q": _list("q", list("abc"))}], depth=depth)
        with pytest.raises(ValueError, match=f"fusion depth must be >= 1, got {depth}"):
            fuse_runs([{}], depth=depth)


def test_permutation_invariance():
    lists = [
        _list("q", ["a", "b", "c"]),
        _list("q", ["b", "d", "a"]),
        _list("q", ["d", "c", "b"]),
    ]
    fused_1 = rrf_fuse(lists, RrfParams(60.0))
    fused_2 = rrf_fuse(lists[::-1], RrfParams(60.0))
    assert fused_1.ids == fused_2.ids
    for e1, e2 in zip(fused_1.entries, fused_2.entries):
        assert e1.score == pytest.approx(e2.score, rel=1e-15)


def test_score_bounds():
    lists = [_list("q", ["a", "b"]), _list("q", ["b", "c"]), _list("q", ["c", "a"])]
    fused = rrf_fuse(lists, RrfParams(60.0))
    for e in fused.entries:
        assert 0.0 < e.score <= len(lists) / 61.0


def test_pareto_dominance_on_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n_lists = int(rng.integers(2, 5))
        docs = [f"d{i}" for i in range(int(rng.integers(3, 12)))]
        lists = []
        for _ in range(n_lists):
            perm = list(rng.permutation(docs))
            lists.append(_list("q", perm[: int(rng.integers(1, len(docs) + 1))]))
        fused = rrf_fuse(lists, RrfParams(60.0), depth=100)
        position = {e.doc_id: rank for rank, e in enumerate(fused.entries, start=1)}
        want = oracles.rrf_rank([l.ids for l in lists], 60.0, 100)
        assert [(e.doc_id, e.score) for e in fused.entries] == want
        for a in docs:
            for b in docs:
                if a == b:
                    continue
                ranks = [
                    (l.ids.index(a) if a in l.doc_set() else None,
                     l.ids.index(b) if b in l.doc_set() else None)
                    for l in lists
                ]
                # a beats b in every list where either appears, and a appears somewhere
                def beats(ra, rb):
                    if ra is None:
                        return rb is None
                    return rb is None or ra < rb

                if any(ra is not None for ra, _ in ranks) and all(beats(ra, rb) for ra, rb in ranks):
                    assert position[a] < position.get(b, len(docs) + 10)


# -- rerank ----------------------------------------------------------------------


def test_rerank_with_identical_scores_keeps_order_up_to_tiebreak():
    lst = _list("q", ["b", "a", "c"])
    scores = {"q": {d: e.score for d, e in zip(lst.ids, lst.entries)}}
    out = rerank(lst, scores)
    assert out.ids == lst.ids


def test_rerank_reversed_scores_reverses_list():
    lst = _list("q", ["a", "b", "c"])
    scores = {"q": {"a": 1.0, "b": 2.0, "c": 3.0}}
    out = rerank(lst, scores)
    assert out.ids == ["c", "b", "a"]
    assert [e.score for e in out.entries] == [3.0, 2.0, 1.0]


def test_rerank_matches_sorted_reference_on_random_ties():
    rng = random.Random(5)
    for case in range(300):
        ids, scores = oracles.random_scored(rng, rng.randint(0, len(oracles.TIE_ID_POOL)))
        out = rerank(_list("q", ids), {"q": dict(zip(ids, scores))})
        want = oracles.score_order(zip(ids, scores))
        assert [(e.doc_id, repr(e.score)) for e in out.entries] == [
            (d, repr(s)) for d, s in want
        ], case


def test_rerank_missing_pair_is_an_error():
    lst = _list("q", ["a", "b", "c"])
    scores = {"q": {"a": 1.0, "c": 3.0}}
    with pytest.raises(ValueError) as exc:
        rerank(lst, scores)
    assert "('q', 'b')" in str(exc.value)


def test_rerank_qid_without_scores_is_a_missing_pair_error():
    lst = _list("q2", ["a", "b"])
    with pytest.raises(
        ValueError,
        match=r"^rerank scores missing for qid 'q2': first missing pair \('q2', 'a'\); "
        r"all missing: 'a', 'b'$",
    ):
        rerank(lst, {"q1": {"a": 1.0, "b": 2.0}})


def test_rerank_preserves_membership():
    rng = np.random.default_rng(37)
    docs = [f"d{i}" for i in range(20)]
    lst = _list("q", docs)
    scores = {"q": {d: float(rng.random()) for d in docs}}
    out = rerank(lst, scores)
    assert out.doc_set() == lst.doc_set()


def test_load_rerank_scores(tmp_path):
    path = tmp_path / "s.tsv"
    path.write_text("q1\td1\t0.5\nq1\td2\t-1.25\n", encoding="utf-8")
    scores = load_rerank_scores(path)
    assert scores == {"q1": {"d1": 0.5, "d2": -1.25}}
    path.write_text("q1\td1\t0.5\nq1\td1\t0.7\n", encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate score"):
        load_rerank_scores(path)


def test_load_rerank_scores_groups_interleaved_qids(tmp_path):
    path = tmp_path / "s.tsv"
    path.write_text("q1\td1\t0.5\nq2\td1\t2.0\nq1\td2\t-1.25\n", encoding="utf-8")
    scores = load_rerank_scores(path)
    assert scores == {"q1": {"d1": 0.5, "d2": -1.25}, "q2": {"d1": 2.0}}
    assert rerank(_list("q1", ["d2", "d1"]), scores).ids == ["d1", "d2"]
    # a pair repeated after another qid's rows is still a duplicate
    path.write_text("q1\td1\t0.5\nq2\td1\t2.0\nq1\td1\t0.7\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"s\.tsv:3: duplicate score for \('q1', 'd1'\)"):
        load_rerank_scores(path)


def test_rerank_scores_share_ids_with_runs_read_with_one_pool(tmp_path):
    run_path, scores_path = tmp_path / "a.run", tmp_path / "s.tsv"
    run_path.write_text("q1 Q0 doc1 1 3.0 t\nq1 Q0 doc2 2 1.0 t\n", encoding="utf-8")
    scores_path.write_text("q1\tdoc2\t0.5\nq1\tdoc1\t0.25\n", encoding="utf-8")
    pool: dict[str, str] = {}
    ranked = read_run(run_path, pool=pool)["q1"]
    scores = load_rerank_scores(scores_path, pool=pool)
    assert scores == load_rerank_scores(scores_path)
    ((qid, by_doc),) = scores.items()
    doc_2, doc_1 = by_doc
    assert qid is ranked.qid
    assert (doc_1, doc_2) == (ranked.ids[0], ranked.ids[1])
    assert doc_1 is ranked.ids[0] and doc_2 is ranked.ids[1]
    reranked = rerank(ranked, scores)
    assert reranked.ids == ["doc2", "doc1"] and reranked.ids[0] is doc_2


@pytest.mark.parametrize("nan", ["nan", "NaN", "-nan"])
def test_nan_rerank_score_names_its_line(tmp_path, nan):
    path = tmp_path / "s.tsv"
    path.write_text(f"q1\td1\t0.5\n\nq1\td2\t{nan}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"s\.tsv:3: score is NaN"):
        load_rerank_scores(path)


# -- pipelines ----------------------------------------------------------------------


def test_identical_inputs_equal_single_source_pipeline():
    lst = _list("q", ["a", "b", "c", "d"])
    scores = {"q": {d: float(i) for i, d in enumerate(lst.ids)}}
    fused = rerank(rrf_fuse([lst, lst, lst]), scores)
    single = rerank(rrf_fuse([lst]), scores)
    assert fused.ids == single.ids
    assert rrf_fuse([lst, lst]).ids == lst.ids


def test_disjoint_relevant_docs_union_recall():
    # relevant docs split across two first-stage lists; fusion recovers all
    relevant = {"r1", "r2", "r3", "r4"}
    list_a = _list("q", ["r1", "x1", "r2", "x2"])
    list_b = _list("q", ["r3", "y1", "r4", "y2"])
    scores = {"q": {d: 1.0 for d in set(list_a.ids) | set(list_b.ids)}}
    fused = rerank(rrf_fuse([list_a, list_b], depth=100), scores)
    assert relevant <= fused.doc_set()
    found_a = len(relevant & list_a.doc_set()) / len(relevant)
    found_fused = len(relevant & fused.doc_set()) / len(relevant)
    assert found_a == 0.5 and found_fused == 1.0


def test_hand_built_two_list_trace():
    # k=60: A: [p1, p2, p3, p4]; B: [p3, p1]
    # p1: 1/61 + 1/62; p2: 1/62; p3: 1/63 + 1/61; p4: 1/64
    list_a = _list("q", ["p1", "p2", "p3", "p4"])
    list_b = _list("q", ["p3", "p1"])
    fused = rrf_fuse([list_a, list_b], RrfParams(60.0))
    expected = {
        "p1": 1 / 61 + 1 / 62,
        "p2": 1 / 62,
        "p3": 1 / 63 + 1 / 61,
        "p4": 1 / 64,
    }
    assert fused.ids == ["p1", "p3", "p2", "p4"]
    for e in fused.entries:
        assert e.score == pytest.approx(expected[e.doc_id], abs=1e-15)


def test_fuse_runs_covers_qid_union():
    run_a = {"q1": _list("q1", ["a"]), "q2": _list("q2", ["b"])}
    run_b = {"q2": _list("q2", ["c"]), "q3": _list("q3", ["d"])}
    fused = fuse_runs([run_a, run_b])
    assert sorted(fused) == ["q1", "q2", "q3"]
    assert fused["q2"].doc_set() == {"b", "c"}


def test_rerank_run_applies_per_qid():
    run = {"q1": _list("q1", ["a", "b"])}
    scores = {"q1": {"a": 0.1, "b": 0.9}}
    out = rerank_run(run, scores)
    assert out["q1"].ids == ["b", "a"]
