import csv
import math

import numpy as np
import pytest

import oracles
from convpr import evaluation
from convpr.corpus import Utterance
from convpr.evaluation import (
    MetricReport,
    Qrels,
    average_precision,
    corpus_bleu,
    evaluate_run,
    jaccard,
    load_qrels,
    ndcg_at_k,
    paired_t_test,
    parse_metric,
    recall_at_k,
    student_t_p_value,
    win_tie_loss,
    write_metrics_csv,
)
from convpr.cqr import HqeParams, concat_rewrite, extract_keywords, hqe_rewrite
from convpr.fusion import fuse_runs, rrf_fuse
from convpr.runs import RankedList


def _list(qid, doc_ids):
    n = len(doc_ids)
    return RankedList(qid, doc_ids, [float(n - i) for i in range(n)])


def _qrels(qid, grades):
    return Qrels({qid: grades})


# -- qrels ---------------------------------------------------------------------


def test_load_qrels_counts_and_grades(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text(
        "1_1 0 dA 2\n1_1 0 dB 0\n1_2 0 dA 4\n2_1 0 dC 1\n",
        encoding="utf-8",
    )
    qrels = load_qrels(path)
    assert len(qrels) == 4
    assert qrels.doc_grades("1_1") == {"dA": 2, "dB": 0}
    assert qrels.doc_grades("unjudged") == {}
    assert qrels.relevant_docs("1_1") == {"dA"}


def test_load_qrels_rejects_grade_out_of_scale(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("1_1 0 dA 5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="outside 0..4"):
        load_qrels(path)


def test_load_qrels_rejects_duplicates(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("1_1 0 dA 1\n1_1 0 dA 2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate judgment"):
        load_qrels(path)


def test_empty_qrels_make_evaluation_fail(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("", encoding="utf-8")
    qrels = load_qrels(path)
    with pytest.raises(ValueError, match="no judged queries"):
        evaluate_run({"q": _list("q", ["a"])}, qrels)


# -- average precision ---------------------------------------------------------


def test_ap_perfect_ranking_is_one():
    qrels = _qrels("q", {"a": 1, "b": 2})
    assert average_precision(_list("q", ["a", "b", "x"]), qrels) == 1.0


def test_ap_single_relevant_at_rank_two():
    qrels = _qrels("q", {"b": 1})
    assert average_precision(_list("q", ["a", "b"]), qrels) == 0.5


def test_ap_matches_oracle_on_random_instances():
    rng = np.random.default_rng(41)
    for _ in range(50):
        docs = [f"d{i}" for i in range(10)]
        run = _list("q", list(rng.permutation(docs)))
        judged = {d: int(rng.integers(0, 3)) for d in rng.choice(docs, size=3, replace=False)}
        qrels = _qrels("q", judged)
        relevant = {d for d, g in judged.items() if g >= 1}
        assert average_precision(run, qrels) == oracles.average_precision(
            run.ids, relevant, 1000
        )


def test_ap_ignores_hits_beyond_depth():
    qrels = _qrels("q", {"z": 1, "a": 1})
    run = _list("q", ["a", "x", "y", "z"])
    assert average_precision(run, qrels, depth=2) == pytest.approx(0.5)
    # ids[:-1] would drop the last hit instead of failing
    for depth in (0, -1):
        with pytest.raises(ValueError, match=f"depth must be >= 1, got {depth}"):
            average_precision(run, qrels, depth=depth)


# -- ndcg -------------------------------------------------------------------------


def test_ndcg_ideal_ordering_is_one():
    qrels = _qrels("q", {"a": 4, "b": 3, "c": 1})
    assert ndcg_at_k(_list("q", ["a", "b", "c"]), qrels, 3) == 1.0


def test_ndcg_at_1_zero_when_top_doc_unhelpful():
    qrels = _qrels("q", {"a": 0, "b": 3})
    assert ndcg_at_k(_list("q", ["a", "b"]), qrels, 1) == 0.0


def test_ndcg_graded_five_doc_case():
    qrels = _qrels("q", {"a": 3, "b": 2, "c": 1, "d": 0, "e": 2})
    run = _list("q", ["d", "a", "e", "c", "b"])
    dcg = 3 / math.log2(3) + 2 / math.log2(4) + 1 / math.log2(5) + 2 / math.log2(6)
    idcg = 3 / math.log2(2) + 2 / math.log2(3) + 2 / math.log2(4) + 1 / math.log2(5)
    assert ndcg_at_k(run, qrels, 5) == pytest.approx(dcg / idcg, abs=1e-15)


def test_ndcg_no_judged_relevant_is_zero():
    qrels = _qrels("q", {"a": 0})
    assert ndcg_at_k(_list("q", ["a", "b"]), qrels, 3) == 0.0


def test_ndcg_never_exceeds_ideal():
    rng = np.random.default_rng(43)
    for _ in range(50):
        docs = [f"d{i}" for i in range(8)]
        grades = {d: int(rng.integers(0, 5)) for d in docs[:5]}
        qrels = _qrels("q", grades)
        run = _list("q", list(rng.permutation(docs)))
        assert ndcg_at_k(run, qrels, 4) <= 1.0 + 1e-12


# -- recall ----------------------------------------------------------------------


def test_recall_all_found():
    qrels = _qrels("q", {"a": 1, "b": 2})
    assert recall_at_k(_list("q", ["b", "a"]), qrels, 10) == 1.0


def test_recall_none_found():
    qrels = _qrels("q", {"a": 1})
    assert recall_at_k(_list("q", ["x", "y"]), qrels, 10) == 0.0


def test_recall_fraction():
    grades = {f"r{i}": 1 for i in range(19)}
    qrels = _qrels("q", grades)
    run = _list("q", [f"r{i}" for i in range(7)] + ["x", "y"])
    assert recall_at_k(run, qrels, 1000) == pytest.approx(7 / 19)
    assert recall_at_k(run, qrels, 1000) == oracles.recall(run.ids, set(grades), 1000)


def test_ap_and_recall_stable_under_tail_padding():
    qrels = _qrels("q", {"a": 1, "b": 1})
    run = _list("q", ["a", "x", "b"])
    padded = _list("q", ["a", "x", "b", "u1", "u2", "u3"])
    assert average_precision(run, qrels) == average_precision(padded, qrels)
    assert recall_at_k(run, qrels, 1000) == recall_at_k(padded, qrels, 1000)


# -- run-level evaluation -----------------------------------------------------------


def test_evaluate_run_excludes_queries_without_relevant_docs():
    qrels = Qrels({"q1": {"a": 1}, "q2": {"b": 0}})
    run = {"q1": _list("q1", ["a"]), "q2": _list("q2", ["b"]), "q3": _list("q3", ["c"])}
    report = evaluate_run(run, qrels, ("map",))
    assert report.qids == ["q1"]
    assert report.means["map"] == 1.0


def test_metric_values_are_pinned_to_the_evaluation_version():
    # experiment reuses cached metrics whose key covers evaluation._VERSION.
    # Ties keep their list order here (trec_eval would put d3 before d1).
    run = {
        "q1": RankedList("q1", ["d1", "d3", "d4", "d2"], [2.0, 2.0, 1.0, 1.0]),
        "q2": RankedList("q2", ["b", "a"], [1.0, 1.0]),
    }
    qrels = Qrels({"q1": {"d1": 2, "d2": 0, "d4": 1, "d5": 3}, "q2": {"a": 1}})
    report = evaluate_run(run, qrels, ("map", "ndcg@3", "ndcg@1", "recall@2"), depth=3)
    pinned = {
        "map": {"q1": 0.5555555555555555, "q2": 0.5},
        "ndcg@3": {"q1": 0.5250049893849101, "q2": 0.6309297535714575},
        "ndcg@1": {"q1": 0.6666666666666666, "q2": 0.0},
        "recall@2": {"q1": 0.3333333333333333, "q2": 1.0},
    }
    assert (evaluation._VERSION, report.per_query) == (1, pinned), (
        "a metric value changed: bump evaluation._VERSION, so that experiments "
        "do not reuse metrics cached by the old code, then update this test"
    )


def test_evaluate_run_treats_empty_lists_as_absent():
    # run files cannot represent empty lists, so they must not count
    qrels = Qrels({"q1": {"a": 1}, "q2": {"b": 1}})
    run = {"q1": _list("q1", ["a"]), "q2": _list("q2", [])}
    report = evaluate_run(run, qrels, ("map",))
    assert report.qids == ["q1"]


def test_evaluate_run_mean_is_arithmetic():
    qrels = Qrels({"q1": {"a": 1}, "q2": {"b": 1}})
    run = {"q1": _list("q1", ["a"]), "q2": _list("q2", ["x", "b"])}
    report = evaluate_run(run, qrels, ("map",))
    assert report.means["map"] == pytest.approx((1.0 + 0.5) / 2)
    for depth in (0, -1):
        with pytest.raises(ValueError, match=f"depth must be >= 1, got {depth}"):
            evaluate_run(run, qrels, ("ndcg@1",), depth=depth)


def test_parse_metric_names():
    assert parse_metric("map") == ("map", None)
    assert parse_metric("ndcg@3") == ("ndcg", 3)
    assert parse_metric("recall@1000") == ("recall", 1000)
    with pytest.raises(ValueError, match="unknown metric"):
        parse_metric("bpref")


def test_report_csv_rows_are_stable():
    report = MetricReport(metrics=("map",), per_query={"map": {"q1": 0.25}}, qids=["q1"])
    assert report.csv_rows("raw") == [["raw", "q1", "0.250000"], ["raw", "all", "0.250000"]]


def test_metrics_csv_quotes_fields_with_a_comma_or_a_quote(tmp_path):
    report = MetricReport(metrics=("map",), per_query={"map": {"7,1_1": 0.5}}, qids=["7,1_1"])
    path = tmp_path / "m.csv"
    write_metrics_csv(path, ("map",), {'a "b"': report})
    assert path.read_bytes() == (
        b'run,qid,map\n"a ""b""","7,1_1",0.500000\n"a ""b""",all,0.500000\n'
    )
    with path.open(encoding="utf-8", newline="") as fh:
        assert list(csv.reader(fh))[1] == ['a "b"', "7,1_1", "0.500000"]


def test_report_table_is_at_least_12_wide_and_fits_its_label():
    report = MetricReport(
        metrics=("map", "ndcg@3"),
        per_query={"map": {"1": 0.5, "2": 0.25}, "ndcg@3": {"1": 1.0, "2": 0.123456}},
        qids=["1", "2"],
    )
    assert report.format_table() == (
        "run                    map        ndcg@3\n"
        "all                 0.3750        0.5617"
    )
    assert report.format_table("a-run-label-of-20-ch") == (
        "a-run-label-of-20-ch           map        ndcg@3\n"
        "all                         0.3750        0.5617"
    )


# -- comparison statistics ------------------------------------------------------------


def test_win_tie_loss_identical_is_all_ties():
    a = {f"q{i}": 0.5 for i in range(7)}
    assert win_tie_loss(a, dict(a)) == (0, 7, 0)


def test_win_tie_loss_uniform_improvement():
    b = {f"q{i}": 0.1 * i for i in range(5)}
    a = {q: v + 1.0 for q, v in b.items()}
    assert win_tie_loss(a, b) == (5, 0, 0)
    assert win_tie_loss(b, a) == (0, 0, 5)


def test_win_tie_loss_epsilon_boundary():
    a = {"q1": 0.50005, "q2": 0.6, "q3": 0.3}
    b = {"q1": 0.5, "q2": 0.5, "q3": 0.5}
    assert win_tie_loss(a, b, tie_epsilon=1e-4) == (1, 1, 1)
    assert win_tie_loss(a, b, tie_epsilon=0.0) == (2, 0, 1)
    # a negative or NaN epsilon would count equal values as losses
    for eps in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="tie epsilon must be >= 0"):
            win_tie_loss(a, dict(a), tie_epsilon=eps)


def test_win_tie_loss_counts_sum_to_qids():
    rng = np.random.default_rng(47)
    a = {f"q{i}": float(rng.random()) for i in range(25)}
    b = {f"q{i}": float(rng.random()) for i in range(25)}
    w, t, l = win_tie_loss(a, b)
    assert w + t + l == 25


def test_win_tie_loss_requires_shared_qids():
    with pytest.raises(ValueError, match="no shared qids"):
        win_tie_loss({"a": 1.0}, {"b": 1.0})


def test_paired_t_identical_samples():
    a = [0.1, 0.2, 0.3, 0.4]
    assert paired_t_test(a, list(a)) == (0.0, 1.0)


def test_paired_t_antisymmetry():
    rng = np.random.default_rng(53)
    a = list(rng.random(12))
    b = list(rng.random(12))
    t_ab, p_ab = paired_t_test(a, b)
    t_ba, p_ba = paired_t_test(b, a)
    assert t_ab == pytest.approx(-t_ba)
    assert p_ab == pytest.approx(p_ba)


def test_paired_t_matches_critical_table_values():
    # Classic two-sided critical values for 9 degrees of freedom:
    # t = 2.262 at p = 0.05 and t = 3.250 at p = 0.01.
    pattern = [float(i) for i in range(1, 11)]
    mean = sum(pattern) / 10
    centered = [x - mean for x in pattern]
    sd = math.sqrt(sum(c * c for c in centered) / 9)
    for t_crit, p_expected in ((2.262, 0.05), (3.250, 0.01)):
        shift = t_crit * sd / math.sqrt(10)
        diffs = [c + shift for c in centered]
        t_stat, p = paired_t_test(diffs, [0.0] * 10)
        assert t_stat == pytest.approx(t_crit, abs=1e-9)
        assert p == pytest.approx(p_expected, abs=1e-4)


def test_paired_t_zero_variance_contract():
    # constant differences are defined as "no evidence": t=0, p=1
    assert paired_t_test([1.0, 1.0, 1.0], [0.0, 0.0, 0.0]) == (0.0, 1.0)


def test_student_t_p_matches_closed_forms_at_df_1_and_2():
    # df 1: p = 1 - 2 atan(|t|)/pi; df 2: p = 1 - |t|/sqrt(2 + t^2). Both are
    # written here without the subtraction, which would lose digits at large t.
    for t in (1e-8, 1e-3, 0.3, 1.0, 2.262, 7.5, 40.0, 1e3, 1e6):
        for sign in (1.0, -1.0):
            assert student_t_p_value(sign * t, 1) == pytest.approx(
                2.0 * math.atan(1.0 / t) / math.pi, rel=1e-12, abs=0.0)
            root = math.sqrt(2.0 + t * t)
            assert student_t_p_value(sign * t, 2) == pytest.approx(
                2.0 / (root * (root + t)), rel=1e-12, abs=0.0)


def test_student_t_p_tends_to_the_normal_tail_at_large_df():
    # The t tail exceeds the normal one by about (t^4 + t^2) / (4 df)
    # relative. At df 1e12 and 1e15 that is below 2e-10, while the
    # incomplete beta would lose about df * 4e-17 to the rounding of x.
    for df in (10**6, 10**7, 10**12, 10**15):
        for t in (0.5, 1.0, 1.96, 2.0, 3.0, 5.0):
            normal = math.erfc(t / math.sqrt(2.0))
            assert student_t_p_value(t, df) == pytest.approx(
                normal, rel=(1.0 + t**4) / df, abs=0.0), (df, t)


def test_student_t_p_stays_a_probability_at_extreme_t():
    for df in (1, 2, 9, 1000, 10**6, 10**12):
        for t in (0.0, 1e-8, 1e6):
            p = student_t_p_value(t, df)
            assert 0.0 <= p <= 1.0 and not math.isnan(p), (df, t, p)
        assert student_t_p_value(0.0, df) == 1.0
        assert student_t_p_value(1e-8, df) == pytest.approx(1.0, abs=1e-7)
        assert student_t_p_value(1e6, df) < 1e-5


def test_student_t_p_matches_pinned_reference_values():
    # 2 * scipy.stats.t.sf(|t|, df), from scipy 1.17.1; convpr does not use scipy.
    for t, df, expected in (
        (2.262, 9, 0.05001284550245463),
        (0.5, 3, 0.651447964848151),
        (1.96, 29, 0.05966779551959133),
        (3.5, 61, 0.0008756844088181469),
        (-2.0, 119, 0.04777757533002386),
        (12.0, 7, 6.358310378185098e-06),
        (0.05, 1000, 0.9601323730719518),
        (4.0, 249999, 6.336068650793045e-05),
    ):
        assert student_t_p_value(t, df) == pytest.approx(expected, rel=1e-10, abs=0.0), (t, df)


def test_paired_t_needs_two_pairs():
    with pytest.raises(ValueError, match="at least 2"):
        paired_t_test([1.0], [0.0])


def test_jaccard_cases():
    assert jaccard({"a", "b"}, {"a", "b"}) == 1.0
    assert jaccard({"a"}, {"b"}) == 0.0
    assert jaccard(set(), set()) == 1.0
    a = {"1", "2", "3", "4", "5"}
    b = {"4", "5", "6", "7", "8"}
    assert jaccard(a, b) == 0.25


# -- corpus BLEU --------------------------------------------------------------------


def test_bleu_identical_corpus_is_100():
    hyps = [["the", "cat", "sat", "down"], ["a", "long", "sentence", "appears", "here"]]
    assert corpus_bleu(hyps, [list(h) for h in hyps]) == pytest.approx(100.0)


def test_bleu_no_overlap_is_zero():
    assert corpus_bleu([["aa", "bb", "cc", "dd"]], [["xx", "yy", "zz", "ww"]]) == 0.0


def test_bleu_mixed_case_matches_closed_form():
    hyps = [["a", "b", "c", "d"], ["a", "b", "x", "y"]]
    refs = [["a", "b", "c", "d"], ["a", "b", "z", "w"]]
    # p1=6/8, p2=4/6, p3=2/4, p4=1/2 and no brevity penalty
    expected = 100.0 * (0.75 * (4 / 6) * 0.5 * 0.5) ** 0.25
    assert corpus_bleu(hyps, refs) == pytest.approx(expected, rel=1e-12)


def test_bleu_brevity_penalty():
    hyps = [["a", "b", "c", "d"]]
    refs = [["a", "b", "c", "d", "e", "f", "g", "h"]]
    # clipped precisions are perfect; only the brevity penalty remains
    assert corpus_bleu(hyps, refs) == pytest.approx(100.0 * math.exp(1 - 8 / 4))


def test_bleu_validates_lengths():
    with pytest.raises(ValueError, match="differ in length"):
        corpus_bleu([["a"]], [])
    for order in (0, -1):
        with pytest.raises(ValueError, match=f"max_order must be >= 1, got {order}"):
            corpus_bleu([["a"]], [["a"]], max_order=order)


# -- argument checks ---------------------------------------------------------------


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: rrf_fuse([]), "rrf_fuse needs at least one ranked list"),
        (lambda: fuse_runs([]), "fuse_runs needs at least one run"),
        (lambda: ndcg_at_k(_list("q", ["d1"]), _qrels("q", {"d1": 1}), k=0), "k must be >= 1, got 0"),
        (lambda: paired_t_test([0.1, 0.2], [0.3]), "paired samples differ in length: 2 vs 1"),
        (lambda: corpus_bleu([], []), "corpus_bleu needs at least one sentence pair"),
        (lambda: extract_keywords(None, [], HqeParams()), "extract_keywords needs at least one utterance"),
        (lambda: hqe_rewrite(None, []), "hqe_rewrite needs at least one utterance"),
        (lambda: concat_rewrite([]), "concat_rewrite needs at least one utterance"),
        (lambda: concat_rewrite([Utterance("1", 1, "x")], m_window=-1), "m_window must be >= 0, got -1"),
        (lambda: RankedList("q", ["d1", "d2"], [1.0]), "qid q: 2 doc ids but scores of shape (1,)"),
    ],
    ids=["rrf_fuse", "fuse_runs", "ndcg_at_k", "paired_t_test", "corpus_bleu", "extract_keywords",
         "hqe_rewrite", "concat_rewrite", "concat_rewrite-window", "RankedList"],
)
def test_library_calls_with_bad_arguments_raise(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
