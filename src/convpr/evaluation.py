"""TREC-style evaluation, comparison statistics, and query-set analyses.

Conventions follow the usual trec_eval behavior: MAP and recall binarize at
grade >= 1, NDCG uses linear graded gain with a 1/log2(rank+1) discount,
and queries without any judged-relevant document are excluded from means.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .corpus import read_lines
from .runs import RankedList, qid_sort_key

MAX_GRADE = 4
# experiment caches each run's metrics under a key that covers this number;
# bump it whenever a change can alter any metric value.
_VERSION = 2
DEFAULT_METRICS = ("map", "ndcg@3", "ndcg@1", "recall@1000")
DEFAULT_TIE_EPSILON = 1e-4


class Qrels:
    """Graded relevance judgments ``{qid: {doc_id: grade in 0..4}}``, and each
    qid's relevant set (grade >= 1), built once. Unjudged pairs have grade 0."""

    def __init__(self, grades: Mapping[str, Mapping[str, int]] | None = None):
        self._grades = {qid: dict(docs) for qid, docs in (grades or {}).items()}
        self._relevant = {
            qid: frozenset(d for d, g in docs.items() if g >= 1) for qid, docs in self._grades.items()
        }

    def doc_grades(self, qid: str) -> Mapping[str, int]:
        """A read-only view of the stored grades, not a copy."""
        return MappingProxyType(self._grades.get(qid, {}))

    def relevant_docs(self, qid: str) -> frozenset[str]:
        return self._relevant.get(qid, frozenset())

    def __len__(self) -> int:
        return sum(len(docs) for docs in self._grades.values())


def load_qrels(path: str | Path) -> Qrels:
    """Parse ``qid 0 doc_id grade`` rows; grades outside 0..4 are errors."""
    grades: dict[str, dict[str, int]] = {}
    with read_lines(path) as lines:
        for line in lines:
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"expected 4 columns, found {len(parts)}")
            qid, _iter, doc_id, grade_s = parts
            try:
                grade = int(grade_s)
            except ValueError as exc:
                raise ValueError(f"bad grade: {exc}") from exc
            if not 0 <= grade <= MAX_GRADE:
                raise ValueError(f"grade {grade} outside 0..{MAX_GRADE}")
            docs = grades.setdefault(qid, {})
            if doc_id in docs:
                raise ValueError(f"duplicate judgment for ({qid}, {doc_id})")
            docs[doc_id] = grade
    return Qrels(grades)


# -- per-query metrics ------------------------------------------------------


def average_precision(ranked: RankedList, qrels: Qrels, depth: int = 1000) -> float:
    """Sum of precision at each relevant hit within ``depth``, divided by the
    total number of relevant docs. 0.0 when nothing relevant is judged."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    relevant = qrels.relevant_docs(ranked.qid)
    if not relevant:
        return 0.0
    hits = 0
    total = 0.0
    for rank, doc_id in enumerate(ranked.ids[:depth], start=1):
        if doc_id in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)


def ndcg_at_k(ranked: RankedList, qrels: Qrels, k: int) -> float:
    """DCG@k with gain = grade and discount 1/log2(rank+1), normalized by the
    ideal DCG from the judgments; 0.0 if no judged doc has a positive grade."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    grades = qrels.doc_grades(ranked.qid)
    ideal = sorted(grades.values(), reverse=True)[:k]
    idcg = 0.0
    for i, g in enumerate(ideal, start=1):
        idcg += g / math.log2(i + 1)
    if idcg == 0.0:
        return 0.0
    dcg = 0.0
    for rank, doc_id in enumerate(ranked.ids[:k], start=1):
        g = grades.get(doc_id, 0)
        if g:
            dcg += g / math.log2(rank + 1)
    return dcg / idcg


def recall_at_k(ranked: RankedList, qrels: Qrels, k: int = 1000) -> float:
    relevant = qrels.relevant_docs(ranked.qid)
    if not relevant:
        return 0.0
    found = sum(1 for doc_id in ranked.ids[:k] if doc_id in relevant)
    return found / len(relevant)


# -- run-level evaluation ----------------------------------------------------


@dataclass
class MetricReport:
    """Per-query and mean values for a set of metrics over one run."""

    metrics: tuple[str, ...]
    per_query: dict[str, dict[str, float]] = field(default_factory=dict)  # metric -> qid -> value
    qids: list[str] = field(default_factory=list)

    @property
    def means(self) -> dict[str, float]:
        return {
            m: (sum(self.per_query[m][q] for q in self.qids) / len(self.qids) if self.qids else 0.0)
            for m in self.metrics
        }

    def format_table(self, label: str = "run") -> str:
        return format_summary(label, self.metrics, {"all": self.means}, min_width=12)

    def csv_rows(self, run_name: str) -> list[list[str]]:
        """One ``run,qid,<metrics>`` row of fields per qid, then the means
        under qid ``all``."""
        means = self.means
        rows = [(qid, [self.per_query[m][qid] for m in self.metrics]) for qid in self.qids]
        rows.append(("all", [means[m] for m in self.metrics]))
        return [[run_name, qid, *(f"{v:.6f}" for v in values)] for qid, values in rows]


def format_summary(
    header: str, metrics: Sequence[str], means: Mapping[str, Mapping[str, float]], min_width: int
) -> str:
    """A header line naming ``metrics``, then one line of four-decimal values
    per name in ``means``; the first column is as wide as the widest of
    ``header``, ``min_width`` and the names. No trailing newline."""
    width = max(len(header), min_width, *map(len, means))
    lines = [f"{header:<{width}}  " + "  ".join(f"{m:>12}" for m in metrics)]
    for name, row in means.items():
        lines.append(f"{name:<{width}}  " + "  ".join(f"{row[m]:>12.4f}" for m in metrics))
    return "\n".join(lines)


def write_metrics_csv(
    path: str | Path, metrics: Sequence[str], reports: Mapping[str, MetricReport]
) -> None:
    """Write ``run,qid,<metrics>`` rows for each named report, in order; a
    field that holds a comma or a quote is quoted."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["run", "qid", *metrics])
        for name, report in reports.items():
            writer.writerows(report.csv_rows(name))


def parse_metric(name: str) -> tuple[str, int | None]:
    """Split names like ``ndcg@3`` / ``recall@1000`` / ``map``."""
    name = name.strip().lower()
    if name == "map":
        return "map", None
    if "@" in name:
        base, _, k_s = name.partition("@")
        if base in ("ndcg", "recall") and k_s.isdigit() and int(k_s) >= 1:
            return base, int(k_s)
    raise ValueError(f"unknown metric {name!r} (expected map, ndcg@k or recall@k)")


def parse_metrics(names: Sequence[str]) -> dict[str, tuple[str, int | None]]:
    """Parse each name with parse_metric. A metric named twice (``map`` and
    ``MAP``, say) is an error, since it would repeat a column."""
    parsed = [parse_metric(name) for name in names]
    for i, metric in enumerate(parsed):
        if metric in parsed[:i]:
            first = names[parsed.index(metric)]
            raise ValueError(f"metrics name one metric twice: {first!r} and {names[i]!r}")
    return dict(zip(names, parsed))


# Each takes (ranked, qrels, cutoff): map cuts at the depth, the others at k.
_METRIC_FNS = {"map": average_precision, "ndcg": ndcg_at_k, "recall": recall_at_k}


def evaluate_run(
    run: Mapping[str, RankedList],
    qrels: Qrels,
    metrics: Sequence[str] = DEFAULT_METRICS,
    depth: int = 1000,
) -> MetricReport:
    """Evaluate the qids present in the run that have at least one judged
    relevant doc (trec_eval convention); no such qid is an error.

    Empty lists count as absent: run files cannot represent them, so this
    keeps in-memory and round-tripped runs equivalent.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    parsed = parse_metrics(metrics)
    qids = [
        qid
        for qid in sorted(run, key=qid_sort_key)
        if len(run[qid]) and qrels.relevant_docs(qid)
    ]
    if not qids:
        raise ValueError("no judged queries: run and qrels share no qid with relevant docs")
    report = MetricReport(metrics=tuple(metrics), qids=qids)
    for m, (base, k) in parsed.items():
        fn = _METRIC_FNS[base]
        cutoff = depth if k is None else k
        report.per_query[m] = {qid: fn(run[qid], qrels, cutoff) for qid in qids}
    return report


# -- comparison statistics ---------------------------------------------------


def win_tie_loss(
    a: Mapping[str, float], b: Mapping[str, float], tie_epsilon: float = DEFAULT_TIE_EPSILON
) -> tuple[int, int, int]:
    """Count qids where a beats / ties / trails b; |diff| < epsilon is a tie.

    Compared over the qid intersection, which must be non-empty.
    """
    if not tie_epsilon >= 0.0:
        raise ValueError(f"tie epsilon must be >= 0, got {tie_epsilon}")
    shared = sorted(set(a) & set(b), key=qid_sort_key)
    if not shared:
        raise ValueError("win_tie_loss: no shared qids to compare")
    win = tie = loss = 0
    for qid in shared:
        diff = a[qid] - b[qid]
        if abs(diff) < tie_epsilon:
            tie += 1
        elif diff > 0:
            win += 1
        else:
            loss += 1
    return win, tie, loss


def paired_t_test(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Two-sided paired t-test on aligned per-query values.

    Returns (t, p), with p from ``student_t_p_value``. Zero-variance
    differences are defined as (t, p) = (0.0, 1.0). Over 66k random (t, df)
    draws with df up to 1e6, p was within 5.8e-11 relative of a 40-digit
    reference value, and within 5.3e-13 where df <= 5000.
    """
    if len(a) != len(b):
        raise ValueError(f"paired samples differ in length: {len(a)} vs {len(b)}")
    n = len(a)
    if n < 2:
        raise ValueError("paired_t_test needs at least 2 pairs")
    diffs = [x - y for x, y in zip(a, b)]
    mean = sum(diffs) / n
    var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    if var == 0.0:
        return 0.0, 1.0
    t_stat = mean / math.sqrt(var / n)
    return t_stat, student_t_p_value(t_stat, n - 1)


def student_t_p_value(t_stat: float, df: float) -> float:
    """Two-sided p-value of ``t_stat`` under Student's t with ``df`` >= 1
    degrees of freedom.

    Below ``_NORMAL_DF`` it is the regularized incomplete beta
    I_x(df/2, 1/2) at x = df/(df + t²), with 1 - x formed as t²/(df + t²).
    The rounding of x bounds its relative error at about df * 4e-17: 5.8e-11
    up to df = 1e6 and 7e-8 just below ``_NORMAL_DF`` (random draws against
    a 50-digit reference). From ``_NORMAL_DF`` on it is the normal tail with
    Fisher's 1/df term, erfc(|t|/√2) + φ(t)(|t|³ + |t|)/(2 df), whose
    relative error is about t⁸/(32 df²): below 3e-12 where |t| <= 10 and
    1.4e-7 at the |t| ≈ 38 where p leaves the normal range of doubles.
    """
    if df >= _NORMAL_DF:
        t = abs(t_stat)
        density = math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
        return math.erfc(t / math.sqrt(2.0)) + density * (t**3 + t) / (2.0 * df)
    t2 = t_stat * t_stat
    a, x, y = df / 2.0, df / (df + t2), t2 / (df + t2)
    if y == 0.0:
        return 1.0
    if a < 50.0:
        log_beta = math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5)
    else:  # at large a the lgamma terms cancel and lose ~1e-9; this series does not
        log_beta = 0.5 * math.log(math.pi / a) + (1 / 8 - (1 / 192 - 1 / (640 * a**2)) / a**2) / a
    front = math.exp(0.5 * math.log(y) - a * math.log1p(t2 / df) - log_beta)
    if x < (a + 1.0) / (a + 2.5):
        return front * _beta_fraction(a, 0.5, x) / a
    return 1.0 - 2.0 * front * _beta_fraction(0.5, a, y)


# Where student_t_p_value leaves the incomplete beta, whose error grows with
# df, for the normal tail, whose error shrinks with it; both are about 1e-7
# at their worst here.
_NORMAL_DF = 1e9


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b) by the modified Lentz method
    (Numerical Recipes, 6.4); it converges fast for x < (a+1)/(a+b+2).
    An exact zero denominator is replaced by a tiny one."""
    c = 1.0
    h = d = 1.0 / (1.0 - (a + b) * x / (a + 1.0) or 1e-300)
    for m in range(1, 10_000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 / (1.0 + num * d or 1e-300)
            c = 1.0 + num / c or 1e-300
            h *= c * d
        if abs(c * d - 1.0) <= 2.3e-16:
            return h
    raise ArithmeticError(f"incomplete beta did not converge at a={a}, b={b}, x={x}")


def jaccard(a: Iterable[str], b: Iterable[str]) -> float:
    """|A ∩ B| / |A ∪ B|; two empty sets count as identical (1.0)."""
    sa, sb = set(a), set(b)
    union = sa | sb
    if not union:
        return 1.0
    return len(sa & sb) / len(union)


# -- corpus BLEU --------------------------------------------------------------


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(
    hypotheses: Sequence[Sequence[str]],
    references: Sequence[Sequence[str]],
    max_order: int = 4,
) -> float:
    """Corpus-level BLEU in [0, 100]: uniform n-gram weights up to
    ``max_order``, clipped precision, brevity penalty, no smoothing (any
    empty n-gram precision gives 0)."""
    if len(hypotheses) != len(references):
        raise ValueError(
            f"hypotheses/references differ in length: {len(hypotheses)} vs {len(references)}"
        )
    if not hypotheses:
        raise ValueError("corpus_bleu needs at least one sentence pair")
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    matches = [0] * max_order
    totals = [0] * max_order
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_order + 1):
            hyp_counts = _ngram_counts(hyp, n)
            if not hyp_counts:
                continue
            ref_counts = _ngram_counts(ref, n)
            totals[n - 1] += sum(hyp_counts.values())
            matches[n - 1] += sum(min(c, ref_counts.get(g, 0)) for g, c in hyp_counts.items())
    if hyp_len == 0 or any(t == 0 or m == 0 for m, t in zip(matches, totals)):
        return 0.0
    log_precision = sum(math.log(m / t) for m, t in zip(matches, totals)) / max_order
    brevity = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(log_precision)
