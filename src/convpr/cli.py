"""Command-line entry point.

Exit codes: 0 on success, 1 for validation problems (bad arguments,
malformed config or data files), 2 for unexpected runtime failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

import yaml

from .corpus import load_passages, load_sessions
from .cqr import HQE_RERANK_DEFAULTS, HQE_RETRIEVAL_DEFAULTS, load_external_rewrites, write_rewrites
from .evaluation import (
    DEFAULT_METRICS,
    DEFAULT_TIE_EPSILON,
    corpus_bleu,
    evaluate_run,
    jaccard,
    load_qrels,
    paired_t_test,
    win_tie_loss,
    write_metrics_csv,
)
from .experiment import (
    METHOD_TYPES,
    _METHOD_KEYS,
    _method_from_dict,
    grid_search,
    load_config,
    reformulate_method,
    retrieve_all,
    run_experiment,
)
from .fusion import RrfParams, fuse_runs, load_rerank_scores, rerank_run
from .index import Bm25Params, InvertedIndex, Searcher, build_index
from .runs import qid_sort_key, read_run, write_run
from .tokenization import TokenizerConfig

logger = logging.getLogger("convpr")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Every (sub)command takes -v, so it may come before or after the
        # subcommand; SUPPRESS keeps a subcommand from resetting it.
        self.add_argument("-v", "--verbose", action="store_true", default=argparse.SUPPRESS,
                          help="log progress to stderr")

    # argparse exits 2 on bad usage; our contract reserves 2 for runtime
    # failures, so downgrade usage errors to the validation code.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_bm25_args(p: argparse.ArgumentParser) -> None:
    # A default of None tells a given flag from an omitted one.
    p.add_argument("--k1", type=float, help=f"BM25 k1 (default {Bm25Params.k1})")
    p.add_argument("--b", type=float, help=f"BM25 b (default {Bm25Params.b})")


def _bm25_params(args) -> Bm25Params:
    given = {key: getattr(args, key) for key in ("k1", "b")}
    return Bm25Params(**{key: value for key, value in given.items() if value is not None})


def cmd_index_build(args) -> int:
    tokenizer = TokenizerConfig(stem=args.stem, remove_stopwords=args.remove_stopwords)
    index = build_index(load_passages(args.input, args.format), tokenizer)
    index.save(args.output)
    print(
        f"indexed {index.doc_count} passages, {index.vocab_size} terms, "
        f"avg length {index.avg_doc_len:.2f} -> {args.output}"
    )
    return 0


def cmd_reformulate(args) -> int:
    flags = ("r_topic", "r_sub", "eta", "m_window")
    hqe = {key: getattr(args, key) for key in flags if getattr(args, key) is not None}
    optional = {"rewrites": args.rewrites, "pos_annotations": args.pos}
    reads_hqe = "hqe" in _METHOD_KEYS[args.method]
    if reads_hqe:
        preset = HQE_RERANK_DEFAULTS if args.hqe_preset == "rerank" else HQE_RETRIEVAL_DEFAULTS
        optional["hqe"] = {**dataclasses.asdict(preset), **hqe}
    else:
        optional["m_window"] = hqe.pop("m_window", None)
        if hqe or args.hqe_preset:
            optional["hqe"] = hqe  # only HQE methods read it: an error below
        for flag, value in (("--index", args.index), ("--k1", args.k1), ("--b", args.b)):
            if value is not None:
                raise ValueError(
                    f"reformulate ({args.method}): {flag} is only read by method hqe or hqe-pos"
                )
    raw = {"name": args.method, "type": args.method}
    raw.update((key, value) for key, value in optional.items() if value is not None)
    spec = _method_from_dict(Path("."), raw, "reformulate")

    sessions = load_sessions(args.topics)
    searcher = None
    tokenizer = TokenizerConfig()
    if reads_hqe:
        if not args.index:
            raise ValueError(f"--index is required for method {args.method}")
        index = InvertedIndex.load(args.index)
        tokenizer = index.tokenizer
        searcher = Searcher(index, _bm25_params(args))
    queries = reformulate_method(spec, sessions, searcher, tokenizer)
    write_rewrites(args.out, queries)
    print(f"wrote {len(queries)} rewrites -> {args.out}")
    return 0


def cmd_retrieve(args) -> int:
    index = InvertedIndex.load(args.index)
    searcher = Searcher(index, _bm25_params(args))
    queries = load_external_rewrites(args.queries, index.tokenizer)
    run = retrieve_all(searcher, queries.values(), args.k)
    write_run(args.out, run, tag=args.tag)
    print(f"retrieved top-{args.k} for {len(run)} queries -> {args.out}")
    return 0


def cmd_fuse(args) -> int:
    pool: dict[str, str] = {}
    runs = [read_run(p, pool=pool) for p in args.runs]
    fused = fuse_runs(runs, RrfParams(k=args.k), args.depth)
    write_run(args.out, fused, tag=args.tag)
    print(f"fused {len(runs)} runs over {len(fused)} qids -> {args.out}")
    return 0


def cmd_rerank(args) -> int:
    pool: dict[str, str] = {}
    run = read_run(args.run, pool=pool)
    reranked = rerank_run(run, load_rerank_scores(args.scores, pool=pool))
    write_run(args.out, reranked, tag=args.tag)
    print(f"reranked {len(run)} qids -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    run = read_run(args.run)
    qrels = load_qrels(args.qrels)
    metrics = tuple(m.strip() for m in args.metrics.split(","))
    report = evaluate_run(run, qrels, metrics, depth=args.depth)
    if args.per_query:
        for qid in report.qids:
            vals = "  ".join(f"{m}={report.per_query[m][qid]:.4f}" for m in metrics)
            print(f"{qid}\t{vals}")
    print(report.format_table(label=Path(args.run).stem))
    if args.csv:
        write_metrics_csv(args.csv, metrics, {Path(args.run).stem: report})
        print(f"per-query CSV -> {args.csv}")
    return 0


def cmd_compare(args) -> int:
    qrels = load_qrels(args.qrels)
    pool: dict[str, str] = {}
    run_a, run_b = read_run(args.run_a, pool=pool), read_run(args.run_b, pool=pool)
    rep_a = evaluate_run(run_a, qrels, (args.metric,), depth=args.depth)
    rep_b = evaluate_run(run_b, qrels, (args.metric,), depth=args.depth)
    a_vals, b_vals = rep_a.per_query[args.metric], rep_b.per_query[args.metric]
    shared = sorted(set(a_vals) & set(b_vals), key=qid_sort_key)
    if not shared:
        raise ValueError("compare: the two runs share no evaluated qids")
    w, t, l = win_tie_loss(a_vals, b_vals, tie_epsilon=args.tie_eps)
    t_stat, p = paired_t_test([a_vals[q] for q in shared], [b_vals[q] for q in shared])
    print(f"metric {args.metric} over {len(shared)} shared qids")
    print(f"mean A ({Path(args.run_a).stem}): {rep_a.means[args.metric]:.4f}")
    print(f"mean B ({Path(args.run_b).stem}): {rep_b.means[args.metric]:.4f}")
    print(f"win/tie/loss (eps {args.tie_eps:g}): {w}/{t}/{l}")
    print(f"paired t-test: t={t_stat:.4f}, p={p:.6f}")
    return 0


def cmd_analyze_jaccard(args) -> int:
    # A flag the chosen mode would not read is an error, not ignored.
    if args.adjacent:
        for flag, value in (("--run-a", args.run_a), ("--run-b", args.run_b)):
            if value is not None:
                raise ValueError(f"analyze jaccard: {flag} is only read without --adjacent")
        if not args.run:
            raise ValueError("analyze jaccard --adjacent requires --run")
        run = read_run(args.run)
        by_session: dict[str, list[tuple[int, str]]] = {}
        for qid in run:
            session, _, turn = qid.rpartition("_")
            if not session or not turn.isdigit():
                raise ValueError(f"qid {qid!r} is not of the form <session>_<turn>")
            by_session.setdefault(session, []).append((int(turn), qid))
        per_turn: dict[int, list[float]] = {}
        for session, turns in sorted(by_session.items()):
            turns.sort()
            for (t_prev, q_prev), (t_cur, q_cur) in zip(turns, turns[1:]):
                if t_cur != t_prev + 1:
                    continue
                depth = args.depth
                j = jaccard(
                    run[q_prev].truncated(depth).doc_set(), run[q_cur].truncated(depth).doc_set()
                )
                per_turn.setdefault(t_cur, []).append(j)
        if not per_turn:
            raise ValueError("no adjacent turn pairs found in run")
        print("turn\tmean_jaccard\tsessions")
        for turn in sorted(per_turn):
            vals = per_turn[turn]
            print(f"{turn}\t{sum(vals) / len(vals):.4f}\t{len(vals)}")
        everything = [v for vals in per_turn.values() for v in vals]
        print(f"all\t{sum(everything) / len(everything):.4f}\t{len(everything)}")
        return 0

    if args.run is not None:
        raise ValueError("analyze jaccard: --run is only read with --adjacent")
    if not (args.run_a and args.run_b):
        raise ValueError("analyze jaccard requires --run-a and --run-b (or --adjacent)")
    pool: dict[str, str] = {}
    run_a, run_b = read_run(args.run_a, pool=pool), read_run(args.run_b, pool=pool)
    shared = sorted(set(run_a) & set(run_b), key=qid_sort_key)
    if not shared:
        raise ValueError("the two runs share no qids")
    print("qid\tjaccard")
    total = 0.0
    for qid in shared:
        j = jaccard(
            run_a[qid].truncated(args.depth).doc_set(), run_b[qid].truncated(args.depth).doc_set()
        )
        total += j
        print(f"{qid}\t{j:.4f}")
    print(f"all\t{total / len(shared):.4f}")
    return 0


def cmd_analyze_bleu(args) -> int:
    tokenizer = TokenizerConfig()
    hyps = load_external_rewrites(args.hypotheses, tokenizer)
    refs = load_external_rewrites(args.references, tokenizer)
    shared = sorted(set(hyps) & set(refs), key=qid_sort_key)
    if not shared:
        raise ValueError("hypotheses and references share no qids")
    score = corpus_bleu(
        [list(hyps[q].tokens) for q in shared],
        [list(refs[q].tokens) for q in shared],
        max_order=args.max_order,
    )
    print(f"corpus BLEU over {len(shared)} queries: {score:.2f}")
    return 0


def _parse_overrides(pairs: list[str]) -> dict:
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--set expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        overrides[key] = yaml.safe_load(value)
    return overrides


def cmd_experiment(args) -> int:
    overrides = _parse_overrides(args.set or [])
    if args.output_dir:
        overrides["output_dir"] = args.output_dir
    config = load_config(args.config, overrides)
    result = run_experiment(config)
    print(result.metrics_txt.read_text(encoding="utf-8"), end="")
    print(f"config hash {result.config_hash}")
    print(f"outputs in {config.output_dir}")
    return 0


def cmd_grid(args) -> int:
    overrides = _parse_overrides(args.set or [])
    config = load_config(args.config, overrides)
    grid: dict[str, list[float]] = {}
    for spec in args.param:
        if "=" not in spec:
            raise ValueError(f"--param expects name=v1,v2,..., got {spec!r}")
        name, _, values = spec.partition("=")
        grid[name.strip()] = [float(v) for v in values.split(",") if v != ""]
    rows = grid_search(config, args.method, grid, depth=args.depth)
    keys = sorted(grid)
    header = "\t".join(keys + ["recall", "map"])
    print(header)
    lines = [header]
    for row in rows:
        line = "\t".join([f"{row[k]:g}" for k in keys] + [f"{row['recall']:.4f}", f"{row['map']:.4f}"])
        print(line)
        lines.append(line)
    if args.out:
        Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"grid table -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="convpr", description="Conversational passage retrieval toolkit")
    parser.set_defaults(verbose=False)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("index", help="build an inverted index")
    isub = p.add_subparsers(dest="index_command", required=True, parser_class=_Parser)
    pb = isub.add_parser("build", help="build an index from a passage file")
    pb.add_argument("--input", required=True, help="passage file")
    pb.add_argument("--format", choices=("tsv", "jsonl"), default="tsv")
    pb.add_argument("--output", required=True, help="index directory to create")
    pb.add_argument("--stem", action="store_true", help="apply Porter stemming")
    pb.add_argument("--remove-stopwords", action="store_true", help="drop English stopwords")
    pb.set_defaults(func=cmd_index_build)

    p = sub.add_parser("reformulate", help="produce per-turn reformulated queries")
    p.add_argument("--method", required=True, choices=METHOD_TYPES)
    p.add_argument("--topics", required=True, help="topic JSON file")
    p.add_argument("--out", required=True, help="output rewrites TSV")
    p.add_argument("--index", help="index directory (required for hqe/hqe-pos)")
    p.add_argument("--pos", help="POS annotations JSONL (required for concat-pos/hqe-pos)")
    p.add_argument("--rewrites", help="external rewrites TSV (required for external)")
    p.add_argument("--hqe-preset", choices=("retrieval", "rerank"),
                   help="tuned parameter set to start from (default retrieval)")
    p.add_argument("--r-topic", type=float, default=None, help="topic keyword threshold")
    p.add_argument("--r-sub", type=float, default=None, help="subtopic keyword threshold")
    p.add_argument("--eta", type=float, default=None, help="ambiguity threshold")
    p.add_argument("--m-window", type=int, default=None, help="history window (hqe/concat)")
    _add_bm25_args(p)
    p.set_defaults(func=cmd_reformulate)

    p = sub.add_parser("retrieve", help="BM25 top-k retrieval for a query TSV")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True, help="qid<TAB>text file")
    p.add_argument("--out", required=True, help="output run file")
    p.add_argument("--k", type=int, default=1000)
    p.add_argument("--tag", default="convpr")
    _add_bm25_args(p)
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("fuse", help="reciprocal rank fusion of run files")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=float, default=60.0, help="RRF constant (default %(default)s)")
    p.add_argument("--depth", type=int, default=1000)
    p.add_argument("--tag", default="fusion")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("rerank", help="reorder a run with external scores")
    p.add_argument("--run", required=True)
    p.add_argument("--scores", required=True, help="qid<TAB>doc_id<TAB>score file")
    p.add_argument("--out", required=True)
    p.add_argument("--tag", default="rerank")
    p.set_defaults(func=cmd_rerank)

    p = sub.add_parser("eval", help="evaluate a run against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--metrics", default=",".join(DEFAULT_METRICS))
    p.add_argument("--depth", type=int, default=1000)
    p.add_argument("--per-query", action="store_true")
    p.add_argument("--csv", help="write per-query values to this CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="win/tie/loss and paired t-test between two runs")
    p.add_argument("--run-a", required=True)
    p.add_argument("--run-b", required=True, help="baseline run")
    p.add_argument("--qrels", required=True)
    p.add_argument("--metric", default="map")
    p.add_argument("--depth", type=int, default=1000)
    p.add_argument("--tie-eps", type=float, default=DEFAULT_TIE_EPSILON)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("analyze", help="retrieved-set and query-text analyses")
    asub = p.add_subparsers(dest="analysis", required=True, parser_class=_Parser)
    pj = asub.add_parser("jaccard", help="overlap of retrieved sets")
    pj.add_argument("--run-a")
    pj.add_argument("--run-b")
    pj.add_argument("--run", help="single run for --adjacent")
    pj.add_argument("--adjacent", action="store_true", help="compare consecutive turns per session")
    pj.add_argument("--depth", type=int, default=1000)
    pj.set_defaults(func=cmd_analyze_jaccard)
    pbleu = asub.add_parser("bleu", help="corpus BLEU between two rewrite files")
    pbleu.add_argument("--hypotheses", required=True)
    pbleu.add_argument("--references", required=True)
    pbleu.add_argument("--max-order", type=int, default=4)
    pbleu.set_defaults(func=cmd_analyze_bleu)

    p = sub.add_parser("experiment", help="run a full configured experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir", help="override the config's output_dir")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("grid", help="hyperparameter sweep for one method")
    p.add_argument("--config", required=True)
    p.add_argument("--method", required=True)
    p.add_argument("--param", action="append", required=True, metavar="NAME=V1,V2,...")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--out", help="write the table to this file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
    p.set_defaults(func=cmd_grid)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
