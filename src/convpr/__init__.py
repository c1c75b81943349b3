"""Conversational passage retrieval toolkit.

BM25 inverted indexing, historical query expansion and concatenation
baselines for conversational queries, reciprocal rank fusion of query
variants, and trec_eval-style evaluation and analysis.
"""

from .corpus import Passage, Session, Utterance, load_passages, load_sessions
from .cqr import (
    HQE_RERANK_DEFAULTS,
    HQE_RETRIEVAL_DEFAULTS,
    HqeParams,
    PosAnnotations,
    ReformulatedQuery,
    concat_rewrite,
    extract_keywords,
    hqe_rewrite,
    load_external_rewrites,
    raw_query,
    write_rewrites,
)
from .evaluation import (
    MetricReport,
    Qrels,
    average_precision,
    corpus_bleu,
    evaluate_run,
    jaccard,
    load_qrels,
    ndcg_at_k,
    paired_t_test,
    recall_at_k,
    win_tie_loss,
)
from .experiment import ExperimentConfig, grid_search, load_config, run_experiment
from .fusion import RrfParams, fuse_runs, rerank, rerank_run, rrf_fuse
from .index import Bm25Params, InvertedIndex, Searcher, build_index
from .runs import RankedEntry, RankedList, read_run, write_run
from .tokenization import TokenizerConfig, porter_stem, tokenize

__version__ = "0.1.0"

__all__ = [
    "Bm25Params",
    "ExperimentConfig",
    "HQE_RERANK_DEFAULTS",
    "HQE_RETRIEVAL_DEFAULTS",
    "HqeParams",
    "InvertedIndex",
    "MetricReport",
    "Passage",
    "PosAnnotations",
    "Qrels",
    "RankedEntry",
    "RankedList",
    "ReformulatedQuery",
    "RrfParams",
    "Searcher",
    "Session",
    "TokenizerConfig",
    "Utterance",
    "average_precision",
    "build_index",
    "concat_rewrite",
    "corpus_bleu",
    "evaluate_run",
    "extract_keywords",
    "fuse_runs",
    "grid_search",
    "hqe_rewrite",
    "jaccard",
    "load_config",
    "load_external_rewrites",
    "load_passages",
    "load_qrels",
    "load_sessions",
    "ndcg_at_k",
    "paired_t_test",
    "porter_stem",
    "raw_query",
    "read_run",
    "recall_at_k",
    "rerank",
    "rerank_run",
    "rrf_fuse",
    "run_experiment",
    "tokenize",
    "win_tie_loss",
    "write_rewrites",
    "write_run",
]
