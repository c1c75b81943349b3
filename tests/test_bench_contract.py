"""The benchmark in perfbench/ wraps convpr functions by name from outside
the package; these checks keep a refactor from silently breaking it."""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402
import workloads  # noqa: E402

from conftest import index_from  # noqa: E402
from convpr import _bm25, experiment, runs  # noqa: E402
from convpr.corpus import Passage  # noqa: E402
from convpr.index import Searcher, build_index  # noqa: E402

FIXTURES = Path(__file__).parent / "fixtures"

# Names the tracer wraps, including the re-imports that experiment.py looks
# up in its own namespace.
TARGETS = (
    "_bm25.score_postings",
    "_bm25.max_posting_score",
    "experiment.build_index",
    "experiment.load_passages",
    "experiment.load_sessions",
    "experiment.fuse_runs",
    "experiment.rerank_run",
    "experiment.load_rerank_scores",
    "experiment.write_run",
    "experiment.read_run",
    "experiment.evaluate_run",
    "experiment.run_experiment",
    "index.Searcher.search",
    "index.Searcher.max_score",
    "index.Searcher.max_score_term",
    "runs.RankedList.__init__",
)


def _resolve(target):
    module_name, _, attr = target.rpartition(".")
    try:
        owner = importlib.import_module("convpr." + module_name)
    except ModuleNotFoundError:
        module_name, _, cls = module_name.rpartition(".")
        owner = getattr(importlib.import_module("convpr." + module_name), cls)
    return getattr(owner, attr)


def test_tracer_install_patches_every_target_and_restores():
    originals = {t: _resolve(t) for t in TARGETS}
    t = tracer.Tracer()
    try:
        tracer.install(t, 12.5)
        for target in TARGETS:
            assert _resolve(target) is not originals[target], target
    finally:
        t.restore()
    for target in TARGETS:
        assert _resolve(target) is originals[target], target


def test_workload_counters_resolve():
    t = tracer.Tracer()
    try:
        for workload in workloads.WORKLOADS.values():
            tracer.install_counters(t, workload.counters)
    finally:
        t.restore()


def test_backend_reported_to_the_benchmark():
    assert _bm25.get_backend() == "numpy"


def test_search_result_is_built_through_ranked_list():
    # The retrieve workload requires the runs.RankedList span to fire, so
    # search results must be built by RankedList.__init__ (its ordered path,
    # which skips the checks, still runs there).
    searcher = Searcher(index_from({"d1": ["cat", "sat"], "d2": ["dog", "cat"]}))
    t = tracer.Tracer()
    try:
        tracer.install(t, 12.5)
        searcher.search(["cat"], k=10, qid="q")
    finally:
        t.restore()
    assert t.summary()["runs.RankedList"]["calls"] == 1


def test_ranked_list_entry_count_matches_search_results_and_read_runs(tmp_path):
    # The benchmark counts runs.RankedList.entries as the length of the
    # constructor's second argument after qid: one per entry of the list.
    searcher = Searcher(index_from({"d1": ["cat", "sat"], "d2": ["dog", "cat"], "d3": ["cat"]}))
    t = tracer.Tracer()
    try:
        tracer.install(t, 12.5)
        result = searcher.search(["cat"], k=10, qid="q")
        searched = t.counts["runs.RankedList.entries"]
        path = tmp_path / "x.run"
        runs.write_run(path, [result, runs.RankedList("r", result.ids[:2], result.scores[:2])])
        t.counts.clear()
        runs.read_run(path)
        read = t.counts["runs.RankedList.entries"]
    finally:
        t.restore()
    assert searched == len(result.entries) == 3
    assert read == len(path.read_text(encoding="utf-8").splitlines()) == 5


def test_warm_experiment_fires_the_run_spans(tmp_path):
    # The rerun workload requires runs.read_run and runs.RankedList to fire
    # on a warm experiment.
    config = experiment.load_config(FIXTURES / "config.yaml", {"output_dir": str(tmp_path / "out")})
    experiment.run_experiment(config)
    t = tracer.Tracer()
    try:
        tracer.install(t, 12.5)
        experiment.run_experiment(config)
    finally:
        t.restore()
    summary = t.summary()
    for span in ("runs.read_run", "runs.RankedList"):
        assert summary.get(span, {}).get("calls", 0) > 0, span


def test_build_index_tokenizes_each_passage_once():
    # The build workload's tokenization.tokens counter sums the tokenizer's
    # results, so it equals the corpus's token count only at one call per passage.
    passages = [Passage(f"d{i}", f"w{i % 7} w{i % 3} and w{i % 7}") for i in range(600)]
    t = tracer.Tracer()
    try:
        tracer.install(t, 12.5)
        build_index(iter(passages))
    finally:
        t.restore()
    assert t.summary()["tokenization.tokenize"]["calls"] == len(passages)
    assert t.counts["tokenization.tokens"] == 4 * len(passages)


def test_cold_experiment_builds_through_the_traced_name(tmp_path):
    # A cold run builds its index through experiment.build_index, which the
    # tracer wraps as the index.build_index span.
    config = experiment.load_config(FIXTURES / "config.yaml", {"output_dir": str(tmp_path / "out")})
    t = tracer.Tracer()
    try:
        tracer.install(t, 12.5)
        ws = experiment._open_workspace(config)
    finally:
        t.restore()
    assert t.summary()["index.build_index"]["calls"] == 1
    assert t.counts["index.postings"] == ws.searcher.index.doc_ords.size > 0
