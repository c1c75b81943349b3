import json
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import oracles
from convpr.cli import main as cli_main
from convpr.corpus import load_passages, load_sessions
from convpr.cqr import load_external_rewrites
from convpr.evaluation import evaluate_run, load_qrels
from convpr.experiment import grid_search, load_config, run_experiment
from convpr.fusion import fuse_runs
from convpr.index import InvertedIndex, Searcher
from convpr.runs import read_run, write_run
from convpr.tokenization import TokenizerConfig, tokenize

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture()
def fixture_config(tmp_path):
    return load_config(FIXTURES / "config.yaml", {"output_dir": str(tmp_path / "out")})


def _write_config(tmp_path, **updates):
    raw = yaml.safe_load((FIXTURES / "config.yaml").read_text(encoding="utf-8"))
    raw.update(updates)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    return path


# -- config validation ----------------------------------------------------------


def test_unknown_method_type_fails_before_any_work(tmp_path):
    for name in ("corpus.tsv", "topics.json", "qrels.txt", "t5.tsv", "pos.jsonl", "scores.tsv"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    path = _write_config(
        tmp_path,
        methods=[{"name": "x", "type": "neural-rewriter"}],
        fusion=None,
        output_dir="out",
    )
    with pytest.raises(ValueError, match="unknown type 'neural-rewriter'"):
        load_config(path)
    assert not (tmp_path / "out").exists()


def test_missing_input_file_rejected(tmp_path):
    path = _write_config(tmp_path, fusion=None, output_dir="out")
    with pytest.raises(ValueError, match="corpus does not exist"):
        load_config(path)


def test_duplicate_method_names_rejected(tmp_path):
    for name in ("corpus.tsv", "topics.json", "qrels.txt"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    path = _write_config(
        tmp_path,
        methods=[{"name": "m", "type": "raw"}, {"name": "m", "type": "raw"}],
        fusion=None,
        output_dir="out",
    )
    with pytest.raises(ValueError, match="duplicate method names"):
        load_config(path)


def test_method_name_may_not_be_another_methods_reranked_run(tmp_path):
    """Both runs would be written to runs/hqe+rerank.run and one lost."""
    for name in ("corpus.tsv", "topics.json", "qrels.txt", "scores.tsv"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    hqe = {"name": "hqe", "type": "hqe", "rerank_scores": "scores.tsv"}
    raw = {"name": "hqe+rerank", "type": "raw"}
    for methods in ([hqe, raw], [raw, hqe]):
        path = _write_config(tmp_path, methods=methods, fusion=None, output_dir="out")
        with pytest.raises(ValueError, match=r"'hqe\+rerank' is also the reranked run of method 'hqe'"):
            load_config(path)
    # without rerank_scores, hqe has no reranked run to clash with
    path = _write_config(
        tmp_path, methods=[{"name": "hqe", "type": "hqe"}, {"name": "hqe+rerank", "type": "raw"}],
        fusion=None, output_dir="out",
    )
    assert [m.name for m in load_config(path).methods] == ["hqe", "hqe+rerank"]


def test_fusion_must_reference_known_methods(tmp_path):
    for name in ("corpus.tsv", "topics.json", "qrels.txt"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    path = _write_config(
        tmp_path,
        methods=[{"name": "a", "type": "raw"}, {"name": "b", "type": "raw"}],
        fusion={"mode": "early", "methods": ["a", "nope"], "rerank_scores": "scores.tsv"},
        output_dir="out",
    )
    shutil.copy(FIXTURES / "scores.tsv", tmp_path / "scores.tsv")
    with pytest.raises(ValueError, match="unknown method 'nope'"):
        load_config(path)


def test_early_fusion_needs_scores(tmp_path):
    for name in ("corpus.tsv", "topics.json", "qrels.txt"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    path = _write_config(
        tmp_path,
        methods=[{"name": "a", "type": "raw"}, {"name": "b", "type": "raw"}],
        fusion={"mode": "early", "methods": ["a", "b"]},
        output_dir="out",
    )
    with pytest.raises(ValueError, match="early fusion needs"):
        load_config(path)


@pytest.mark.parametrize(
    "snippet,message",
    [
        ("methods: oops\n", "methods must be a list"),
        ("bm25: nope\nmethods: [{name: a, type: raw}]\n", "bm25 must be a mapping"),
        ("methods: [{name: a, type: hqe, hqe: {bogus: 1}}]\n", "bad methods"),
        ("methods: [{name: a, type: hqe, hqe: nope}]\n", "must be a mapping"),
        ("dept: 1\nmethods: [{name: a, type: raw}]\n", "top level: unknown key 'dept'"),
        ("raw: {}\nmethods: [{name: a, type: raw}]\n", "top level: unknown key 'raw'"),
        (
            "methods: [{name: a, type: raw, rerank_score: q.txt}]\n",
            r"methods\[0\]: unknown key 'rerank_score'",
        ),
        (
            "tokenizer: {stemm: true}\nmethods: [{name: a, type: raw}]\n",
            "tokenizer: unknown key 'stemm'",
        ),
        ("tokenizer: nope\nmethods: [{name: a, type: raw}]\n", "tokenizer must be a mapping"),
        (
            "tokenizer: {stem: 'false'}\nmethods: [{name: a, type: raw}]\n",
            "tokenizer.stem must be true or false, got 'false'",
        ),
        (
            "tokenizer: {remove_stopwords: 1}\nmethods: [{name: a, type: raw}]\n",
            "tokenizer.remove_stopwords must be true or false, got 1",
        ),
        (
            "methods: [{name: a, type: raw, rerank_scores: q.txt}, {name: b, type: raw}]\n"
            "fusion: {mode: early, methods: [a, b], rerank_with: a}\n",
            "fusion: unknown key 'rerank_with'",
        ),
        ("methods: [{name: my raw, type: raw}]\n", "method name 'my raw'"),
        ("methods: [{name: a/b, type: raw}]\n", "method name 'a/b'"),
        ("methods: [{name: 'a,b', type: raw}]\n", "method name 'a,b'"),
        (
            "methods: [{name: a, type: raw, rewrites: c.tsv}]\n",
            r"methods\[0\] \(a\): 'rewrites' is only read by type external",
        ),
        (
            "methods: [{name: a, type: raw, rerank_scores: q.txt},"
            " {name: b, type: raw, rerank_scores: q.txt}]\n"
            "fusion: {mode: late, methods: [a, b], rerank_scores: q.txt}\n",
            "late fusion takes no fusion.rerank_scores",
        ),
        # a key that the method's type or the fusion mode would ignore
        (
            "methods: [{name: a, type: hqe, pos_annotations: q.txt}]\n",
            r"methods\[0\] \(a\): 'pos_annotations' is only read by type concat-pos or hqe-pos",
        ),
        (
            "methods: [{name: a, type: concat, pos_annotations: q.txt}]\n",
            "'pos_annotations' is only read by type concat-pos or hqe-pos",
        ),
        (
            "methods: [{name: a, type: raw, m_window: 3}]\n",
            "'m_window' is only read by type concat or concat-pos",
        ),
        (
            "methods: [{name: a, type: hqe, m_window: 3}]\n",
            "'m_window' is only read by type concat or concat-pos",
        ),
        (
            "methods: [{name: a, type: external, rewrites: q.txt, m_window: 3}]\n",
            "'m_window' is only read by type concat or concat-pos",
        ),
        (
            "methods: [{name: a, type: concat-pos, hqe: {eta: 3.0}}]\n",
            "'hqe' is only read by type hqe or hqe-pos",
        ),
        # no fusion is written by leaving fusion out or null, not as a mode
        (
            "methods: [{name: a, type: raw}, {name: b, type: raw}]\nfusion: {}\n",
            "fusion.methods needs at least two methods",
        ),
        (
            "methods: [{name: a, type: raw}]\nfusion: {mode: none}\n",
            r"fusion\.mode must be one of \('early', 'late'\), got 'none'",
        ),
        (
            "methods: [{name: a, type: raw}, {name: b, type: raw}]\n"
            "fusion: {mode: early, methods: [a, b, a], rerank_scores: q.txt}\n",
            "fusion.methods lists method 'a' twice",
        ),
        # a -pos method without its annotations would run as its plain type
        (
            "methods: [{name: a, type: hqe-pos}]\n",
            r"methods\[0\] \(a\): hqe-pos needs 'pos_annotations'",
        ),
        (
            "methods: [{name: a, type: concat-pos, m_window: 2}]\n",
            r"methods\[0\] \(a\): concat-pos needs 'pos_annotations'",
        ),
        ("methods: [{name: a, type: external}]\n", r"methods\[0\] \(a\): external needs 'rewrites'"),
        ("depth: 10.5\nmethods: [{name: a, type: raw}]\n", r"depth must be an integer, got 10\.5"),
        (
            "methods: [{name: a, type: concat, m_window: 3.7}]\n",
            r"methods\[0\]\.m_window must be an integer, got 3\.7",
        ),
        (
            "methods: [{name: a, type: hqe, hqe: {m_window: 2.5}}]\n",
            r"methods\[0\]\.hqe\.m_window must be an integer, got 2\.5",
        ),
        (
            "methods: [{name: a, type: concat-pos, m_window: -1, pos_annotations: q.txt}]\n",
            "m_window must be >= 0, got -1",
        ),
        ("methods: [{name: a, type: hqe, hqe: {m_window: -1}}]\n", "m_window must be >= 0, got -1"),
        ("bm25: {k1: .nan}\nmethods: [{name: a, type: raw}]\n", "k1 must be finite and >= 0, got nan"),
        ("bm25: {k1: .inf}\nmethods: [{name: a, type: raw}]\n", "k1 must be finite and >= 0, got inf"),
        ("rrf: {k: .inf}\nmethods: [{name: a, type: raw}]\n", "rrf k must be finite and > 0, got inf"),
    ],
)
def test_malformed_config_sections_are_validation_errors(tmp_path, snippet, message):
    (tmp_path / "c.tsv").write_text("d1\tx\n", encoding="utf-8")
    (tmp_path / "t.json").write_text(
        '[{"number": 1, "turn": [{"number": 1, "raw_utterance": "x"}]}]', encoding="utf-8"
    )
    (tmp_path / "q.txt").write_text("1_1 0 d1 1\n", encoding="utf-8")
    path = tmp_path / "cfg.yaml"
    path.write_text(
        "corpus: c.tsv\ntopics: t.json\nqrels: q.txt\noutput_dir: out\n" + snippet,
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match=message):
        load_config(path)


def _late_fusion_config(tmp_path, t5_scores=True):
    """The fixture config with late fusion of hqe and t5, each reranked with
    scores.tsv (t5 only when ``t5_scores``), in a copy of the fixtures."""
    _copy_fixtures(tmp_path)
    methods = yaml.safe_load((FIXTURES / "config.yaml").read_text(encoding="utf-8"))["methods"]
    t5 = next(m for m in methods if m["name"] == "t5")
    if t5_scores:
        t5["rerank_scores"] = "scores.tsv"
    return _write_config(tmp_path, methods=methods, fusion={"mode": "late", "methods": ["hqe", "t5"]})


def test_late_fusion_fuses_the_reranked_runs(tmp_path):
    """Late fusion fuses hqe+rerank and t5+rerank and reranks nothing after,
    cold and warm."""
    config = load_config(_late_fusion_config(tmp_path), {"output_dir": "out"})
    runs = tmp_path / "out" / "runs"
    for attempt in ("cold", "warm"):
        result = run_experiment(config)
        reranked = [read_run(runs / f"{name}+rerank.run") for name in ("hqe", "t5")]
        expected = tmp_path / "expected.run"
        write_run(expected, fuse_runs(reranked, config.rrf, config.depth), tag="fusion")
        assert (runs / "fusion.run").read_bytes() == expected.read_bytes(), attempt
        assert list(result.reports) == ["raw", "concat-pos", "hqe", "hqe+rerank", "t5", "t5+rerank", "fusion"]


def test_late_fusion_requires_rerank_scores_on_each_fused_method(tmp_path):
    with pytest.raises(ValueError, match="late fusion requires rerank_scores on method 't5'"):
        load_config(_late_fusion_config(tmp_path, t5_scores=False))


def test_null_fusion_loads_without_fusion(tmp_path):
    overrides = {"fusion": None, "output_dir": str(tmp_path / "out")}
    assert load_config(FIXTURES / "config.yaml", overrides).fusion is None


def test_config_hash_tracks_content(tmp_path):
    c1 = load_config(FIXTURES / "config.yaml", {"output_dir": str(tmp_path / "a")})
    c2 = load_config(FIXTURES / "config.yaml", {"output_dir": str(tmp_path / "a")})
    c3 = load_config(
        FIXTURES / "config.yaml", {"output_dir": str(tmp_path / "a"), "bm25.k1": 1.2}
    )
    assert c1.config_hash() == c2.config_hash()
    assert c1.config_hash() != c3.config_hash()


# -- running the fixture experiment -------------------------------------------------


def test_experiment_matches_golden_csv(fixture_config):
    result = run_experiment(fixture_config)
    golden = (FIXTURES / "golden_metrics.csv").read_bytes()
    assert result.metrics_csv.read_bytes() == golden


def test_summary_table_layout(fixture_config):
    result = run_experiment(fixture_config)
    assert result.metrics_txt.read_text(encoding="utf-8") == (
        "run                  map        ndcg@3        ndcg@1   recall@1000\n"
        "raw               0.6000        0.7207        0.7333        0.6000\n"
        "concat-pos        0.7667        0.9084        0.9333        0.8000\n"
        "hqe               0.6667        0.8346        0.7333        0.8000\n"
        "hqe+rerank        0.6500        0.7876        0.7333        0.8000\n"
        "t5                0.5667        0.6726        0.7333        0.8000\n"
        "fusion            0.5667        0.6726        0.7333        0.8000\n"
    )


def test_emitted_runs_reevaluate_to_reported_numbers(fixture_config):
    result = run_experiment(fixture_config)
    qrels = load_qrels(fixture_config.qrels)
    for name, report in result.reports.items():
        run = read_run(fixture_config.output_dir / "runs" / f"{name}.run")
        again = evaluate_run(run, qrels, fixture_config.metrics, fixture_config.depth)
        assert again.per_query == report.per_query, name


def test_rerun_is_byte_identical(tmp_path):
    outputs = []
    for sub in ("one", "two"):
        config = load_config(FIXTURES / "config.yaml", {"output_dir": str(tmp_path / sub)})
        run_experiment(config)
        out = {}
        base = tmp_path / sub
        for p in sorted(base.rglob("*")):
            if p.is_file() and "cache" not in p.parts:
                out[p.relative_to(base)] = p.read_bytes()
        outputs.append(out)
    assert outputs[0] == outputs[1]

    # and a warm-cache rerun in place reproduces the same bytes
    config = load_config(FIXTURES / "config.yaml", {"output_dir": str(tmp_path / "one")})
    run_experiment(config)
    for rel, data in outputs[0].items():
        assert (tmp_path / "one" / rel).read_bytes() == data, rel


def _tree(base):
    return {p.relative_to(base): p.read_bytes() for p in sorted(base.rglob("*")) if p.is_file()}


def _outputs(base):
    return {rel: data for rel, data in _tree(base).items() if "cache" not in rel.parts}


def test_interrupted_cache_write_is_not_reused(tmp_path, monkeypatch):
    """A first-stage run cut off while being cached must not be picked up
    as a complete cached run by the next experiment."""
    import convpr.experiment as experiment

    real_write_run = experiment.write_run

    def write_then_fail(path, run, tag="convpr"):
        if "cache" not in Path(path).parts:
            return real_write_run(path, run, tag=tag)
        first_qid = next(iter(run))
        real_write_run(path, {first_qid: run[first_qid]}, tag=tag)
        raise OSError("simulated crash mid-write")

    config = load_config(FIXTURES / "config.yaml", {"output_dir": str(tmp_path / "crash")})
    with monkeypatch.context() as m:
        m.setattr(experiment, "write_run", write_then_fail)
        with pytest.raises(OSError, match="simulated crash"):
            run_experiment(config)
    cache = tmp_path / "crash" / "cache"
    assert not list(cache.glob("run-*.run"))
    assert not list(cache.glob("*.tmp"))

    run_experiment(config)
    clean = load_config(FIXTURES / "config.yaml", {"output_dir": str(tmp_path / "clean")})
    run_experiment(clean)
    assert _outputs(tmp_path / "crash") == _outputs(tmp_path / "clean")


def test_interrupted_index_save_is_not_reused(tmp_path, monkeypatch):
    """An index save cut off after meta.json must not leave a cached index
    that the next experiment trusts."""
    import numpy as np

    def fail(*args, **kwargs):
        raise OSError("simulated crash mid-save")

    config = load_config(FIXTURES / "config.yaml", {"output_dir": str(tmp_path / "crash")})
    with monkeypatch.context() as m:
        m.setattr(np, "save", fail)
        with pytest.raises(OSError, match="simulated crash"):
            run_experiment(config)
    cache = tmp_path / "crash" / "cache"
    assert not list(cache.glob("index-*"))
    assert not list(cache.iterdir())  # nor a temp directory

    run_experiment(config)
    clean = load_config(FIXTURES / "config.yaml", {"output_dir": str(tmp_path / "clean")})
    run_experiment(clean)
    assert _tree(tmp_path / "crash") == _tree(tmp_path / "clean")


def test_second_save_to_a_finished_index_entry_uses_it(tmp_path):
    """Two runs that share a cache may build the same index; the one that
    finishes second keeps the first one's complete entry."""
    from convpr.experiment import _write_atomically

    def save(marker):
        def write(tmp):
            tmp.mkdir()
            (tmp / "meta.json").write_text(marker, encoding="utf-8")

        return write

    target = tmp_path / "index-0123456789abcdef"
    _write_atomically(target, save("first"))
    _write_atomically(target, save("second"))
    assert (target / "meta.json").read_text(encoding="utf-8") == "first"
    assert [p.name for p in tmp_path.iterdir()] == [target.name]  # no .index-*.tmp


def _count_max_posting_score(monkeypatch) -> list:
    """Record every call of the max-score kernel, which still runs."""
    from convpr import _bm25

    calls = []
    real = _bm25.max_posting_score
    monkeypatch.setattr(_bm25, "max_posting_score", lambda *args: calls.append(args) or real(*args))
    return calls


def _snapshot(directory: Path) -> dict:
    """Every path under ``directory``, with its mtime and a file's bytes."""
    return {
        path: (path.stat().st_mtime_ns, path.is_file() and path.read_bytes())
        for path in [directory, *directory.rglob("*")]
    }


def test_warm_rerun_reuses_ke_cache(fixture_config, monkeypatch):
    """A cold run computes every keyword-extractor score in one kernel pass
    and writes them to ke-*.npy; a warm experiment or grid takes them from
    there and writes nothing to the cache."""
    calls = _count_max_posting_score(monkeypatch)
    run_experiment(fixture_config)
    assert len(calls) == 1
    cache = fixture_config.output_dir / "cache"
    assert len(list(cache.glob("ke-*.npy"))) == 1
    cold = _snapshot(cache)

    calls.clear()
    run_experiment(fixture_config)
    grid_search(fixture_config, "hqe", {"eta": [3.0]})
    assert calls == []
    assert _snapshot(cache) == cold


def test_config_without_hqe_computes_no_keyword_scores(fixture_config, monkeypatch):
    config = replace(
        fixture_config,
        methods=[m for m in fixture_config.methods if m.type not in ("hqe", "hqe-pos")],
        fusion=None,
    )
    calls = _count_max_posting_score(monkeypatch)
    run_experiment(config)
    grid_search(config, "concat-pos", {"m_window": [1]})
    assert calls == []
    assert not list((config.output_dir / "cache").glob("ke-*"))


def test_warm_run_copies_first_stage_runs_from_the_cache(fixture_config, monkeypatch):
    """A warm run serialises only the runs it computes (reranked and fused);
    each first-stage run is a byte copy of its cache entry."""
    import convpr.experiment as experiment

    run_experiment(fixture_config)
    out = fixture_config.output_dir
    cold = _outputs(out)
    tags = []
    real_write_run = experiment.write_run

    def recording(path, run, tag="convpr"):
        tags.append(tag)
        return real_write_run(path, run, tag=tag)

    monkeypatch.setattr(experiment, "write_run", recording)
    run_experiment(fixture_config)
    assert sorted(tags) == ["fusion", "hqe+rerank"]
    assert _outputs(out) == cold
    entries = {p.read_bytes() for p in (out / "cache").glob("run-*.run")}
    for method in fixture_config.methods:
        assert (out / "runs" / f"{method.name}.run").read_bytes() in entries, method.name


def _tags(path):
    return {line.split()[5] for line in path.read_text(encoding="utf-8").splitlines()}


def test_methods_with_equal_parameters_keep_their_own_tags(tmp_path):
    """The method name is the tag of a cached run, so it is part of the
    run's cache key: two same-parameter methods, and a renamed method, never
    take another name's entry."""
    for name in ("corpus.tsv", "topics.json", "qrels.txt"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    # cold, warm, then with method "a" renamed to "c"
    for names in (["a", "b"], ["a", "b"], ["c", "b"]):
        methods = [{"name": n, "type": "raw"} for n in names]
        path = _write_config(tmp_path, methods=methods, fusion=None, output_dir="out")
        run_experiment(load_config(path))
        runs = tmp_path / "out" / "runs"
        assert {n: _tags(runs / f"{n}.run") for n in names} == {n: {n} for n in names}
    assert len(list((tmp_path / "out" / "cache").glob("run-*.run"))) == 3


def test_index_format_version_is_part_of_the_index_key(fixture_config, monkeypatch):
    """After a change of index layout the next run builds a new index
    instead of loading one saved in the old layout."""
    from convpr import index

    run_experiment(fixture_config)
    outputs = _outputs(fixture_config.output_dir)
    monkeypatch.setattr(index, "_VERSION", index._VERSION + 1)
    run_experiment(fixture_config)
    assert len(list((fixture_config.output_dir / "cache").glob("index-*"))) == 2
    assert _outputs(fixture_config.output_dir) == outputs


def _copy_fixtures(tmp_path):
    for name in ("config.yaml", "corpus.tsv", "topics.json", "qrels.txt", "pos.jsonl",
                 "scores.tsv", "t5.tsv"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    return tmp_path / "config.yaml", tmp_path / "topics.json"


def test_edited_topics_are_not_served_stale_runs(tmp_path):
    """Every run key covers the queries searched: after an utterance
    changes, a warm run gives the outputs of a cold one. t5 reads its
    queries from t5.tsv, not from the topics, so it keeps its entry."""
    config, topics = _copy_fixtures(tmp_path)
    run_experiment(load_config(config, {"output_dir": "warm"}))
    before = (tmp_path / "warm" / "runs" / "raw.run").read_bytes()
    text = topics.read_text(encoding="utf-8")
    assert text.count("What about its glow?") == 1
    topics.write_text(text.replace("What about its glow?", "What about its jets?"), encoding="utf-8")
    run_experiment(load_config(config, {"output_dir": "warm"}))
    run_experiment(load_config(config, {"output_dir": "cold"}))
    assert (tmp_path / "warm" / "runs" / "raw.run").read_bytes() != before
    assert _outputs(tmp_path / "warm") == _outputs(tmp_path / "cold")
    assert len(list((tmp_path / "warm" / "cache").glob("run-*.run"))) == 7


def test_edit_that_changes_no_query_reuses_every_run(tmp_path):
    """A punctuation-only edit of an utterance changes no query token, so
    a warm run searches nothing and writes nothing to the cache; only the
    rewrites that quote the utterance change."""
    config, topics = _copy_fixtures(tmp_path)
    run_experiment(load_config(config))
    out = tmp_path / "out"
    before, cache = _outputs(out), _snapshot(out / "cache")
    text = topics.read_text(encoding="utf-8")
    assert text.count("What about its glow?") == 1
    topics.write_text(text.replace("What about its glow?", "What about its glow!"), encoding="utf-8")
    run_experiment(load_config(config))
    assert _snapshot(out / "cache") == cache
    assert len(list((out / "cache").glob("run-*.run"))) == 4
    assert _outputs(out) == {rel: data.replace(b"glow?", b"glow!") for rel, data in before.items()}
    assert (out / "rewrites" / "raw.tsv").read_bytes() != before[Path("rewrites/raw.tsv")]


def test_changed_rewrite_code_is_not_served_a_stale_run(tmp_path, monkeypatch):
    """The run key covers each query's tokens, not how they were made, so a
    reformulation that now returns other tokens gets a new entry: a warm run
    gives the outputs of a cold one."""
    import convpr.experiment as experiment

    config, _ = _copy_fixtures(tmp_path)
    run_experiment(load_config(config, {"output_dir": "warm"}))
    before = (tmp_path / "warm" / "runs" / "raw.run").read_bytes()
    real_raw_query = experiment.raw_query

    def raw_query(utterance, tokenizer):
        q = real_raw_query(utterance, tokenizer)
        return replace(q, tokens=(*q.tokens, "quasar"), display_text=q.display_text + " quasar")

    monkeypatch.setattr(experiment, "raw_query", raw_query)
    run_experiment(load_config(config, {"output_dir": "warm"}))
    run_experiment(load_config(config, {"output_dir": "cold"}))
    assert (tmp_path / "warm" / "runs" / "raw.run").read_bytes() != before
    assert _outputs(tmp_path / "warm") == _outputs(tmp_path / "cold")


def test_warm_run_holds_one_string_per_doc_id(fixture_config, monkeypatch):
    """The cached runs and the rerank scores of one experiment are read with
    one pool, so equal doc ids and qids across all of them are one object.
    A warm run reads the runs that are reranked or fused, hqe and t5."""
    import convpr.experiment as experiment

    run_experiment(fixture_config)
    runs, scores, tags = [], [], []
    real_read_run, real_load = experiment.read_run, experiment.load_rerank_scores

    def read_run(path, *args, **kwargs):
        tags.extend(_tags(path))
        runs.append(real_read_run(path, *args, **kwargs))
        return runs[-1]

    def load_rerank_scores(*args, **kwargs):
        scores.append(real_load(*args, **kwargs))
        return scores[-1]

    monkeypatch.setattr(experiment, "read_run", read_run)
    monkeypatch.setattr(experiment, "load_rerank_scores", load_rerank_scores)
    run_experiment(fixture_config)
    assert sorted(tags) == ["hqe", "t5"] and len(scores) == 1
    lists = [rl for run in runs for rl in run.values()]
    doc_ids = [d for rl in lists for d in rl.ids] + [d for by_doc in scores[0].values() for d in by_doc]
    qids = [rl.qid for rl in lists] + list(scores[0])
    for strings in (doc_ids, qids):
        assert len({id(s) for s in strings}) == len(set(strings)) < len(strings)


def _watch_index(monkeypatch):
    """Have every workspace that run_experiment opens record a weakref to
    its index; returns the list of those refs."""
    import weakref

    import convpr.experiment as experiment

    refs = []
    real_open = experiment._open_workspace

    def opening(config):
        ws = real_open(config)
        refs.append(weakref.ref(ws.searcher.index))
        return ws

    monkeypatch.setattr(experiment, "_open_workspace", opening)
    return refs


def test_warm_run_frees_the_index_before_reading_a_run(fixture_config, monkeypatch):
    """Every search of a warm run is cached, so no run file is read while
    the index is alive: the peak is the index or the runs, not both. It
    reads the two runs that are reranked or fused."""
    import convpr.experiment as experiment

    run_experiment(fixture_config)
    refs = _watch_index(monkeypatch)
    alive = []
    real_read_run = experiment.read_run

    def read_run(*args, **kwargs):
        alive.append(refs[-1]() is not None)
        return real_read_run(*args, **kwargs)

    monkeypatch.setattr(experiment, "read_run", read_run)
    run_experiment(fixture_config)
    assert alive == [False, False]


def test_cold_run_frees_the_index_before_reranking_and_fusion(fixture_config, monkeypatch):
    """A cold run searches with the index alive, caching each first-stage
    run, and frees it before it writes a reranked or fused run."""
    import convpr.experiment as experiment

    refs = _watch_index(monkeypatch)
    alive = {}
    real_write_run = experiment.write_run

    def write_run(path, run, tag="convpr"):
        if "runs" in Path(path).parts:
            alive[tag] = refs[-1]() is not None
        return real_write_run(path, run, tag=tag)

    monkeypatch.setattr(experiment, "write_run", write_run)
    run_experiment(fixture_config)
    assert alive == {"hqe+rerank": False, "fusion": False}


# -- the evaluation cache --------------------------------------------------------


def _count_calls(monkeypatch, module, name, record=lambda *args: None):
    """Count the calls to ``module.name``; ``record`` sees each call's
    arguments."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(record(*args))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_warm_run_parses_only_the_consumed_runs(fixture_config, monkeypatch):
    """raw and concat-pos are neither reranked nor fused: a warm run parses
    only hqe and t5, takes every first-stage run's metrics from eval-*.json
    and evaluates only the reranked and fused runs, with the outputs of a
    cold run."""
    import convpr.experiment as experiment

    evaluated = _count_calls(monkeypatch, experiment, "evaluate_run")
    run_experiment(fixture_config)
    out = fixture_config.output_dir
    cold = _outputs(out)
    assert len(evaluated) == 6
    assert len(list((out / "cache").glob("eval-*.json"))) == 4

    evaluated.clear()
    read = _count_calls(monkeypatch, experiment, "read_run", lambda path, *_: _tags(path))
    run_experiment(fixture_config)
    assert sorted(tag for tags in read for tag in tags) == ["hqe", "t5"]
    assert len(evaluated) == 2
    assert _outputs(out) == cold
    assert (out / "metrics.csv").read_bytes() == (FIXTURES / "golden_metrics.csv").read_bytes()


def test_cold_run_parses_the_consumed_runs_from_their_entries(fixture_config, monkeypatch):
    """A cold run hands stage 2 no run it searched: like a warm one, it
    parses hqe and t5, the runs that are reranked or fused, from their
    cache entries, once each."""
    import convpr.experiment as experiment

    for _ in ("cold", "warm"):
        with monkeypatch.context() as m:
            read = _count_calls(m, experiment, "read_run", lambda path, *_: _tags(path))
            run_experiment(fixture_config)
        assert sorted(tag for tags in read for tag in tags) == ["hqe", "t5"]


def _swap_doc_ids(line_a, line_b):
    """Lines ``line_a`` and ``line_b`` with their doc ids swapped."""
    a, b = line_a.split(" "), line_b.split(" ")
    a[2], b[2] = b[2], a[2]
    return " ".join(a), " ".join(b)


def test_edited_run_entry_is_evaluated_again(fixture_config):
    """The evaluation key covers the bytes of the run entry, so an entry
    edited in place, even to the same size, is evaluated afresh."""
    before = run_experiment(fixture_config).reports["raw"]
    out = fixture_config.output_dir
    raw_bytes = (out / "runs" / "raw.run").read_bytes()
    (entry,) = [p for p in (out / "cache").glob("run-*.run") if p.read_bytes() == raw_bytes]
    lines = raw_bytes.decode("utf-8").splitlines(keepends=True)
    # 7_3: d01 (grade 3) at rank 1 and d08 (unjudged) at rank 6 change places.
    assert lines[2].startswith("7_3 Q0 d01 1 ") and lines[7].startswith("7_3 Q0 d08 6 ")
    lines[2], lines[7] = _swap_doc_ids(lines[2], lines[7])
    entry.write_bytes("".join(lines).encode("utf-8"))
    assert entry.stat().st_size == len(raw_bytes)

    result = run_experiment(fixture_config)
    assert len(list((out / "cache").glob("eval-*.json"))) == 5
    config = fixture_config
    edited = evaluate_run(read_run(entry), load_qrels(config.qrels), config.metrics, config.depth)
    assert edited.per_query != before.per_query
    assert result.reports["raw"].per_query == edited.per_query
    csv_lines = (out / "metrics.csv").read_text(encoding="utf-8").splitlines()
    assert [line for line in csv_lines if line.startswith("raw,")] == [
        ",".join(row) for row in edited.csv_rows("raw")
    ]


@pytest.mark.parametrize("edit", ["qrels", "metrics"])
def test_edited_qrels_or_metrics_get_new_evaluation_entries(tmp_path, edit):
    """The evaluation key covers the qrels bytes and the metric names: after
    either changes, a warm run gives the outputs of a cold one."""
    config, _ = _copy_fixtures(tmp_path)
    run_experiment(load_config(config, {"output_dir": "warm"}))
    overrides = {}
    if edit == "qrels":
        qrels = tmp_path / "qrels.txt"
        text = qrels.read_text(encoding="utf-8")
        assert text.count("9_2 0 d12 3\n") == 1
        qrels.write_text(text.replace("9_2 0 d12 3\n", "9_2 0 d12 1\n"), encoding="utf-8")
    else:
        overrides = {"metrics": ["map"]}
    before = (tmp_path / "warm" / "metrics.csv").read_bytes()
    run_experiment(load_config(config, {"output_dir": "warm", **overrides}))
    run_experiment(load_config(config, {"output_dir": "cold", **overrides}))
    assert len(list((tmp_path / "warm" / "cache").glob("eval-*.json"))) == 8
    assert (tmp_path / "warm" / "metrics.csv").read_bytes() != before
    assert _outputs(tmp_path / "warm") == _outputs(tmp_path / "cold")


def test_evaluation_version_is_part_of_the_evaluation_key(fixture_config, monkeypatch):
    """After a change of metric code the next run evaluates afresh instead
    of serving metrics computed by the old code."""
    from convpr import evaluation

    run_experiment(fixture_config)
    outputs = _outputs(fixture_config.output_dir)
    monkeypatch.setattr(evaluation, "_VERSION", evaluation._VERSION + 1)
    run_experiment(fixture_config)
    assert len(list((fixture_config.output_dir / "cache").glob("eval-*.json"))) == 8
    assert _outputs(fixture_config.output_dir) == outputs


@pytest.mark.parametrize("bom_file", ["qrels.txt", "corpus.tsv"])
def test_bom_inputs_are_not_served_entries_cached_by_the_old_reader(tmp_path, monkeypatch, bom_file):
    """Before corpus.read_lines dropped a leading BOM, it prefixed the first
    doc id and the first judged qid, and the metrics came out wrong with
    exit 0. An output directory warmed by that reader, under the index
    version 8 and evaluation version 1 of its time, must not serve its
    entries once the files are read right: the next run indexes and
    evaluates afresh and gives the outputs of plain files."""
    from contextlib import contextmanager

    from convpr import corpus, evaluation, index

    @contextmanager
    def read_lines_keeping_a_bom(path):
        with open(path, encoding="utf-8") as fh:
            yield (line.rstrip("\n") for line in fh if line.strip())

    configs = {}
    for copy in ("plain", "bom"):
        (tmp_path / copy).mkdir()
        for name in ("corpus.tsv", "topics.json", "qrels.txt"):
            data = (FIXTURES / name).read_bytes()
            prefix = b"\xef\xbb\xbf" if copy == "bom" and name == bom_file else b""
            (tmp_path / copy / name).write_bytes(prefix + data)
        configs[copy] = load_config(_write_config(tmp_path / copy, methods=[
            {"name": "raw", "type": "raw"}], fusion=None))
    run_experiment(configs["plain"])
    with monkeypatch.context() as m:
        for module in (corpus, evaluation):
            m.setattr(module, "read_lines", read_lines_keeping_a_bom)
        # the last versions whose loaders kept a BOM
        m.setattr(index, "_VERSION", 8)
        m.setattr(evaluation, "_VERSION", 1)
        run_experiment(configs["bom"])
    plain, bom = tmp_path / "plain" / "out", tmp_path / "bom" / "out"
    # A BOM'd qrels file dropped qid 7_1; a BOM'd corpus renamed d01.
    assert _outputs(bom)[Path("metrics.csv")] != _outputs(plain)[Path("metrics.csv")]
    run_experiment(configs["bom"])
    assert _outputs(bom) == _outputs(plain)
    assert len(list((bom / "cache").glob("index-*"))) == 2
    assert len(list((bom / "cache").glob("eval-*.json"))) == 2


def test_interrupted_evaluation_entry_write_is_not_reused(tmp_path, monkeypatch):
    """An evaluation entry cut off mid-write leaves neither the entry nor
    its temp file, and the next run gives the outputs of a clean one."""
    real_write_text = Path.write_text

    def write_half_then_fail(path, text, *args, **kwargs):
        if not path.name.startswith(".eval-"):
            return real_write_text(path, text, *args, **kwargs)
        real_write_text(path, text[: len(text) // 2], *args, **kwargs)
        raise OSError("simulated crash mid-write")

    config = load_config(FIXTURES / "config.yaml", {"output_dir": str(tmp_path / "crash")})
    with monkeypatch.context() as m:
        m.setattr(Path, "write_text", write_half_then_fail)
        with pytest.raises(OSError, match="simulated crash"):
            run_experiment(config)
    # Each method's evaluation entry is written right after its search, so
    # the crash comes after the first search.
    cache = tmp_path / "crash" / "cache"
    assert len(list(cache.glob("run-*.run"))) == 1
    assert not list(cache.glob("eval-*")) and not list(cache.glob(".*"))

    run_experiment(config)
    clean = load_config(FIXTURES / "config.yaml", {"output_dir": str(tmp_path / "clean")})
    run_experiment(clean)
    assert _tree(tmp_path / "crash") == _tree(tmp_path / "clean")


def _crash_mid_write(monkeypatch, target: Path) -> None:
    """Make the writer of ``target``, or of a temp file beside it that is
    named after it, leave half of its bytes and raise, as an experiment
    killed mid-write would."""
    from convpr import experiment

    def wrap(write, dest: int):
        def cut_off(*args, **kwargs):
            result = write(*args, **kwargs)
            path = Path(args[dest])
            if path.parent == target.parent and (
                path.name == target.name or path.name.startswith(f".{target.name}.")
            ):
                data = path.read_bytes()
                path.write_bytes(data[: len(data) // 2])
                raise OSError("simulated crash mid-write")
            return result

        return cut_off

    # Each writer with the position of its destination argument.
    for owner, name, dest in [
        (experiment, "write_run", 0),
        (experiment, "write_rewrites", 0),
        (experiment, "write_metrics_csv", 0),
        (shutil, "copyfile", 1),
        (Path, "write_text", 0),
    ]:
        monkeypatch.setattr(owner, name, wrap(getattr(owner, name), dest))


@pytest.mark.parametrize(
    "target",
    [
        "runs/raw.run",  # copied from the run cache, evaluated from its entry
        "runs/hqe.run",  # copied from the run cache, then reranked and fused
        "runs/hqe+rerank.run",
        "runs/fusion.run",
        "rewrites/t5.tsv",
        "metrics.csv",
        "metrics.txt",
        "config_hash.txt",
    ],
)
def test_interrupted_output_write_leaves_no_cut_off_file(tmp_path, monkeypatch, target):
    """An output cut off mid-write is never left under its name: a cold run
    leaves none, a warm one the complete file of the run before, and the
    next run gives the outputs of a clean one."""
    config = load_config(FIXTURES / "config.yaml", {"output_dir": str(tmp_path / "crash")})
    path = tmp_path / "crash" / target
    for attempt in ("cold", "warm"):
        before = path.read_bytes() if path.exists() else None
        with monkeypatch.context() as m:
            _crash_mid_write(m, path)
            with pytest.raises(OSError, match="simulated crash"):
                run_experiment(config)
        assert (path.read_bytes() if path.exists() else None) == before, attempt
        assert not [p for p in (tmp_path / "crash").rglob(".*")], attempt
        run_experiment(config)
    assert len(path.read_bytes()) > 0
    clean = load_config(FIXTURES / "config.yaml", {"output_dir": str(tmp_path / "clean")})
    run_experiment(clean)
    assert _outputs(tmp_path / "crash") == _outputs(tmp_path / "clean")


def test_each_method_logs_its_cache_use(fixture_config, caplog):
    caplog.set_level("INFO", logger="convpr")
    for run_cache, evaluation_entry in (("miss", "miss"), ("hit", "hit")):
        caplog.clear()
        run_experiment(fixture_config)
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("method ")]
        expected = [
            f"method {name}: run cache {run_cache}, evaluation entry {evaluation_entry}"
            for name in ("raw", "concat-pos", "hqe", "t5")
        ]
        assert lines == expected


def test_a_missing_external_rewrite_fails_before_any_run_is_emitted(tmp_path):
    """Every method is reformulated before the first run is emitted, so a
    bad method after a good one leaves no run of the good one behind."""
    from convpr.cli import main

    for name in ("corpus.tsv", "topics.json", "qrels.txt"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    lines = (FIXTURES / "t5.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    assert lines[1].startswith("7_2\t")
    (tmp_path / "t5.tsv").write_text("".join(lines[:1] + lines[2:]), encoding="utf-8")
    methods = [{"name": "raw", "type": "raw"}, {"name": "t5", "type": "external", "rewrites": "t5.tsv"}]
    path = _write_config(tmp_path, methods=methods, fusion=None, output_dir="out")
    assert main(["experiment", "--config", str(path)]) == 1
    assert list((tmp_path / "out" / "runs").iterdir()) == []


def test_readme_config_example_loads(tmp_path):
    """The README's example config is valid under the strict key check."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Experiments from a config file", 1)[1]
    example = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    for src, dst in [
        ("corpus.tsv", "passages.tsv"),
        ("topics.json", "topics.json"),
        ("qrels.txt", "qrels.txt"),
        ("pos.jsonl", "pos.jsonl"),
        ("scores.tsv", "scores.tsv"),
        ("t5.tsv", "t5.tsv"),
    ]:
        shutil.copy(FIXTURES / src, tmp_path / dst)
    (tmp_path / "exp.yaml").write_text(example, encoding="utf-8")
    config = load_config(tmp_path / "exp.yaml")
    assert [m.name for m in config.methods] == ["raw", "concat-pos", "hqe", "t5"]
    assert config.fusion.methods == ("hqe", "t5")


def test_config_hash_logged_and_written(fixture_config):
    result = run_experiment(fixture_config)
    recorded = (fixture_config.output_dir / "config_hash.txt").read_text(encoding="utf-8").strip()
    assert recorded == result.config_hash == fixture_config.config_hash()


def test_ke_cache_persisted(fixture_config):
    run_experiment(fixture_config)
    cache = fixture_config.output_dir / "cache"
    (ke_path,) = cache.glob("ke-*.npy")
    (index_dir,) = cache.glob("index-*")
    searcher = Searcher(InvertedIndex.load(index_dir), fixture_config.bm25)
    assert np.load(ke_path).tobytes() == searcher.term_max_scores().tobytes()


# -- grid search ----------------------------------------------------------------------


def test_grid_of_size_one_equals_experiment_metrics(fixture_config):
    result = run_experiment(fixture_config)
    hqe = next(m for m in fixture_config.methods if m.name == "hqe")
    rows = grid_search(
        fixture_config,
        "hqe",
        {
            "r_topic": [hqe.hqe.r_topic],
            "r_sub": [hqe.hqe.r_sub],
            "eta": [hqe.hqe.eta],
            "m_window": [hqe.hqe.m_window],
        },
    )
    assert len(rows) == 1
    means = result.reports["hqe"].means
    assert rows[0]["recall"] == pytest.approx(means["recall@1000"])
    assert rows[0]["map"] == pytest.approx(means["map"])


def test_grid_sweep_is_order_independent(fixture_config):
    grid = {"eta": [1.0, 3.0], "m_window": [0, 1]}
    rows_a = grid_search(fixture_config, "hqe", grid)
    rows_b = grid_search(fixture_config, "hqe", {"m_window": [1, 0], "eta": [3.0, 1.0]})
    assert rows_a == rows_b
    assert len(rows_a) == 4


def test_grid_rejects_untunable_parameters(fixture_config):
    with pytest.raises(ValueError, match="no grid parameters"):
        grid_search(fixture_config, "raw", {"m_window": [1]})
    with pytest.raises(ValueError, match="not tunable"):
        grid_search(fixture_config, "hqe", {"k1": [0.5]})


def test_grid_rejects_a_fractional_window(fixture_config):
    with pytest.raises(ValueError, match=r"grid: m_window must be an integer, got 1\.5"):
        grid_search(fixture_config, "hqe", {"m_window": [1.0, 1.5]})
    with pytest.raises(ValueError, match=r"grid: m_window must be an integer, got 2\.5"):
        grid_search(fixture_config, "concat-pos", {"m_window": [2.5]})


def test_grid_rejects_a_bad_point_before_building_the_index(fixture_config):
    with pytest.raises(ValueError, match="m_window must be >= 0, got -1"):
        grid_search(fixture_config, "concat-pos", {"m_window": [1, -1]})
    with pytest.raises(ValueError, match=r"r_topic \(1\.9\) must exceed r_sub \(2\.0\)"):
        grid_search(fixture_config, "hqe", {"r_sub": [1.0, 2.0]})
    assert not (fixture_config.output_dir / "cache").exists()


def test_unanswerable_turn_stays_deterministic_across_cache_reuse(tmp_path):
    # a judged turn that retrieves nothing must evaluate identically on a
    # cold run (empty list in memory) and a warm run (qid absent from the
    # cached run file)
    (tmp_path / "corpus.tsv").write_text("d1\talpha beta\nd2\tgamma delta\n", encoding="utf-8")
    (tmp_path / "topics.json").write_text(
        '[{"number": 1, "turn": [{"number": 1, "raw_utterance": "alpha"},'
        '{"number": 2, "raw_utterance": "zzz qqq"}]}]',
        encoding="utf-8",
    )
    (tmp_path / "qrels.txt").write_text("1_1 0 d1 1\n1_2 0 d2 1\n", encoding="utf-8")
    (tmp_path / "config.yaml").write_text(
        "corpus: corpus.tsv\ntopics: topics.json\nqrels: qrels.txt\noutput_dir: out\n"
        "methods:\n  - name: raw\n    type: raw\n",
        encoding="utf-8",
    )
    config = load_config(tmp_path / "config.yaml")
    run_experiment(config)
    cold = (config.output_dir / "metrics.csv").read_bytes()
    run_experiment(config)
    warm = (config.output_dir / "metrics.csv").read_bytes()
    assert cold == warm
    assert b"1_2" not in cold  # the empty turn is not an evaluated query


def test_window_expansion_recovers_subtopic_document(tmp_path):
    # A relevant doc is reachable only through a subtopic keyword from the
    # previous turn, so m_window=1 must beat m_window=0 on recall.
    corpus = [
        ("dR", "radio interference patterns disturb receivers"),
        ("dX", "quasar star catalog entries"),
        ("d1", "radio towers broadcast music daily"),
        ("d2", "bread baking requires patience and flour"),
        ("d3", "garden snails move slowly at dusk"),
        ("d4", "chess openings repay careful study"),
        ("d5", "rivers carve canyons over millennia"),
        ("d6", "pottery kilns reach high temperatures"),
    ]
    (tmp_path / "corpus.tsv").write_text(
        "".join(f"{d}\t{t}\n" for d, t in corpus), encoding="utf-8"
    )
    topics = (
        '[{"number": 1, "turn": ['
        '{"number": 1, "raw_utterance": "radio quasar survey"},'
        '{"number": 2, "raw_utterance": "tell me more"}]}]'
    )
    (tmp_path / "topics.json").write_text(topics, encoding="utf-8")
    (tmp_path / "qrels.txt").write_text("1_1 0 dX 1\n1_2 0 dR 1\n", encoding="utf-8")
    (tmp_path / "config.yaml").write_text(
        "corpus: corpus.tsv\ntopics: topics.json\nqrels: qrels.txt\noutput_dir: out\n"
        "methods:\n  - name: hqe\n    type: hqe\n"
        "    hqe: {r_topic: 1.9, r_sub: 1.2, eta: 3.0, m_window: 1}\n",
        encoding="utf-8",
    )
    config = load_config(tmp_path / "config.yaml")
    rows = grid_search(config, "hqe", {"m_window": [0, 1]})
    by_window = {row["m_window"]: row["recall"] for row in rows}
    assert by_window[1] > by_window[0]


# -- the paper's analyzer ---------------------------------------------------------


PAPER_ANALYZER = TokenizerConfig(stem=True, remove_stopwords=True)


def _paper_analyzer_experiment(tmp_path):
    """Run a copy of the fixtures under the Lucene-style analyzer (stopwords
    removed, then Porter stemming) with the fixture POS file, adding an
    hqe-pos method at the hqe method's thresholds. scores.tsv covers only
    the default analyzer's runs, so nothing is reranked or fused."""
    config, _ = _copy_fixtures(tmp_path)
    raw = yaml.safe_load(config.read_text(encoding="utf-8"))
    methods = [{k: v for k, v in m.items() if k != "rerank_scores"} for m in raw["methods"]]
    hqe = next(m for m in methods if m["type"] == "hqe")
    methods.append({"name": "hqe-pos", "type": "hqe-pos", "hqe": hqe["hqe"],
                    "pos_annotations": "pos.jsonl"})
    cfg = load_config(config, {"tokenizer": PAPER_ANALYZER.to_dict(), "methods": methods,
                               "fusion": None})
    run_experiment(cfg)
    return cfg


def test_pos_methods_run_under_the_paper_analyzer(tmp_path):
    """POS tags follow the plain tokens, stopwords included, whatever the
    index's analyzer drops."""
    cfg = _paper_analyzer_experiment(tmp_path)
    runs = sorted(p.name for p in (cfg.output_dir / "runs").iterdir())
    assert runs == ["concat-pos.run", "hqe-pos.run", "hqe.run", "raw.run", "t5.run"]


def test_concat_pos_rewrites_match_reformulate_under_the_paper_analyzer(tmp_path):
    cfg = _paper_analyzer_experiment(tmp_path)
    out = tmp_path / "concat-pos.tsv"
    assert cli_main(["reformulate", "--method", "concat-pos", "--topics", str(tmp_path / "topics.json"),
                     "--pos", str(tmp_path / "pos.jsonl"), "--m-window", "2", "--out", str(out)]) == 0
    assert (cfg.output_dir / "rewrites" / "concat-pos.tsv").read_bytes() == out.read_bytes()


def test_hqe_pos_queries_match_the_oracle_under_the_paper_analyzer(tmp_path):
    """The oracle expands the analyzed turns over the analyzed corpus; a term
    is eligible when the plain token it comes from is tagged NOUN or ADJ."""
    cfg = _paper_analyzer_experiment(tmp_path)
    hqe = next(m for m in cfg.methods if m.name == "hqe-pos").hqe
    docs = {p.doc_id: PAPER_ANALYZER(p.text) for p in load_passages(tmp_path / "corpus.tsv")}
    tags = {json.loads(line)["qid"]: json.loads(line)["tags"]
            for line in (tmp_path / "pos.jsonl").read_text(encoding="utf-8").splitlines()}
    got = load_external_rewrites(cfg.output_dir / "rewrites" / "hqe-pos.tsv", PAPER_ANALYZER)
    expanded = 0
    for session in load_sessions(tmp_path / "topics.json"):
        turns, eligible = [], []
        for utt in session.utterances:
            words = tokenize(utt.raw_text)
            kept = [(w, tag) for w, tag in zip(words, tags[utt.qid], strict=True) if PAPER_ANALYZER(w)]
            turns.append([t for w, _ in kept for t in PAPER_ANALYZER(w)])
            eligible.append([tag in ("NOUN", "ADJ") for _, tag in kept])
            assert turns[-1] == PAPER_ANALYZER(utt.raw_text)
            want = oracles.hqe_expand(docs, turns, cfg.bm25.k1, cfg.bm25.b, hqe.r_topic, hqe.r_sub,
                                      hqe.eta, hqe.m_window, eligible)
            assert list(got[utt.qid].tokens) == want, utt.qid
            expanded += len(want) > len(turns[-1])
    assert expanded >= 2
