import shutil
from pathlib import Path

import pytest
import yaml

from convpr.evaluation import evaluate_run, load_qrels
from convpr.experiment import grid_search, load_config, run_experiment
from convpr.runs import read_run

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


def test_warm_rerun_reuses_ke_cache(fixture_config, monkeypatch):
    """A second run takes every keyword-extractor score from ke-*.json and
    leaves that file untouched."""
    from convpr import _bm25, experiment

    calls = []
    real = _bm25.max_posting_score

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(_bm25, "max_posting_score", counting)
    run_experiment(fixture_config)
    assert calls
    (ke_path,) = (fixture_config.output_dir / "cache").glob("ke-*.json")
    cold = ke_path.read_bytes()

    calls.clear()
    real_write = experiment._write_atomically
    written = []

    def recording(path, write):
        written.append(path)
        real_write(path, write)

    monkeypatch.setattr(experiment, "_write_atomically", recording)
    run_experiment(fixture_config)
    grid_search(fixture_config, "hqe", {"eta": [3.0]})
    assert calls == []
    assert ke_path not in written
    assert ke_path.read_bytes() == cold


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


def test_edited_topics_are_not_served_stale_runs(tmp_path):
    """Every query comes from the topics, so they are part of every run key:
    after an utterance changes, a warm run gives the outputs of a cold one."""
    for name in ("config.yaml", "corpus.tsv", "topics.json", "qrels.txt", "pos.jsonl",
                 "scores.tsv", "t5.tsv"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    config, topics = tmp_path / "config.yaml", tmp_path / "topics.json"
    run_experiment(load_config(config, {"output_dir": "warm"}))
    before = (tmp_path / "warm" / "runs" / "raw.run").read_bytes()
    text = topics.read_text(encoding="utf-8")
    assert text.count("What about its glow?") == 1
    topics.write_text(text.replace("What about its glow?", "What about its jets?"), encoding="utf-8")
    run_experiment(load_config(config, {"output_dir": "warm"}))
    run_experiment(load_config(config, {"output_dir": "cold"}))
    assert (tmp_path / "warm" / "runs" / "raw.run").read_bytes() != before
    assert _outputs(tmp_path / "warm") == _outputs(tmp_path / "cold")
    assert len(list((tmp_path / "warm" / "cache").glob("run-*.run"))) == 8


def test_warm_run_holds_one_string_per_doc_id(fixture_config, monkeypatch):
    """The cached runs and the rerank scores of one experiment are read with
    one pool, so equal doc ids and qids across all of them are one object."""
    import convpr.experiment as experiment

    run_experiment(fixture_config)
    runs, scores = [], []
    real_read_run, real_load = experiment.read_run, experiment.load_rerank_scores

    def read_run(*args, **kwargs):
        runs.append(real_read_run(*args, **kwargs))
        return runs[-1]

    def load_rerank_scores(*args, **kwargs):
        scores.append(real_load(*args, **kwargs))
        return scores[-1]

    monkeypatch.setattr(experiment, "read_run", read_run)
    monkeypatch.setattr(experiment, "load_rerank_scores", load_rerank_scores)
    run_experiment(fixture_config)
    assert len(runs) == len(fixture_config.methods) and len(scores) == 1
    lists = [rl for run in runs for rl in run.values()]
    doc_ids = [d for rl in lists for d in rl.ids] + [d for by_doc in scores[0].values() for d in by_doc]
    qids = [rl.qid for rl in lists] + list(scores[0])
    for strings in (doc_ids, qids):
        assert len({id(s) for s in strings}) == len(set(strings)) < len(strings)


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
    caches = list((fixture_config.output_dir / "cache").glob("ke-*.json"))
    assert caches, "keyword-extractor cache not written"


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
