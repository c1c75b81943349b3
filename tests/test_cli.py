import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from convpr.cli import main
from convpr.fusion import RrfParams, fuse_runs, load_rerank_scores, rerank_run
from convpr.runs import read_run, write_run

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture()
def workdir(tmp_path):
    for name in ("corpus.tsv", "topics.json", "qrels.txt", "t5.tsv", "pos.jsonl",
                 "scores.tsv", "config.yaml"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    return tmp_path


def _run(*argv):
    return main([str(a) for a in argv])


def test_full_cli_walkthrough(workdir, capsys):
    idx = workdir / "idx"
    assert _run("index", "build", "--input", workdir / "corpus.tsv", "--format", "tsv",
                "--output", idx) == 0
    assert (idx / "meta.json").exists()

    rewrites = workdir / "hqe.tsv"
    assert _run("reformulate", "--method", "hqe", "--topics", workdir / "topics.json",
                "--index", idx, "--out", rewrites,
                "--r-topic", "1.9", "--r-sub", "1.3", "--eta", "3.0", "--m-window", "1") == 0
    assert rewrites.read_text().startswith("7_1\t")

    run_path = workdir / "hqe.run"
    assert _run("retrieve", "--index", idx, "--queries", rewrites, "--out", run_path,
                "--k", "50") == 0
    run = read_run(run_path)
    assert set(run) == {"7_1", "7_2", "7_3", "9_1", "9_2"}

    raw_rewrites = workdir / "raw.tsv"
    raw_run = workdir / "raw.run"
    assert _run("reformulate", "--method", "raw", "--topics", workdir / "topics.json",
                "--out", raw_rewrites) == 0
    assert _run("retrieve", "--index", idx, "--queries", raw_rewrites, "--out", raw_run) == 0

    fused = workdir / "fused.run"
    assert _run("fuse", "--runs", run_path, raw_run, "--out", fused, "--k", "60") == 0
    assert read_run(fused)

    reranked = workdir / "reranked.run"
    assert _run("rerank", "--run", run_path, "--scores", workdir / "scores.tsv",
                "--out", reranked) == 0
    assert read_run(reranked)["7_1"].doc_set() == run["7_1"].doc_set()

    t5_run = workdir / "t5.run"
    assert _run("retrieve", "--index", idx, "--queries", workdir / "t5.tsv",
                "--out", t5_run) == 0
    # early fusion: fuse the first-stage runs, then rerank the fused run once
    fused_t5 = workdir / "fused_t5.run"
    assert _run("fuse", "--runs", run_path, t5_run, "--out", fused_t5) == 0
    early = workdir / "early.run"
    assert _run("rerank", "--run", fused_t5, "--scores", workdir / "scores.tsv",
                "--out", early, "--tag", "early-fusion") == 0
    # late fusion: fuse runs that are already reranked
    late = workdir / "late.run"
    assert _run("fuse", "--runs", reranked, t5_run, "--out", late, "--tag", "late-fusion") == 0
    assert read_run(early)["7_2"].doc_set() == read_run(late)["7_2"].doc_set()
    # the two commands write what the library's fuse_runs then rerank_run gives
    expected = workdir / "expected.run"
    write_run(expected, rerank_run(
        fuse_runs([read_run(run_path), read_run(t5_run)], RrfParams(k=60.0), 1000),
        load_rerank_scores(workdir / "scores.tsv"),
    ), tag="early-fusion")
    assert expected.read_bytes() == early.read_bytes()
    # scores that miss a fused pair are a validation error
    partial = workdir / "partial.tsv"
    partial.write_text("7_1\tnope\t1.0\n", encoding="utf-8")
    assert _run("rerank", "--run", fused_t5, "--scores", partial,
                "--out", workdir / "y.run") == 1

    assert _run("eval", "--run", run_path, "--qrels", workdir / "qrels.txt",
                "--metrics", "map,ndcg@3,recall@1000", "--per-query") == 0
    out = capsys.readouterr().out
    assert "all" in out and "map" in out

    assert _run("compare", "--run-a", run_path, "--run-b", raw_run,
                "--qrels", workdir / "qrels.txt", "--metric", "recall@1000") == 0
    out = capsys.readouterr().out
    assert "win/tie/loss" in out and "paired t-test" in out

    assert _run("analyze", "jaccard", "--run-a", run_path, "--run-b", raw_run) == 0
    assert _run("analyze", "jaccard", "--run", run_path, "--adjacent") == 0
    assert _run("analyze", "bleu", "--hypotheses", rewrites,
                "--references", workdir / "t5.tsv") == 0
    out = capsys.readouterr().out
    assert "corpus BLEU" in out


def test_experiment_and_grid_subcommands(workdir, capsys):
    assert _run("experiment", "--config", workdir / "config.yaml",
                "--output-dir", workdir / "out") == 0
    out = capsys.readouterr().out
    assert "config hash" in out
    assert (workdir / "out" / "metrics.csv").exists()

    table = workdir / "grid.tsv"
    assert _run("grid", "--config", workdir / "config.yaml", "--method", "hqe",
                "--param", "m_window=0,1", "--set", f"output_dir={workdir / 'out'}",
                "--out", table) == 0
    lines = table.read_text().splitlines()
    assert lines[0] == "m_window\trecall\tmap"
    assert len(lines) == 3


def test_verbose_flag_accepted_after_subcommand(workdir, capsys):
    assert _run("experiment", "-v", "--config", workdir / "config.yaml",
                "--output-dir", workdir / "out") == 0
    assert "config hash" in capsys.readouterr().out
    assert _run("index", "build", "--input", workdir / "corpus.tsv",
                "--output", workdir / "idx", "--verbose") == 0
    assert _run("-v", "index", "-v", "build", "--input", workdir / "corpus.tsv",
                "--output", workdir / "idx2") == 0


def test_jsonl_index_build(tmp_path):
    src = tmp_path / "c.jsonl"
    src.write_text('{"id": "d1", "contents": "alpha beta"}\n', encoding="utf-8")
    assert _run("index", "build", "--input", src, "--format", "jsonl",
                "--output", tmp_path / "idx") == 0


def test_validation_failures_exit_1(workdir, tmp_path, capsys):
    # missing input file
    assert _run("retrieve", "--index", tmp_path / "noidx", "--queries",
                workdir / "t5.tsv", "--out", tmp_path / "x.run") == 1
    # malformed data named with its line number
    bad = tmp_path / "bad.tsv"
    bad.write_text("no tab\n", encoding="utf-8")
    assert _run("index", "build", "--input", bad, "--format", "tsv",
                "--output", tmp_path / "idx") == 1
    # hqe without an index
    assert _run("reformulate", "--method", "hqe", "--topics", workdir / "topics.json",
                "--out", tmp_path / "r.tsv") == 1
    # config referencing an unknown method type
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(
        "corpus: missing.tsv\ntopics: t.json\nqrels: q.txt\noutput_dir: out\n"
        "methods: [{name: x, type: raw}]\n",
        encoding="utf-8",
    )
    assert _run("experiment", "--config", cfg) == 1
    # analyze jaccard without the runs it compares
    assert _run("analyze", "jaccard", "--run-a", workdir / "t5.tsv") == 1
    assert _run("analyze", "jaccard", "--adjacent") == 1
    # a fractional depth or window is an error, not truncated
    assert _run("experiment", "--config", workdir / "config.yaml",
                "--output-dir", tmp_path / "out", "--set", "depth=10.5") == 1
    assert "depth must be an integer" in capsys.readouterr().err
    assert _run("grid", "--config", workdir / "config.yaml", "--method", "hqe",
                "--param", "m_window=1,1.5", "--set", f"output_dir={tmp_path / 'out'}") == 1
    assert "m_window must be an integer, got 1.5" in capsys.readouterr().err
    # a negative window is rejected before anything is built or written
    neg = workdir / "neg.yaml"
    neg.write_text((workdir / "config.yaml").read_text().replace("m_window: 2\n", "m_window: -1\n"))
    assert _run("experiment", "--config", neg) == 1
    assert "m_window must be >= 0, got -1" in capsys.readouterr().err
    assert not (workdir / "out").exists()
    assert _run("reformulate", "--method", "concat", "--topics", workdir / "topics.json",
                "--m-window", "-1", "--out", tmp_path / "r.tsv") == 1
    assert "m_window must be >= 0, got -1" in capsys.readouterr().err
    for method, param in (("concat-pos", "m_window=1,-1"), ("hqe", "r_sub=1.0,2.5")):
        assert _run("grid", "--config", workdir / "config.yaml", "--method", method,
                    "--param", param, "--set", f"output_dir={tmp_path / 'grid'}") == 1
    assert "r_topic (1.9) must exceed r_sub (2.5)" in capsys.readouterr().err
    assert not (tmp_path / "grid").exists()
    # an index directory whose arrays disagree is a validation error
    idx = tmp_path / "damaged"
    assert _run("index", "build", "--input", workdir / "corpus.tsv", "--output", idx) == 0
    doc_ords = np.load(idx / "doc_ords.npy")
    doc_ords[-1] = len(np.load(idx / "doc_lengths.npy"))
    np.save(idx / "doc_ords.npy", doc_ords)
    assert _run("retrieve", "--index", idx, "--queries", workdir / "t5.tsv",
                "--out", tmp_path / "x.run") == 1
    assert "doc_ords.npy holds an ordinal outside" in capsys.readouterr().err
    # a NaN score in a run or a rerank-score file, named with its line
    run = tmp_path / "nan.run"
    run.write_text("7_1 Q0 d1 1 2.0 t\n7_1 Q0 d2 2 nan t\n", encoding="utf-8")
    assert _run("eval", "--run", run, "--qrels", workdir / "qrels.txt") == 1
    assert "nan.run:2: qid 7_1: score is NaN" in capsys.readouterr().err
    scores = tmp_path / "nan.tsv"
    scores.write_text("7_1\td1\t-nan\n", encoding="utf-8")
    good = tmp_path / "good.run"
    good.write_text("7_1 Q0 d1 1 2.0 t\n", encoding="utf-8")
    assert _run("rerank", "--run", good, "--scores", scores, "--out", tmp_path / "x.run") == 1
    assert "nan.tsv:1: score is NaN" in capsys.readouterr().err
    # a depth below 1, a non-finite k1 or RRF k, a BLEU order below 1 and a
    # negative tie epsilon each fail instead of changing the result
    idx, run = tmp_path / "idx", tmp_path / "t5.run"
    assert _run("index", "build", "--input", workdir / "corpus.tsv", "--output", idx) == 0
    assert _run("retrieve", "--index", idx, "--queries", workdir / "t5.tsv", "--out", run) == 0
    capsys.readouterr()
    qrels, out = workdir / "qrels.txt", tmp_path / "bad.run"
    reformulate = ("reformulate", "--method", "hqe", "--topics", workdir / "topics.json",
                   "--index", idx, "--out", out)
    grid = ("grid", "--config", workdir / "config.yaml", "--method", "hqe",
            "--set", f"output_dir={tmp_path / 'grid'}")

    def method(name):
        return ("reformulate", "--method", name, "--topics", workdir / "topics.json", "--out", out)

    concat = method("concat")
    cases = [
        (("eval", "--run", run, "--qrels", qrels, "--depth", "-1"), "depth must be >= 1, got -1"),
        (("fuse", "--runs", run, run, "--out", out, "--depth", "-2"),
         "fusion depth must be >= 1, got -2"),
        (("fuse", "--runs", run, "--out", out, "--depth", "0"), "fusion depth must be >= 1, got 0"),
        (("analyze", "jaccard", "--run-a", run, "--run-b", run, "--depth", "0"),
         "depth must be >= 1, got 0"),
        (("analyze", "jaccard", "--run", run, "--adjacent", "--depth", "0"),
         "depth must be >= 1, got 0"),
        (("grid", "--config", workdir / "config.yaml", "--method", "hqe", "--param", "eta=3",
          "--depth", "0", "--set", f"output_dir={tmp_path / 'grid'}"),
         "grid: depth must be >= 1, got 0"),
        (("retrieve", "--index", idx, "--queries", workdir / "t5.tsv", "--out", out,
          "--k1", "nan"), "k1 must be finite and >= 0, got nan"),
        (("retrieve", "--index", idx, "--queries", workdir / "t5.tsv", "--out", out,
          "--k1", "inf"), "k1 must be finite and >= 0, got inf"),
        (("experiment", "--config", workdir / "config.yaml", "--output-dir", tmp_path / "exp",
          "--set", "bm25.k1=.nan"), "k1 must be finite and >= 0, got nan"),
        (("fuse", "--runs", run, run, "--out", out, "--k", "inf"),
         "rrf k must be finite and > 0, got inf"),
        (("analyze", "bleu", "--hypotheses", workdir / "t5.tsv", "--references",
          workdir / "t5.tsv", "--max-order", "0"), "max_order must be >= 1, got 0"),
        (("compare", "--run-a", run, "--run-b", run, "--qrels", qrels, "--tie-eps", "-1"),
         "tie epsilon must be >= 0, got -1"),
        # a NaN eta would switch HQE's subtopic branch off without a word
        ((*reformulate, "--eta", "nan"), "eta must be finite, got nan"),
        ((*reformulate, "--r-topic", "inf"), "r_topic must be finite, got inf"),
        ((*reformulate, "--r-sub=-inf"), "r_sub must be finite, got -inf"),
        ((*grid, "--param", "eta=nan"), "eta must be finite, got nan"),
        # an empty value list would sweep nothing and print a bare header
        ((*grid, "--param", "eta="), "grid: parameter 'eta' has no values"),
        ((*grid, "--param", "eta=3", "--param", "r_sub=,"), "grid: parameter 'r_sub' has no values"),
        # a flag that the method would ignore
        ((*concat, "--eta", "5"), "reformulate (concat): 'hqe' is only read by type hqe or hqe-pos"),
        ((*concat, "--hqe-preset", "rerank"), "'hqe' is only read by type hqe or hqe-pos"),
        ((*reformulate, "--pos", workdir / "pos.jsonl"),
         "reformulate (hqe): 'pos_annotations' is only read by type concat-pos or hqe-pos"),
        (("reformulate", "--method", "raw", "--topics", workdir / "topics.json", "--out", out,
          "--m-window", "4"), "reformulate (raw): 'm_window' is only read by type concat or concat-pos"),
        # an index or BM25 flag for a method that reads no index
        ((*method("raw"), "--index", idx),
         "reformulate (raw): --index is only read by method hqe or hqe-pos"),
        ((*concat, "--k1", "0.9"), "reformulate (concat): --k1 is only read by method hqe or hqe-pos"),
        ((*method("concat-pos"), "--b", "0.5"),
         "reformulate (concat-pos): --b is only read by method hqe or hqe-pos"),
        ((*method("external"), "--rewrites", workdir / "t5.tsv", "--index", idx),
         "reformulate (external): --index is only read by method hqe or hqe-pos"),
        # a -pos method without annotations would run as its plain type
        (method("concat-pos"), "reformulate (concat-pos): concat-pos needs 'pos_annotations'"),
        ((*method("hqe-pos"), "--index", idx),
         "reformulate (hqe-pos): hqe-pos needs 'pos_annotations'"),
        # a run flag that the jaccard mode would ignore
        (("analyze", "jaccard", "--run-a", run, "--run-b", run, "--run", tmp_path / "nonexistent.run"),
         "analyze jaccard: --run is only read with --adjacent"),
        (("analyze", "jaccard", "--adjacent", "--run", run, "--run-a", tmp_path / "nonexistent"),
         "analyze jaccard: --run-a is only read without --adjacent"),
        (("analyze", "jaccard", "--adjacent", "--run", run, "--run-b", run),
         "analyze jaccard: --run-b is only read without --adjacent"),
    ]
    for argv, message in cases:
        assert _run(*argv) == 1, argv
        err = capsys.readouterr().err
        assert message in err and "internal error" not in err, (argv, err)
    assert not out.exists()
    assert not (tmp_path / "grid").exists() and not (tmp_path / "exp").exists()


def test_malformed_topic_and_passage_files_exit_1(tmp_path, capsys):
    topics, rewrites = tmp_path / "topics.json", tmp_path / "r.tsv"
    for text, message in (
        ('[{"number": 1, "turn": [{"number": 1}]}]', "turn 1 must be an object with"),
        ("[5]", "sessions must be objects with 'number' and 'turn'"),
        ('[{"number": 1, "turn": [5]}]', "turn 1 must be an object with"),
        ('[{"number": 1, "turn": {"number": 1, "raw_utterance": "x"}}]',
         "session 1: 'turn' must be a JSON array"),
        ('[{"number": 1, "turn": [{"number": [1], "raw_utterance": "x"}]}]',
         "turn 1 has number [1], not an integer"),
        ('[{"number": 1, "turn": [{"number": 1, "raw_utterance": null}]}]',
         "session 1: turn 1 has raw_utterance None, not a string"),
        ('[{"number": true, "turn": [{"number": 1, "raw_utterance": "x"}]}]',
         "session number must be a string or an integer, got True"),
    ):
        topics.write_text(text, encoding="utf-8")
        assert _run("reformulate", "--method", "raw", "--topics", topics, "--out", rewrites) == 1
        err = capsys.readouterr().err
        assert f"error: {topics}: " in err and message in err and "internal error" not in err, text
    passages = tmp_path / "p.jsonl"
    for row in ("5", '"id contents"', "[1, 2]", "null"):
        passages.write_text('{"id": "d1", "contents": "x"}\n' + row + "\n", encoding="utf-8")
        assert _run("index", "build", "--input", passages, "--format", "jsonl",
                    "--output", tmp_path / "idx") == 1
        err = capsys.readouterr().err
        assert f"error: {passages}:2: expected an object with 'id' and 'contents'" in err, row
    for row, message in (('{"id": null, "contents": "x"}', "id must be a string or an integer"),
                         ('{"id": "d2", "contents": null}', "contents must be a string")):
        passages.write_text('{"id": "d1", "contents": "x"}\n' + row + "\n", encoding="utf-8")
        assert _run("index", "build", "--input", passages, "--format", "jsonl",
                    "--output", tmp_path / "idx") == 1
        err = capsys.readouterr().err
        assert f"error: {passages}:2: {message}" in err and "internal error" not in err, row
    pos = tmp_path / "pos.jsonl"
    pos.write_text('{"qid": "1_1", "tags": [null]}\n', encoding="utf-8")
    topics.write_text('[{"number": 1, "turn": [{"number": 1, "raw_utterance": "x"}]}]',
                      encoding="utf-8")
    assert _run("reformulate", "--method", "concat-pos", "--topics", topics, "--pos", pos,
                "--out", rewrites) == 1
    err = capsys.readouterr().err
    assert f"error: {pos}:1: tags must be a list of strings, got [None]" in err, err
    assert not rewrites.exists() and not (tmp_path / "idx").exists()


def test_damaged_keyword_cache_entry_exits_1_naming_it(workdir, tmp_path, capsys):
    out = tmp_path / "out"
    argv = ("experiment", "--config", workdir / "config.yaml", "--output-dir", out)
    assert _run(*argv) == 0
    (ke_path,) = (out / "cache").glob("ke-*.json")
    for text in ('{"quasar": "x"}', "[1, 2]", '{"quasar": 2.5', '{"quasar": 0.0}',
                 '{"quasar": NaN}'):
        ke_path.write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert _run(*argv) == 1, text
        err = capsys.readouterr().err
        assert f"error: {ke_path}: damaged keyword-extractor cache entry (it may be deleted)" in err, err
    ke_path.unlink()
    assert _run(*argv) == 0


def test_damaged_index_meta_and_quoted_tokenizer_flags_exit_1(workdir, tmp_path, capsys):
    idx = tmp_path / "idx"
    assert _run("index", "build", "--input", workdir / "corpus.tsv", "--output", idx) == 0
    meta_path = idx / "meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    avg_doc_len = meta.pop("avg_doc_len")
    meta_path.write_text(json.dumps(meta), encoding="utf-8")
    assert _run("retrieve", "--index", idx, "--queries", workdir / "t5.tsv",
                "--out", tmp_path / "x.run") == 1
    assert "meta.json lacks 'avg_doc_len'" in capsys.readouterr().err
    meta["avg_doc_len"] = None
    meta_path.write_text(json.dumps(meta), encoding="utf-8")
    assert _run("retrieve", "--index", idx, "--queries", workdir / "t5.tsv",
                "--out", tmp_path / "x.run") == 1
    err = capsys.readouterr().err
    assert f"{idx}: meta.json avg_doc_len must be a number, got None" in err and "internal error" not in err
    meta["avg_doc_len"], meta["tokenizer"] = avg_doc_len, "stem"
    meta_path.write_text(json.dumps(meta), encoding="utf-8")
    assert _run("retrieve", "--index", idx, "--queries", workdir / "t5.tsv",
                "--out", tmp_path / "x.run") == 1
    err = capsys.readouterr().err
    assert f"{idx}: tokenizer must be a mapping" in err and "internal error" not in err
    # bool("false") is True: a quoted flag must not build a stemmed index
    assert _run("experiment", "--config", workdir / "config.yaml", "--output-dir",
                tmp_path / "out", "--set", "tokenizer.stem='false'") == 1
    assert "tokenizer.stem must be true or false, got 'false'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bad_usage_exits_1():
    with pytest.raises(SystemExit) as exc:
        _run("retrieve", "--nonsense")
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        _run("no-such-command")
    assert exc.value.code == 1


def test_retrieve_rejects_a_query_qid_that_is_not_one_token(workdir, tmp_path, capsys):
    # Such a qid would be written as zero or two columns of the run file.
    idx, run, queries = tmp_path / "idx", tmp_path / "r.run", tmp_path / "q.tsv"
    assert _run("index", "build", "--input", workdir / "corpus.tsv", "--output", idx) == 0
    for qid in ("a b", ""):
        queries.write_text(f"{qid}\tWhat is a quasar?\n", encoding="utf-8")
        assert _run("retrieve", "--index", idx, "--queries", queries, "--out", run) == 1
        assert f"q.tsv:1: qid {qid!r} is empty or has whitespace" in capsys.readouterr().err
        assert not run.exists()


def test_eval_csv_quotes_a_qid_with_a_comma(tmp_path):
    run, qrels, out = tmp_path / "c.run", tmp_path / "q.txt", tmp_path / "m.csv"
    run.write_text("7,1_1 Q0 d1 1 2.0 t\n", encoding="utf-8")
    qrels.write_text("7,1_1 0 d1 1\n", encoding="utf-8")
    assert _run("eval", "--run", run, "--qrels", qrels, "--metrics", "map", "--csv", out) == 0
    assert out.read_bytes() == b'run,qid,map\nc,"7,1_1",1.000000\nc,all,1.000000\n'


def test_external_reformulate_requires_rewrites(workdir, tmp_path):
    assert _run("reformulate", "--method", "external", "--topics", workdir / "topics.json",
                "--out", tmp_path / "r.tsv") == 1
    assert _run("reformulate", "--method", "external", "--topics", workdir / "topics.json",
                "--rewrites", workdir / "t5.tsv", "--out", tmp_path / "r.tsv") == 0


def test_index_build_does_not_depend_on_the_hash_seed(tmp_path):
    # String hashing is salted per process; no set or dict order that
    # depends on it may reach term ids or any other file of the index.
    src = str(Path(__file__).parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    for seed in ("1", "2"):
        subprocess.run(
            [sys.executable, "-m", "convpr.cli", "index", "build",
             "--input", str(FIXTURES / "corpus.tsv"), "--output", str(tmp_path / seed)],
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            check=True, capture_output=True, timeout=120,
        )
    files = sorted(p.name for p in (tmp_path / "1").iterdir())
    assert "docid_rank.npy" in files
    assert files == sorted(p.name for p in (tmp_path / "2").iterdir())
    for name in files:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


_SCIPY_GUARD = """
import sys

import convpr, convpr.cli
from convpr.evaluation import evaluate_run, load_qrels, paired_t_test
from convpr.runs import read_run


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


fixtures, work = sys.argv[1:]
idx, qrels = f"{work}/idx", f"{fixtures}/qrels.txt"
for argv in (
    ["index", "build", "--input", f"{fixtures}/corpus.tsv", "--output", idx],
    ["retrieve", "--index", idx, "--queries", f"{fixtures}/t5.tsv", "--out", f"{work}/a.run"],
    ["retrieve", "--index", idx, "--queries", f"{fixtures}/t5.tsv", "--out", f"{work}/b.run",
     "--k", "2"],
    ["eval", "--run", f"{work}/a.run", "--qrels", qrels],
    ["experiment", "--config", f"{fixtures}/config.yaml", "--output-dir", f"{work}/exp"],
):
    assert convpr.cli.main(argv) == 0, argv
    assert not scipy_modules(), (argv, scipy_modules())
assert convpr.cli.main(
    ["compare", "--run-a", f"{work}/a.run", "--run-b", f"{work}/b.run", "--qrels", qrels]
) == 0
assert "scipy.stats" in sys.modules

from scipy.stats import t as student_t

reports = [evaluate_run(read_run(f"{work}/{n}.run"), load_qrels(qrels), ("map",)) for n in "ab"]
a, b = ([r.per_query["map"][q] for q in reports[0].qids] for r in reports)
t_stat, p = paired_t_test(a, b)
assert t_stat != 0.0 and p == 2.0 * float(student_t.sf(abs(t_stat), len(a) - 1)), (t_stat, p)
print(f"paired t-test: t={t_stat:.4f}, p={p:.6f}")
"""


def test_scipy_is_imported_only_by_the_t_test(tmp_path):
    # scipy.stats is most of convpr's import time and memory; only the
    # paired t-test of `compare` may load it, and it must still compute p.
    src = str(Path(__file__).parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_GUARD, str(FIXTURES), str(tmp_path)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    # the CLI printed the same t and p as the library call checked above
    assert lines[-1] in lines[:-1], done.stdout
