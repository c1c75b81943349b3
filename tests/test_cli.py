import io
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
    assert rewrites.read_text(encoding="utf-8").startswith("7_1\t")

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
    lines = table.read_text(encoding="utf-8").splitlines()
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
    # a config file or --set value that is not YAML
    capsys.readouterr()
    for text in (b"corpus: [a\n", b"corpus: \xff\n"):
        cfg.write_bytes(text)
        assert _run("experiment", "--config", cfg) == 1
        err = capsys.readouterr().err
        assert f"error: {cfg}: config is not valid YAML: " in err and "internal error" not in err, err
    for command in (("experiment",), ("grid", "--method", "hqe", "--param", "eta=3")):
        assert _run(*command, "--config", workdir / "config.yaml", "--set", "depth=[1") == 1
        err = capsys.readouterr().err
        assert "error: --set 'depth=[1': value is not valid YAML: " in err, (command, err)
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
    text = (workdir / "config.yaml").read_text(encoding="utf-8")
    neg.write_text(text.replace("m_window: 2\n", "m_window: -1\n"), encoding="utf-8")
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
    # an index directory changed since it was saved is a validation error
    idx = tmp_path / "damaged"
    assert _run("index", "build", "--input", workdir / "corpus.tsv", "--output", idx) == 0
    doc_ords = np.load(idx / "doc_ords.npy")
    doc_ords[-1] = len(np.load(idx / "doc_lengths.npy"))
    np.save(idx / "doc_ords.npy", doc_ords)
    assert _run("retrieve", "--index", idx, "--queries", workdir / "t5.tsv",
                "--out", tmp_path / "x.run") == 1
    assert f"{idx}: doc_ords.npy changed or damaged since save" in capsys.readouterr().err
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
          "--set", "depth=0", "--set", f"output_dir={tmp_path / 'grid'}"),
         "config: depth must be >= 1"),
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
        # a repeated name would sweep only its last values; a word is no value
        ((*grid, "--param", "eta=1", "--param", " eta=2"), "--param eta is given more than once"),
        ((*grid, "--param", "eta=abc"), "--param eta: every value must be a number, got 'abc'"),
        ((*grid, "--param", "r_sub=1.5", "--param", "eta=2,x"),
         "--param eta: every value must be a number, got '2,x'"),
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
        ('[{"number": 1, "turn": [', "topic file is not valid JSON: Expecting value: line 1"),
        (b'[{"number": 1, "turn": [{"number": 1, "raw_utterance": "\xff"}]}]',
         "topic file is not valid JSON: 'utf-8' codec can't decode byte 0xff"),
    ):
        topics.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
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


def test_pos_methods_check_the_current_turns_tags(workdir, tmp_path, capsys):
    pos = workdir / "pos.jsonl"
    rows = pos.read_text(encoding="utf-8").splitlines()
    rows[2] = '{"qid": "7_3", "tags": ["NOUN"]}'
    pos.write_text("\n".join(rows) + "\n", encoding="utf-8")
    idx = tmp_path / "idx"
    assert _run("index", "build", "--input", workdir / "corpus.tsv", "--output", idx) == 0
    capsys.readouterr()
    for method in ("concat-pos", "hqe-pos"):
        out = tmp_path / f"{method}.tsv"
        index = ("--index", idx) if method == "hqe-pos" else ()
        assert _run("reformulate", "--method", method, "--topics", workdir / "topics.json",
                    "--pos", pos, *index, "--out", out) == 1, method
        assert "qid '7_3': 1 tags for 7 tokens" in capsys.readouterr().err, method
        assert not out.exists()


def _npy(array, **kwargs) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array, **kwargs)
    return buf.getvalue()


def test_damaged_keyword_cache_entry_exits_1_naming_it(workdir, tmp_path, capsys):
    out = tmp_path / "out"
    argv = ("experiment", "--config", workdir / "config.yaml", "--output-dir", out)
    assert _run(*argv) == 0
    (ke_path,) = (out / "cache").glob("ke-*.npy")
    good = ke_path.read_bytes()
    scores = np.load(ke_path)

    def with_first(value):
        bad = scores.copy()
        bad[0] = value
        return _npy(bad)

    damaged = {
        "one score short": _npy(scores[:-1]),
        "float32": _npy(scores.astype(np.float32)),
        "int64": _npy(scores.astype(np.int64)),
        "NaN": with_first(np.nan),
        "inf": with_first(np.inf),
        "0.0": with_first(0.0),
        "negative": with_first(-1.5),
        "0 bytes": b"",
        "cut off": good[:-8],
        "pickled object array": _npy(scores.astype(object), allow_pickle=True),
    }
    for what, data in damaged.items():
        ke_path.write_bytes(data)
        capsys.readouterr()
        assert _run(*argv) == 1, what
        err = capsys.readouterr().err
        assert f"error: {ke_path}: damaged keyword-extractor cache entry (it may be deleted)" in err, err
        assert "internal error" not in err, err
    ke_path.unlink()
    assert _run(*argv) == 0
    assert ke_path.read_bytes() == good


def test_empty_or_cut_off_index_array_exits_1(workdir, tmp_path, capsys):
    # numpy would raise EOFError, not ValueError, for a 0-byte .npy file;
    # the digest check comes first.
    idx = tmp_path / "idx"
    assert _run("index", "build", "--input", workdir / "corpus.tsv", "--output", idx) == 0
    argv = ("retrieve", "--index", idx, "--queries", workdir / "t5.tsv", "--out", tmp_path / "x.run")
    for name, damage in (("term_groups", lambda data: b""), ("doc_ords", lambda data: data[:-3])):
        path = idx / f"{name}.npy"
        good = path.read_bytes()
        path.write_bytes(damage(good))
        capsys.readouterr()
        assert _run(*argv) == 1, name
        err = capsys.readouterr().err
        assert f"error: {idx}: {name}.npy changed or damaged since save" in err, err
        assert "internal error" not in err, err
        path.write_bytes(good)
    assert _run(*argv) == 0


def test_repeated_doc_ordinal_in_a_tf_group_exits_1(tmp_path, capsys):
    # A repeat would add one passage's contribution twice and drop another
    # passage from the term's list: d1 would score "cat" twice and d2 not at all.
    (tmp_path / "corpus.tsv").write_text("d1\tcat sat\nd2\tdog cat\nd3\tcat cat dog\n", encoding="utf-8")
    (tmp_path / "q.tsv").write_text("q1\tcat\n", encoding="utf-8")
    idx = tmp_path / "idx"
    assert _run("index", "build", "--input", tmp_path / "corpus.tsv", "--output", idx) == 0
    argv = ("retrieve", "--index", idx, "--queries", tmp_path / "q.tsv", "--out", tmp_path / "x.run")
    path = idx / "doc_ords.npy"
    good = np.load(path)
    # "cat" holds tf groups [d1 d2] (tf 1) and [d3] (tf 2), then "sat", "dog".
    assert good.tolist() == [0, 1, 2, 0, 1, 2]
    for bad in ([0, 0, 2, 0, 1, 2], [1, 0, 2, 0, 1, 2], [0, 1, 2, 0, 2, 2]):
        np.save(path, np.array(bad, dtype=good.dtype))
        capsys.readouterr()
        assert _run(*argv) == 1, bad
        err = capsys.readouterr().err
        assert f"error: {idx}: doc_ords.npy changed or damaged since save" in err, err
        assert "internal error" not in err
    np.save(path, good)
    assert _run(*argv) == 0


def test_doc_ordinal_repeated_across_tf_groups_exits_1(tmp_path, capsys):
    # Each group's ordinals still increase, but d1 is in both of "cat"'s tf
    # groups and d3 in none: d1 would score 0.3170 for "cat", not 0.1396,
    # and d3 would drop out. d1's postings hold 4 tokens, d3's 1.
    (tmp_path / "corpus.tsv").write_text("d1\tcat sat\nd2\tdog cat\nd3\tcat cat dog\n", encoding="utf-8")
    (tmp_path / "q.tsv").write_text("q1\tcat\n", encoding="utf-8")
    idx = tmp_path / "idx"
    assert _run("index", "build", "--input", tmp_path / "corpus.tsv", "--output", idx) == 0
    argv = ("retrieve", "--index", idx, "--queries", tmp_path / "q.tsv", "--out", tmp_path / "x.run")
    path = idx / "doc_ords.npy"
    good = np.load(path)
    np.save(path, np.array([0, 1, 0, 0, 1, 2], dtype=good.dtype))
    assert _run(*argv) == 1
    err = capsys.readouterr().err
    assert f"error: {idx}: doc_ords.npy changed or damaged since save" in err, err
    assert "internal error" not in err and not (tmp_path / "x.run").exists()
    np.save(path, good)
    assert _run(*argv) == 0


def test_swapped_doc_ordinals_exit_1(tmp_path, capsys):
    # "sat" holds d1 and "dog" d2, d3: swapping d1 and d2 there keeps every
    # group increasing and every passage's length sum, and would make
    # "sat" find d2.
    (tmp_path / "corpus.tsv").write_text("d1\tcat sat\nd2\tdog cat\nd3\tcat cat dog\n", encoding="utf-8")
    (tmp_path / "q.tsv").write_text("q1\tsat\n", encoding="utf-8")
    idx = tmp_path / "idx"
    assert _run("index", "build", "--input", tmp_path / "corpus.tsv", "--output", idx) == 0
    argv = ("retrieve", "--index", idx, "--queries", tmp_path / "q.tsv", "--out", tmp_path / "x.run")
    path = idx / "doc_ords.npy"
    ords = np.load(path)
    assert ords.tolist() == [0, 1, 2, 0, 1, 2]
    ords[[3, 4]] = ords[[4, 3]]
    np.save(path, ords)
    capsys.readouterr()
    assert _run(*argv) == 1
    err = capsys.readouterr().err
    assert f"error: {idx}: doc_ords.npy changed or damaged since save" in err, err
    assert "internal error" not in err and not (tmp_path / "x.run").exists()


def test_index_build_into_a_v4_directory_leaves_no_v4_arrays(workdir, tmp_path):
    # index build reuses its --output directory; the per-posting offsets.npy
    # and tfs.npy of layout v4, and the docid_rank.npy of v5, would stay
    # behind there as dead bytes.
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    reused.mkdir()
    (reused / "meta.json").write_text('{"format": "convpr.index", "version": 4}', encoding="utf-8")
    for name in ("offsets.npy", "tfs.npy", "docid_rank.npy", "doc_ords.npy"):
        np.save(reused / name, np.arange(5, dtype=np.uint8))
    for out in (fresh, reused):
        assert _run("index", "build", "--input", workdir / "corpus.tsv", "--output", out) == 0
    files = sorted(p.name for p in fresh.iterdir())
    assert not {"tfs.npy", "offsets.npy", "docid_rank.npy"} & set(files)
    assert sorted(p.name for p in reused.iterdir()) == files
    assert all((reused / name).read_bytes() == (fresh / name).read_bytes() for name in files)


def test_damaged_evaluation_cache_entry_exits_1_naming_it(workdir, tmp_path, capsys):
    out = tmp_path / "out"
    argv = ("experiment", "--config", workdir / "config.yaml", "--output-dir", out)
    assert _run(*argv) == 0
    entry_path = sorted((out / "cache").glob("eval-*.json"))[0]
    good = entry_path.read_text(encoding="utf-8")
    entry = json.loads(good)

    def edited(**changes):
        return json.dumps({**entry, **changes})

    qids, values = entry["qids"], entry["values"]
    for text in (
        good[:-10],
        edited(metrics=["map", "ndcg@3", "ndcg@1", "recall@100"]),
        edited(metrics=entry["metrics"][:1], values=values[:1]),
        edited(qids=qids[:1] * len(qids)),
        edited(qids=qids[:-1]),
        edited(values=values[:-1]),
        *(edited(values=[[bad, *values[0][1:]], *values[1:]])
          for bad in (float("nan"), float("inf"), 1.5, -0.25, "0.5")),
    ):
        entry_path.write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert _run(*argv) == 1, text
        err = capsys.readouterr().err
        assert f"error: {entry_path}: damaged evaluation cache entry (it may be deleted)" in err, err
    entry_path.unlink()
    assert _run(*argv) == 0
    assert entry_path.read_text(encoding="utf-8") == good


def test_damaged_index_meta_and_quoted_tokenizer_flags_exit_1(workdir, tmp_path, capsys):
    idx = tmp_path / "idx"
    assert _run("index", "build", "--input", workdir / "corpus.tsv", "--output", idx) == 0
    meta_path = idx / "meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    # an index of an earlier layout must be rebuilt
    meta_path.write_text(json.dumps({**meta, "version": 5}), encoding="utf-8")
    assert _run("retrieve", "--index", idx, "--queries", workdir / "t5.tsv",
                "--out", tmp_path / "x.run") == 1
    err = capsys.readouterr().err
    assert f"{idx}: not a convpr.index v9 directory" in err and "internal error" not in err
    # the tokenizer record is under a digest: stemming cannot be switched on by hand
    meta_path.write_text(json.dumps(meta), encoding="utf-8")
    (idx / "tokenizer.json").write_text('{"stem": true}', encoding="utf-8")
    assert _run("retrieve", "--index", idx, "--queries", workdir / "t5.tsv",
                "--out", tmp_path / "x.run") == 1
    err = capsys.readouterr().err
    assert f"{idx}: tokenizer.json changed or damaged since save" in err and "internal error" not in err
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


def test_eval_counts_the_first_qid_of_a_qrels_file_with_a_bom(tmp_path):
    # Read as text, the BOM would make the first qid "\ufeff1_1", which no
    # run holds: 1_1 would leave the means and eval would still exit 0.
    run, qrels, out = tmp_path / "c.run", tmp_path / "q.txt", tmp_path / "m.csv"
    run.write_text("1_1 Q0 d1 1 2.0 t\n1_2 Q0 d2 1 2.0 t\n1_2 Q0 d3 2 1.0 t\n", encoding="utf-8")
    qrels.write_bytes(b"\xef\xbb\xbf1_1 0 d1 1\n1_2 0 d3 1\n")
    assert _run("eval", "--run", run, "--qrels", qrels, "--metrics", "map", "--csv", out) == 0
    assert out.read_bytes() == b"run,qid,map\nc,1_1,1.000000\nc,1_2,0.500000\nc,all,0.750000\n"


def test_index_build_reads_the_first_id_of_a_passages_file_with_a_bom(tmp_path):
    corpus, idx = tmp_path / "c.tsv", tmp_path / "idx"
    corpus.write_bytes(b"\xef\xbb\xbfd1\tcat sat\nd2\tdog ran\n")
    assert _run("index", "build", "--input", corpus, "--output", idx) == 0
    assert (idx / "doc_ids.txt").read_bytes() == b"d1\nd2\n"


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
    assert "doc_ords.npy" in files and "docid_rank.npy" not in files
    assert files == sorted(p.name for p in (tmp_path / "2").iterdir())
    for name in files:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


_NO_SCIPY = """
import sys

import convpr, convpr.cli
from convpr.evaluation import evaluate_run, load_qrels, paired_t_test
from convpr.runs import read_run

fixtures, work = sys.argv[1:]
idx, qrels = f"{work}/idx", f"{fixtures}/qrels.txt"
for argv in (
    ["index", "build", "--input", f"{fixtures}/corpus.tsv", "--output", idx],
    ["retrieve", "--index", idx, "--queries", f"{fixtures}/t5.tsv", "--out", f"{work}/a.run"],
    ["retrieve", "--index", idx, "--queries", f"{fixtures}/t5.tsv", "--out", f"{work}/b.run",
     "--k", "2"],
    ["eval", "--run", f"{work}/a.run", "--qrels", qrels],
    ["experiment", "--config", f"{fixtures}/config.yaml", "--output-dir", f"{work}/exp"],
    ["compare", "--run-a", f"{work}/a.run", "--run-b", f"{work}/b.run", "--qrels", qrels],
):
    assert convpr.cli.main(argv) == 0, argv

reports = [evaluate_run(read_run(f"{work}/{n}.run"), load_qrels(qrels), ("map",)) for n in "ab"]
a, b = ([r.per_query["map"][q] for q in reports[0].qids] for r in reports)
t_stat, p = paired_t_test(a, b)
assert t_stat != 0.0 and 0.0 < p < 1.0, (t_stat, p)
print(f"paired t-test: t={t_stat:.4f}, p={p:.6f}")
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def test_no_convpr_command_imports_scipy(tmp_path):
    # convpr depends on numpy and PyYAML only; the t-test of `compare`
    # computes its p-value in the standard library.
    src = str(Path(__file__).parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, str(FIXTURES), str(tmp_path)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, encoding="utf-8", timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[-1] == "[]", lines[-1]
    # the CLI printed the same t and p as the library call
    assert lines[-2].startswith("paired t-test: t=") and lines[-2] in lines[:-2], done.stdout


@pytest.mark.parametrize("line_break", ["\n", "\r"], ids=["lf", "cr"])
def test_line_break_in_an_utterance_keeps_rewrites_replayable(workdir, line_break):
    topics_path = workdir / "topics.json"
    topics = json.loads(topics_path.read_text(encoding="utf-8"))
    turn = topics[0]["turn"][1]
    assert (topics[0]["number"], turn["raw_utterance"]) == (7, "What about its glow?")
    turn["raw_utterance"] = f"What about{line_break}its glow?"
    topics_path.write_text(json.dumps(topics), encoding="utf-8")
    out = workdir / "out"
    assert _run("experiment", "--config", workdir / "config.yaml", "--output-dir", out) == 0
    # the line break is written as a space, which separates tokens alike
    assert "7_2\tWhat about its glow?\n" in (out / "rewrites" / "raw.tsv").read_text(encoding="utf-8")

    idx, raw_tsv, raw_run = workdir / "idx", workdir / "raw.tsv", workdir / "raw.run"
    assert _run("index", "build", "--input", workdir / "corpus.tsv", "--output", idx) == 0
    assert _run("reformulate", "--method", "raw", "--topics", topics_path, "--out", raw_tsv) == 0
    assert _run("retrieve", "--index", idx, "--queries", raw_tsv, "--out", raw_run) == 0
    replayed = read_run(raw_run)["7_2"]
    assert replayed.entries and replayed.entries == read_run(out / "runs" / "raw.run")["7_2"].entries


def test_a_string_where_a_list_is_expected_exits_1(workdir, tmp_path, capsys):
    # A string would be read one character at a time: 'm' is no metric.
    for override, message in (
        ("metrics=map", "config: metrics must be a list of metric names"),
        ("fusion.methods=hqe", "config: fusion.methods must be a list of method names"),
    ):
        assert _run("experiment", "--config", workdir / "config.yaml", "--output-dir",
                    tmp_path / "out", "--set", override) == 1
        err = capsys.readouterr().err
        assert message in err and "internal error" not in err, (override, err)
    assert not (tmp_path / "out").exists()


def test_a_metric_named_twice_exits_1(workdir, tmp_path, capsys):
    # A repeat would repeat its column in metrics.csv and every table.
    run, csv = tmp_path / "a.run", tmp_path / "m.csv"
    run.write_text("7_1 Q0 d01 1 2.0 t\n", encoding="utf-8")
    experiment = ("experiment", "--config", workdir / "config.yaml", "--output-dir", tmp_path / "out")
    for argv, message in (
        ((*experiment, "--set", "metrics=[map, map]"), "'map' and 'map'"),
        ((*experiment, "--set", "metrics=[ndcg@3, map, NDCG@3]"), "'ndcg@3' and 'NDCG@3'"),
        (("eval", "--run", run, "--qrels", workdir / "qrels.txt", "--metrics", "map,MAP,map",
          "--csv", csv), "'map' and 'MAP'"),
    ):
        assert _run(*argv) == 1, argv
        err = capsys.readouterr().err
        assert f"error: metrics name one metric twice: {message}" in err, (argv, err)
    assert not (tmp_path / "out").exists() and not csv.exists()


def test_a_boolean_where_a_number_is_expected_exits_1(workdir, tmp_path, capsys):
    # Python counts a bool as a number: k1: true would run as k1 = 1.0.
    text = (workdir / "config.yaml").read_text(encoding="utf-8")
    assert text.count("eta: 3.0") == 1
    (workdir / "hqe.yaml").write_text(text.replace("eta: 3.0", "eta: true"), encoding="utf-8")

    def experiment(config, *overrides):
        return ("experiment", "--config", workdir / config, "--output-dir", tmp_path / "out",
                *(arg for value in overrides for arg in ("--set", value)))

    for argv, message in (
        (experiment("config.yaml", "bm25.k1=true"), "k1 must be a number, got True"),
        (experiment("config.yaml", "bm25.b=false"), "b must be a number, got False"),
        (experiment("config.yaml", "rrf.k=true"), "rrf k must be a number, got True"),
        (experiment("hqe.yaml"), "eta must be a number, got True"),
    ):
        assert _run(*argv) == 1, argv
        err = capsys.readouterr().err
        assert f"error: {message}" in err and "internal error" not in err, (argv, err)
    assert not (tmp_path / "out").exists()


def _half_then_fail(write):
    """``write``, except that it leaves half of the bytes it wrote to its
    first argument and raises, as a command killed mid-write would."""

    def cut_off(path, *args, **kwargs):
        write(path, *args, **kwargs)
        data = Path(path).read_bytes()
        Path(path).write_bytes(data[: len(data) // 2])
        raise OSError("simulated crash mid-write")

    return cut_off


@pytest.mark.parametrize("command", ["retrieve", "fuse", "rerank", "reformulate", "eval", "grid"])
def test_interrupted_command_output_keeps_the_previous_file(workdir, tmp_path, monkeypatch, capsys,
                                                             command):
    import convpr.cli as cli

    idx, run, out = tmp_path / "idx", tmp_path / "t5.run", tmp_path / "out" / "result"
    assert _run("index", "build", "--input", workdir / "corpus.tsv", "--output", idx) == 0
    assert _run("retrieve", "--index", idx, "--queries", workdir / "t5.tsv", "--out", run) == 0
    argv, owner, writer = {
        "retrieve": (("retrieve", "--index", idx, "--queries", workdir / "t5.tsv", "--out", out),
                     cli, "write_run"),
        "fuse": (("fuse", "--runs", run, run, "--out", out), cli, "write_run"),
        "rerank": (("rerank", "--run", run, "--scores", workdir / "scores.tsv", "--out", out),
                   cli, "write_run"),
        "reformulate": (("reformulate", "--method", "raw", "--topics", workdir / "topics.json",
                         "--out", out), cli, "write_rewrites"),
        "eval": (("eval", "--run", run, "--qrels", workdir / "qrels.txt", "--csv", out),
                 cli, "write_metrics_csv"),
        "grid": (("grid", "--config", workdir / "config.yaml", "--method", "hqe", "--param",
                  "m_window=0,1", "--set", f"output_dir={tmp_path / 'exp'}", "--out", out),
                 Path, "write_text"),
    }[command]
    out.parent.mkdir()
    assert _run(*argv) == 0  # the previous file; grid also fills its caches here
    previous = out.read_bytes()
    with monkeypatch.context() as m:
        m.setattr(owner, writer, _half_then_fail(getattr(owner, writer)))
        assert _run(*argv) == 1
    assert "error: simulated crash mid-write" in capsys.readouterr().err
    assert out.read_bytes() == previous
    assert [p.name for p in out.parent.iterdir()] == ["result"]


@pytest.mark.parametrize(
    "name,text,message",
    [
        ("qrels.txt", "7_1 0 d01 1\n7_1 0 d02\n", ":2: expected 4 columns, found 3"),
        ("qrels.txt", "7_1 0 d01 high\n", ":1: bad grade: "),
        ("scores.tsv", "7_1\td01\t1.0\n7_1\td02\n", ":2: expected qid<TAB>doc_id<TAB>score"),
        ("scores.tsv", "7_1\td01\thigh\n", ":1: bad score: "),
        ("corpus.jsonl", '{"id": "d1", "contents": "x"}\n{"id": "d2",\n', ":2: invalid JSON: "),
        ("topics.json", '{"number": 1, "turn": []}', ": topic file must be a JSON array of sessions"),
    ],
    ids=["qrels-columns", "qrels-grade", "scores-columns", "scores-score", "passages-json",
         "topics-array"],
)
def test_malformed_loader_input_exits_1_naming_the_file_and_line(tmp_path, capsys, name, text,
                                                                 message):
    path, run = tmp_path / name, tmp_path / "a.run"
    path.write_text(text, encoding="utf-8")
    run.write_text("7_1 Q0 d01 1 2.0 t\n", encoding="utf-8")
    argv = {
        "qrels.txt": ("eval", "--run", run, "--qrels", path),
        "scores.tsv": ("rerank", "--run", run, "--scores", path, "--out", tmp_path / "x.run"),
        "corpus.jsonl": ("index", "build", "--input", path, "--format", "jsonl",
                         "--output", tmp_path / "idx"),
        "topics.json": ("reformulate", "--method", "raw", "--topics", path, "--out", tmp_path / "r.tsv"),
    }[name]
    assert _run(*argv) == 1
    err = capsys.readouterr().err
    assert f"error: {path}{message}" in err and "internal error" not in err, err


_ONE_TURN = '[{"number": %s, "turn": [{"number": 1, "raw_utterance": %s}]}]'
_SURROGATE = "holds a lone surrogate, not UTF-8"
_REFORMULATE = ("reformulate", "--method", "raw", "--topics", "{src}", "--out", "{out}")


@pytest.mark.parametrize(
    "name,text,argv,message",
    [
        ("p.jsonl", '{"id": "d\\ud800", "contents": "x"}\n',
         ("index", "build", "--input", "{src}", "--format", "jsonl", "--output", "{out}"),
         f"{{src}}:1: id 'd\\ud800' {_SURROGATE}"),
        ("topics.json", _ONE_TURN % ("7", '"cat \\ud800 sat"'), _REFORMULATE,
         f"{{src}}: session 7: turn 1 has raw_utterance 'cat \\ud800 sat', which {_SURROGATE}"),
        ("topics.json", _ONE_TURN % ('"7\\ud800"', '"x"'), _REFORMULATE,
         f"{{src}}: session number '7\\ud800' {_SURROGATE}"),
        ("config.yaml",
         (FIXTURES / "config.yaml").read_text(encoding="utf-8").replace("name: raw\n", 'name: "a\\ud800"\n'),
         ("experiment", "--config", "{src}", "--output-dir", "{out}"),
         f"config: methods[0]: method name 'a\\ud800' {_SURROGATE}"),
    ],
    ids=["passage-id", "utterance", "session-number", "method-name"],
)
def test_lone_surrogate_exits_1_where_it_is_read(workdir, capsys, name, text, argv, message):
    """A JSON or YAML "\\ud800" escape reads as a string that no UTF-8 file
    can hold; it is an error naming its source, before anything is written."""
    paths = {"src": workdir / name, "out": workdir / "result"}
    paths["src"].write_text(text, encoding="utf-8")
    assert _run(*(arg.format(**paths) for arg in argv)) == 1
    assert capsys.readouterr().err == f"error: {message.format(**paths)}\n"
    assert not paths["out"].exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        (("compare", "--run-a", "{a}", "--run-b", "{b}", "--qrels", "{qrels}"),
         "compare: the two runs share no evaluated qids"),
        (("analyze", "jaccard", "--adjacent", "--run", "{bad}"),
         "qid 'x7' is not of the form <session>_<turn>"),
        (("analyze", "jaccard", "--adjacent", "--run", "{gap}"), "no adjacent turn pairs found in run"),
        (("analyze", "jaccard", "--run-a", "{a}", "--run-b", "{b}"), "the two runs share no qids"),
        (("analyze", "bleu", "--hypotheses", "{hyp}", "--references", "{ref}"),
         "hypotheses and references share no qids"),
        (("experiment", "--config", "{config}", "--set", "depth"), "--set expects key=value, got 'depth'"),
        (("grid", "--config", "{config}", "--method", "hqe", "--param", "eta"),
         "--param expects name=v1,v2,..., got 'eta'"),
    ],
    ids=["compare-no-shared", "adjacent-bad-qid", "adjacent-no-pair", "jaccard-no-shared",
         "bleu-no-shared", "set-without-equals", "param-without-equals"],
)
def test_inputs_with_nothing_to_compare_exit_1(workdir, tmp_path, capsys, argv, message):
    files = {"a": "7_1 Q0 d01 1 2.0 a\n", "b": "7_2 Q0 d01 1 2.0 b\n",
             "bad": "x7 Q0 d01 1 2.0 t\n", "gap": "7_1 Q0 d01 1 2.0 t\n7_3 Q0 d01 1 2.0 t\n",
             "hyp": "7_1\tquasar glow\n", "ref": "7_2\tquasar glow\n"}
    paths = {"qrels": workdir / "qrels.txt", "config": workdir / "config.yaml"}
    for name, text in files.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text, encoding="utf-8")
    assert _run(*(arg.format(**paths) for arg in argv)) == 1
    err = capsys.readouterr().err
    assert f"error: {message}\n" == err, err
    assert not (workdir / "out").exists()


def test_adjacent_jaccard_skips_a_gap_between_turns(tmp_path, capsys):
    run = tmp_path / "gap.run"
    run.write_text("7_1 Q0 d1 1 2.0 t\n7_3 Q0 d1 1 2.0 t\n7_4 Q0 d1 1 2.0 t\n7_4 Q0 d2 2 1.0 t\n",
                   encoding="utf-8")
    assert _run("analyze", "jaccard", "--adjacent", "--run", run) == 0
    assert capsys.readouterr().out == "turn\tmean_jaccard\tsessions\n4\t0.5000\t1\nall\t0.5000\t1\n"
