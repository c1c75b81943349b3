"""Experiment orchestration: corpus → index → reformulate → retrieve →
fuse → evaluate, driven by a declarative YAML config.

Outputs are deterministic for a given config + data: rewrites and run
files, a per-query metrics CSV, and a summary table. The config hash is
logged and written next to the outputs; the index, keyword-extractor
scores, first-stage runs and the metrics of first-stage runs that nothing
reranks or fuses are cached on disk under ``output_dir/cache`` keyed by
hashes of the inputs they depend on, so a re-run or a grid sweep does not
repeat work. Every output and cache entry is written to a temp file and
renamed into place, so an experiment killed mid-write leaves no cut-off
file that a later one, or ``convpr eval``, would read as whole.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import os
import shutil
from dataclasses import astuple, dataclass, field, fields, replace
from itertools import product
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
import yaml

from . import evaluation
from . import index as index_format
from .corpus import Session, file_digest, is_integral, load_passages, load_sessions
from .cqr import (
    CONCAT_DEFAULT_WINDOW,
    HqeParams,
    PosAnnotations,
    ReformulatedQuery,
    concat_rewrite,
    hqe_rewrite,
    load_external_rewrites,
    raw_query,
    write_rewrites,
)
from .evaluation import (
    DEFAULT_METRICS,
    MetricReport,
    Qrels,
    evaluate_run,
    format_summary,
    load_qrels,
    parse_metric,
    write_metrics_csv,
)
from .fusion import RrfParams, fuse_runs, load_rerank_scores, rerank_run
from .index import Bm25Params, InvertedIndex, Searcher, build_index
from .runs import RankedList, read_run, write_run
from .tokenization import TokenizerConfig

logger = logging.getLogger("convpr")

# The optional keys each method type reads, besides the rerank_scores that
# every type reads. Any other key would be ignored, so it is an error. Code
# that treats types differently asks this table which keys a type reads.
_METHOD_KEYS = {
    "raw": (),
    "concat": ("m_window",),
    "concat-pos": ("m_window", "pos_annotations"),
    "hqe": ("hqe",),
    "hqe-pos": ("hqe", "pos_annotations"),
    "external": ("rewrites",),
}
METHOD_TYPES = tuple(_METHOD_KEYS)
FUSION_MODES = ("early", "late")
FUSED_RUN_NAME = "fusion"
# A method with rerank_scores also emits its reranked run as <name>+rerank.
RERANK_SUFFIX = "+rerank"


@dataclass(frozen=True)
class MethodSpec:
    name: str
    type: str
    m_window: int = CONCAT_DEFAULT_WINDOW
    hqe: HqeParams = field(default_factory=HqeParams)
    rewrites: Path | None = None
    pos_annotations: Path | None = None
    rerank_scores: Path | None = None

    def __post_init__(self) -> None:
        if self.m_window < 0:
            raise ValueError(f"m_window must be >= 0, got {self.m_window}")


@dataclass(frozen=True)
class FusionSpec:
    mode: str
    methods: tuple[str, ...]
    # Scores that rerank the early-fused run; None for late fusion.
    rerank_scores: Path | None = None


@dataclass
class ExperimentConfig:
    corpus: Path
    corpus_format: str
    topics: Path
    qrels: Path
    output_dir: Path
    methods: list[MethodSpec]
    fusion: FusionSpec | None = None
    depth: int = 1000
    metrics: tuple[str, ...] = DEFAULT_METRICS
    bm25: Bm25Params = field(default_factory=Bm25Params)
    rrf: RrfParams = field(default_factory=RrfParams)
    tokenizer: TokenizerConfig = field(default_factory=TokenizerConfig)
    raw: dict = field(default_factory=dict)

    def config_hash(self) -> str:
        """Hash of everything that determines the outputs; the destination
        directory is deliberately excluded."""
        payload = {k: v for k, v in self.raw.items() if k != "output_dir"}
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True, ensure_ascii=True).encode()
        ).hexdigest()


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _integer(value, what: str) -> int:
    """``value`` as an int; a fraction is an error rather than truncated."""
    _require(is_integral(value), f"{what} must be an integer, got {value!r}")
    return int(value)


def _as_path(base: Path, value, key: str) -> Path:
    _require(isinstance(value, str) and value, f"config: {key} must be a non-empty path string")
    p = Path(value)
    return p if p.is_absolute() else base / p


def _existing(path: Path, key: str) -> Path:
    _require(path.exists(), f"config: {key} does not exist: {path}")
    return path


def _build(cls, mapping: Mapping, what: str):
    _require(isinstance(mapping, Mapping), f"config: {what} must be a mapping")
    try:
        return cls(**mapping)
    except TypeError as exc:
        raise ValueError(f"config: bad {what}: {exc}") from None


def _known_keys(raw, cls, where: str, exclude: tuple[str, ...] = ()) -> None:
    """Require ``raw`` to be a mapping whose keys all name fields of the
    dataclass ``cls``, so a misspelt key is an error, not a silent default."""
    _require(isinstance(raw, Mapping), f"config: {where} must be a mapping")
    allowed = [f.name for f in fields(cls) if f.name not in exclude]
    unknown = [key for key in raw if key not in allowed]
    if unknown:
        raise ValueError(f"config: {where}: unknown key {unknown[0]!r}, expected one of {allowed}")


def _method_from_dict(base: Path, raw: Mapping, where: str) -> MethodSpec:
    """Validate one method mapping (a config ``methods`` entry, or the
    reformulate command's arguments) into a MethodSpec. Relative paths
    resolve against ``base``; ``where`` names the entry in error messages."""
    _known_keys(raw, MethodSpec, where)
    _require("name" in raw and "type" in raw, f"config: {where} needs 'name' and 'type'")
    name, mtype = str(raw["name"]), str(raw["type"])
    # The name becomes a file name, a run-file tag and a CSV field.
    _require(
        name.split() == [name] and "/" not in name and "," not in name,
        f"config: {where}: method name {name!r} must be one token without '/' or ','",
    )
    _require(
        mtype in METHOD_TYPES,
        f"config: {where} ({name}): unknown type {mtype!r}, expected one of {METHOD_TYPES}",
    )

    def path_of(key: str) -> Path | None:
        return _existing(_as_path(base, raw[key], f"{where}.{key}"), key) if key in raw else None

    reads = ("name", "type", "rerank_scores", *_METHOD_KEYS[mtype])
    ignored = [key for key in raw if key not in reads]
    if ignored:
        readers = " or ".join(t for t, keys in _METHOD_KEYS.items() if ignored[0] in keys)
        raise ValueError(f"config: {where} ({name}): {ignored[0]!r} is only read by type {readers}")
    hqe = HqeParams()
    if "hqe" in raw:
        hqe = _build(HqeParams, raw["hqe"], f"{where}.hqe")
        hqe = replace(hqe, m_window=_integer(hqe.m_window, f"config: {where}.hqe.m_window"))
    for key in ("rewrites", "pos_annotations"):
        if key in _METHOD_KEYS[mtype]:
            _require(key in raw, f"config: {where} ({name}): {mtype} needs {key!r}")
    return MethodSpec(
        name=name,
        type=mtype,
        m_window=_integer(raw.get("m_window", CONCAT_DEFAULT_WINDOW), f"config: {where}.m_window"),
        hqe=hqe,
        rewrites=path_of("rewrites"),
        pos_annotations=path_of("pos_annotations"),
        rerank_scores=path_of("rerank_scores"),
    )


def load_config(path: str | Path, overrides: Mapping[str, object] | None = None) -> ExperimentConfig:
    """Parse and validate an experiment config; all validation happens here,
    before any real work starts. ``overrides`` maps dotted keys (e.g.
    ``bm25.k1``) onto replacement values."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        try:
            raw = yaml.safe_load(fh)
        except (yaml.YAMLError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: config is not valid YAML: {exc}") from exc
    _require(isinstance(raw, dict), f"{path}: config must be a mapping")
    for dotted, value in (overrides or {}).items():
        node = raw
        keys = dotted.split(".")
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            _require(isinstance(node, dict), f"config override {dotted!r}: {key} is not a mapping")
        node[keys[-1]] = value

    _known_keys(raw, ExperimentConfig, "top level", exclude=("raw",))
    base = path.parent
    for key in ("corpus", "topics", "qrels", "output_dir", "methods"):
        _require(key in raw, f"config: missing required key {key!r}")

    corpus_format = str(raw.get("corpus_format", "tsv"))
    _require(corpus_format in ("tsv", "jsonl"), f"config: corpus_format must be tsv or jsonl")

    corpus = _existing(_as_path(base, raw["corpus"], "corpus"), "corpus")
    topics = _existing(_as_path(base, raw["topics"], "topics"), "topics")
    qrels = _existing(_as_path(base, raw["qrels"], "qrels"), "qrels")

    _require(isinstance(raw["methods"], list), "config: methods must be a list of mappings")
    _known_keys(raw.get("tokenizer", {}), TokenizerConfig, "tokenizer")
    methods = [_method_from_dict(base, m, f"methods[{i}]") for i, m in enumerate(raw["methods"])]
    _require(len(methods) > 0, "config: methods must not be empty")
    names = [m.name for m in methods]
    _require(len(set(names)) == len(names), f"config: duplicate method names in {names}")
    _require(
        FUSED_RUN_NAME not in names, f"config: method name {FUSED_RUN_NAME!r} is reserved"
    )
    for m in methods:
        reranked = m.name + RERANK_SUFFIX
        _require(
            m.rerank_scores is None or reranked not in names,
            f"config: method name {reranked!r} is also the reranked run of method {m.name!r}",
        )

    fusion = None
    fraw = raw.get("fusion")
    if fraw is not None:
        _known_keys(fraw, FusionSpec, "fusion")
        mode = str(fraw.get("mode", "early"))
        _require(
            mode in FUSION_MODES, f"config: fusion.mode must be one of {FUSION_MODES}, got {mode!r}"
        )
        fmethods = tuple(str(m) for m in fraw.get("methods", ()))
        _require(len(fmethods) >= 2, "config: fusion.methods needs at least two methods")
        by_name = {m.name: m for m in methods}
        for i, fm in enumerate(fmethods):
            _require(fm in by_name, f"config: fusion references unknown method {fm!r}")
            _require(fm not in fmethods[:i], f"config: fusion.methods lists method {fm!r} twice")
        scores = None
        if "rerank_scores" in fraw:
            scores = _existing(
                _as_path(base, fraw["rerank_scores"], "fusion.rerank_scores"), "rerank_scores"
            )
        if mode == "early":
            _require(scores is not None, "config: early fusion needs fusion.rerank_scores")
        else:
            _require(
                scores is None,
                "config: late fusion takes no fusion.rerank_scores; "
                "each fused method reranks with its own rerank_scores",
            )
            for fm in fmethods:
                _require(
                    by_name[fm].rerank_scores is not None,
                    f"config: late fusion requires rerank_scores on method {fm!r}",
                )
        fusion = FusionSpec(mode=mode, methods=fmethods, rerank_scores=scores)

    metrics = tuple(str(m) for m in raw.get("metrics", DEFAULT_METRICS))
    for m in metrics:
        parse_metric(m)

    config = ExperimentConfig(
        corpus=corpus,
        corpus_format=corpus_format,
        topics=topics,
        qrels=qrels,
        output_dir=_as_path(base, raw["output_dir"], "output_dir"),
        methods=methods,
        fusion=fusion,
        depth=_integer(raw.get("depth", 1000), "config: depth"),
        metrics=metrics,
        bm25=_build(Bm25Params, raw.get("bm25", {}), "bm25"),
        rrf=_build(RrfParams, raw.get("rrf", {}), "rrf"),
        tokenizer=TokenizerConfig.from_dict(raw.get("tokenizer", {})),
        raw=raw,
    )
    _require(config.depth >= 1, "config: depth must be >= 1")
    return config


# -- caching ------------------------------------------------------------------


def _cache_key(**parts) -> str:
    """Name a cache entry: the first 16 hex digits of the sha256 of
    ``parts`` as sorted JSON. ``parts`` must cover every byte of the entry."""
    payload = json.dumps(parts, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _write_atomically(path: Path, write: Callable[[Path], None]) -> None:
    """Have ``write`` fill a temp file or directory beside ``path``, then
    rename it into place, so ``path`` only ever names a complete entry. The
    pid in the temp name keeps processes that share a cache apart."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        write(tmp)
        try:
            os.replace(tmp, path)
        except OSError:
            # A directory cannot replace a non-empty one. Only a finished
            # rename creates ``path``, so another process that shares the
            # cache has already put a complete entry there: use it.
            if not (tmp.is_dir() and path.is_dir()):
                raise
            shutil.rmtree(tmp)
    except BaseException:
        if tmp.is_dir():
            shutil.rmtree(tmp, ignore_errors=True)
        else:
            tmp.unlink(missing_ok=True)
        raise


@dataclass
class _Workspace:
    """What every experiment-style command loads before its first query."""

    sessions: list[Session]
    qrels: Qrels
    searcher: Searcher
    cache_dir: Path
    index_key: str


def _open_workspace(config: ExperimentConfig) -> _Workspace:
    """Load topics and qrels, and the index and (for HQE) keyword-extractor
    scores from ``output_dir/cache``, computing either on a miss. The corpus is
    hashed once here; everything downstream reuses ``index_key``."""
    cache_dir = config.output_dir / "cache"
    cache_dir.mkdir(parents=True, exist_ok=True)
    sessions = load_sessions(config.topics)
    qrels = load_qrels(config.qrels)
    index_key = _cache_key(
        corpus=file_digest(config.corpus),
        format=config.corpus_format,
        tokenizer=config.tokenizer.to_dict(),
        # A new layout gets a new entry instead of failing to load the old one.
        version=index_format._VERSION,
    )
    index_dir = cache_dir / f"index-{index_key}"
    if index_dir.is_dir():
        logger.info("loading cached index %s", index_dir)
        index = InvertedIndex.load(index_dir)
    else:
        index = build_index(load_passages(config.corpus, config.corpus_format), config.tokenizer)
        logger.info("built index: %d docs, %d terms", index.doc_count, index.vocab_size)
        _write_atomically(index_dir, index.save)
    searcher = Searcher(index, config.bm25)
    if any("hqe" in _METHOD_KEYS[method.type] for method in config.methods):
        ke_key = _cache_key(index=index_key, k1=config.bm25.k1, b=config.bm25.b)
        ke_path = cache_dir / f"ke-{ke_key}.npy"
        if ke_path.exists():
            searcher._term_max = _load_ke_cache(ke_path, index.vocab_size)
        else:
            scores = searcher.term_max_scores()

            def save(tmp: Path) -> None:
                with tmp.open("wb") as fh:  # np.save would add ".npy" to a path
                    np.save(fh, scores)

            _write_atomically(ke_path, save)
    return _Workspace(sessions, qrels, searcher, cache_dir, index_key)


def _load_ke_cache(path: Path, vocab_size: int) -> np.ndarray:
    """Read keyword-extractor scores: a float64 array of one score per term
    id. Each is an indexed term's best single-posting BM25 score, so it is
    finite and > 0 (idf > 0, k1 + 1 >= 1, tf >= 1); anything else means the
    entry is damaged."""
    damaged = f"{path}: damaged keyword-extractor cache entry (it may be deleted)"
    try:
        scores = np.load(path, allow_pickle=False)
    except (ValueError, EOFError) as exc:  # EOFError: a 0-byte file
        raise ValueError(f"{damaged}: {exc}") from None
    _require(
        isinstance(scores, np.ndarray) and scores.dtype == np.float64 and scores.shape == (vocab_size,)
        and bool(np.all((scores > 0) & (scores < np.inf))),
        f"{damaged}: it must hold a finite float64 score > 0 for each of the index's {vocab_size} terms",
    )
    return scores


def _run_cache_path(
    ws: _Workspace, config: ExperimentConfig, name: str, queries: Sequence[ReformulatedQuery]
) -> Path:
    """The cache entry of method ``name``'s first-stage run of ``queries``,
    keyed by exactly what retrieve_all and write_run read, so a rewrite
    that changes gets a new entry and an input edit that changes no query
    reuses the old one. ``name`` is the tag column of every line."""
    key = _cache_key(
        index=ws.index_key,
        bm25=astuple(config.bm25),
        depth=config.depth,
        name=name,
        queries=[[q.qid, q.tokens] for q in queries],
    )
    return ws.cache_dir / f"run-{key}.run"


def _evaluate_cached_run(
    cached_run: Path,
    run: dict[str, RankedList] | None,
    qrels: Qrels,
    qrels_digest: str,
    config: ExperimentConfig,
    pool: dict[str, str],
) -> tuple[MetricReport, str]:
    """The metrics of the first-stage run cached at ``cached_run``, from its
    evaluation entry beside it, and whether that entry was a hit or a miss.
    On a miss the run is evaluated (``run`` is its parsed form if the
    caller holds it, else the file is read) and the entry written."""
    key = _cache_key(
        run=file_digest(cached_run),
        qrels=qrels_digest,
        metrics=config.metrics,
        depth=config.depth,
        # A change to any metric value gets new entries.
        version=evaluation._VERSION,
    )
    path = cached_run.with_name(f"eval-{key}.json")
    metrics = list(config.metrics)
    if path.exists():
        damaged = f"{path}: damaged evaluation cache entry (it may be deleted)"
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:  # undecodable bytes or invalid JSON
            raise ValueError(f"{damaged}: {exc}") from None
        rule = f"it must hold metrics {metrics}, unique qids, and a value in [0, 1] per metric and qid"
        _require(_is_evaluation_entry(entry, metrics), f"{damaged}: {rule}")
        qids = entry["qids"]
        per_query = {m: dict(zip(qids, column)) for m, column in zip(metrics, entry["values"])}
        return MetricReport(config.metrics, per_query, qids), "hit"
    if run is None:
        run = read_run(cached_run, pool=pool)
    report = evaluate_run(run, qrels, config.metrics, config.depth)
    values = [[report.per_query[m][qid] for qid in report.qids] for m in metrics]
    text = json.dumps({"metrics": metrics, "qids": report.qids, "values": values}, sort_keys=True) + "\n"
    _write_atomically(path, lambda tmp: tmp.write_text(text, encoding="utf-8", newline="\n"))
    return report, "miss"


def _is_evaluation_entry(entry, metrics: list[str]) -> bool:
    """Whether ``entry`` is ``{"metrics", "qids", "values"}`` with the given
    metrics, unique string qids, and per metric a list of one value in
    [0, 1] per qid (every metric lies there)."""
    if not (isinstance(entry, dict) and sorted(entry) == ["metrics", "qids", "values"]):
        return False
    qids, values = entry["qids"], entry["values"]
    return (
        entry["metrics"] == metrics
        and isinstance(qids, list)
        and all(isinstance(qid, str) for qid in qids)
        and len(set(qids)) == len(qids)
        and isinstance(values, list)
        and len(values) == len(metrics)
        and all(
            isinstance(column, list)
            and len(column) == len(qids)
            and all(isinstance(v, float) and 0.0 <= v <= 1.0 for v in column)
            for column in values
        )
    )


# -- reformulation and retrieval ----------------------------------------------


def reformulate_method(
    method: MethodSpec,
    sessions: Sequence[Session],
    searcher: Searcher | None,
    tokenizer: TokenizerConfig,
) -> list[ReformulatedQuery]:
    """Produce one rewrite per turn, session by session."""
    pos = PosAnnotations.load(method.pos_annotations) if method.pos_annotations else None
    out: list[ReformulatedQuery] = []
    reads = _METHOD_KEYS[method.type]
    external = load_external_rewrites(method.rewrites, tokenizer) if "rewrites" in reads else None
    for session in sessions:
        for i in range(1, len(session.utterances) + 1):
            prefix = session.utterances[:i]
            current = prefix[-1]
            if method.type == "raw":
                out.append(raw_query(current, tokenizer))
            elif "m_window" in reads:
                out.append(concat_rewrite(prefix, method.m_window, pos, tokenizer))
            elif "hqe" in reads:
                assert searcher is not None
                out.append(hqe_rewrite(searcher, prefix, method.hqe, pos))
            elif current.qid in external:
                out.append(external[current.qid])
            else:
                raise ValueError(f"method {method.name}: no external rewrite for qid {current.qid!r}")
    return out


def retrieve_all(
    searcher: Searcher, queries: Iterable[ReformulatedQuery], depth: int
) -> dict[str, RankedList]:
    return {q.qid: searcher.search(list(q.tokens), k=depth, qid=q.qid) for q in queries}


# -- the experiment -------------------------------------------------------------


@dataclass
class ExperimentResult:
    config_hash: str
    reports: dict[str, MetricReport]
    run_files: dict[str, Path]
    metrics_csv: Path
    metrics_txt: Path


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run every method, rerank and fuse, and evaluate each emitted run.

    Stage 1 does everything that needs the index: it reformulates each
    method's queries, writes the rewrites and, on a cache miss, searches
    and caches the first-stage run. Then the index is freed, before stage
    2 reads any run file, reranks, fuses and evaluates each run as it is
    emitted. A run outlives its emission only as a fusion input, so a warm
    experiment holds the index or the runs, never both. Stage 2 parses
    only the first-stage runs that are reranked or fused; the metrics of
    every first-stage run come from its evaluation cache entry."""
    out_dir = config.output_dir
    runs_dir = out_dir / "runs"
    rewrites_dir = out_dir / "rewrites"
    for d in (runs_dir, rewrites_dir):
        d.mkdir(parents=True, exist_ok=True)

    chash = config.config_hash()
    logger.info("config hash %s", chash)
    _write_atomically(out_dir / "config_hash.txt", lambda tmp: tmp.write_text(chash + "\n", encoding="utf-8"))

    ws = _open_workspace(config)
    qrels = ws.qrels
    cached_runs: list[Path] = []
    # The first-stage runs searched here, by method name; the rest are read
    # from their cache entries in stage 2.
    searched: dict[str, dict[str, RankedList]] = {}
    for method in config.methods:
        queries = reformulate_method(method, ws.sessions, ws.searcher, config.tokenizer)
        _write_atomically(rewrites_dir / f"{method.name}.tsv", lambda tmp: write_rewrites(tmp, queries))
        cached_run = _run_cache_path(ws, config, method.name, queries)
        cached_runs.append(cached_run)
        if not cached_run.exists():
            run = searched[method.name] = retrieve_all(ws.searcher, queries, config.depth)
            _write_atomically(cached_run, lambda tmp: write_run(tmp, run, tag=method.name))
    # The workspace holds the only reference to the searcher and its index.
    del ws
    qrels_digest = file_digest(config.qrels)

    # Every run and scores file read here shares one string per doc id and
    # qid. Methods and early fusion often share one scores file; parse each
    # once.
    pool: dict[str, str] = {}
    rerank_scores = functools.cache(functools.partial(load_rerank_scores, pool=pool))
    spec = config.fusion
    # Early fusion fuses each method's first-stage run and reranks the fused
    # run once; late fusion fuses the reranked runs. load_config gives early
    # fusion, and only early fusion, rerank_scores.
    suffix = "" if spec is None or spec.mode == "early" else RERANK_SUFFIX
    fusion_inputs: dict[str, dict[str, RankedList] | None] = (
        dict.fromkeys(m + suffix for m in spec.methods) if spec is not None else {}
    )
    reports: dict[str, MetricReport] = {}
    run_files: dict[str, Path] = {}

    def emit(
        name: str,
        run: dict[str, RankedList] | None,
        cached: Path | None = None,
        report: MetricReport | None = None,
    ) -> None:
        # A cached first-stage run already holds the bytes of runs/<name>.run.
        path = runs_dir / f"{name}.run"
        if cached is None:
            _write_atomically(path, lambda tmp: write_run(tmp, run, tag=name))
        else:
            _write_atomically(path, lambda tmp: shutil.copyfile(cached, tmp))
        run_files[name] = path
        if report is None:
            report = evaluate_run(run, qrels, config.metrics, config.depth)
        reports[name] = report
        if name in fusion_inputs:
            fusion_inputs[name] = run

    for method, cached_run in zip(config.methods, cached_runs):
        run = searched.pop(method.name, None)
        run_cache = "hit" if run is None else "miss"
        # Only a run that is reranked or fused is parsed on a hit.
        consumed = method.rerank_scores is not None or method.name in fusion_inputs
        if run is None and consumed:
            run = read_run(cached_run, pool=pool)
        report, entry = _evaluate_cached_run(cached_run, run, qrels, qrels_digest, config, pool)
        emit(method.name, run, cached_run, report)
        if method.rerank_scores is not None:
            emit(method.name + RERANK_SUFFIX, rerank_run(run, rerank_scores(method.rerank_scores)))
        logger.info("method %s: run cache %s, evaluation entry %s", method.name, run_cache, entry)
        del run  # only a fusion input outlives its emission

    if spec is not None:
        fused = fuse_runs(list(fusion_inputs.values()), config.rrf, config.depth)
        fusion_inputs.clear()
        if spec.rerank_scores is not None:
            fused = rerank_run(fused, rerank_scores(spec.rerank_scores))
        emit(FUSED_RUN_NAME, fused)

    metrics_csv = out_dir / "metrics.csv"
    _write_atomically(metrics_csv, lambda tmp: write_metrics_csv(tmp, config.metrics, reports))

    metrics_txt = out_dir / "metrics.txt"
    means = {name: report.means for name, report in reports.items()}
    table = format_summary("run", config.metrics, means, min_width=4)
    _write_atomically(metrics_txt, lambda tmp: tmp.write_text(table + "\n", encoding="utf-8", newline="\n"))

    logger.info("experiment outputs in %s", out_dir)
    return ExperimentResult(
        config_hash=chash,
        reports=reports,
        run_files=run_files,
        metrics_csv=metrics_csv,
        metrics_txt=metrics_txt,
    )


# -- grid search -----------------------------------------------------------------


_HQE_GRID_KEYS = ("r_topic", "r_sub", "eta", "m_window")


def grid_search(
    config: ExperimentConfig,
    method_name: str,
    grid: Mapping[str, Sequence[float]],
) -> list[dict]:
    """Cartesian sweep over expansion hyperparameters for one method.

    Returns one row per combination with first-stage R@depth (the config's)
    and MAP, sorted by parameter values. The index and keyword-extractor
    scores are computed once and shared across the sweep.
    """
    by_name = {m.name: m for m in config.methods}
    _require(method_name in by_name, f"grid: unknown method {method_name!r}")
    method = by_name[method_name]
    reads = _METHOD_KEYS[method.type]
    if "hqe" in reads:
        allowed = _HQE_GRID_KEYS
    elif "m_window" in reads:
        allowed = ("m_window",)
    else:
        raise ValueError(f"grid: method {method_name!r} of type {method.type!r} has no grid parameters")
    for key in grid:
        _require(key in allowed, f"grid: parameter {key!r} not tunable for {method.type} (allowed: {allowed})")
    if "m_window" in grid:
        grid = {**grid, "m_window": [_integer(v, "grid: m_window") for v in grid["m_window"]]}
    _require(len(grid) > 0, "grid: no parameters given")
    for key, values in grid.items():
        _require(len(values) > 0, f"grid: parameter {key!r} has no values")

    keys = sorted(grid)
    points = [dict(zip(keys, values)) for values in product(*(grid[k] for k in keys))]
    # Every point is validated here, before the index is built or loaded.
    if "hqe" in reads:
        variants = [replace(method, hqe=replace(method.hqe, **point)) for point in points]
    else:
        variants = [replace(method, m_window=point["m_window"]) for point in points]
    ws = _open_workspace(config)
    rows: list[dict] = []
    for point, variant in zip(points, variants):
        queries = reformulate_method(variant, ws.sessions, ws.searcher, config.tokenizer)
        run = retrieve_all(ws.searcher, queries, config.depth)
        recall = f"recall@{config.depth}"
        means = evaluate_run(run, ws.qrels, (recall, "map"), config.depth).means
        rows.append({**point, "recall": means[recall], "map": means["map"]})
    rows.sort(key=lambda r: tuple(r[k] for k in keys))
    return rows
