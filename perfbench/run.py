#!/usr/bin/env python3
"""convpr benchmark: seeded synthetic conversational workloads.

    python3 perfbench/run.py --workload {build,retrieve,rerun} --seed N --seconds S --trace {0,1}

Run it from the root of a convpr checkout; it imports the package from
``src/`` there. Every run generates its inputs from ``--seed``, sets the
workload up several times (``setup_s`` is the median), then starts a fresh
process for the timed phase, so that ``peak_rss_mb`` covers that phase
only. The timed phase runs the workload's operation in a closed loop for
``--seconds`` (and at least the workload's minimum number of operations,
in whole passes over its inputs) and checks every operation's output.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` repeats a
fixed amount of work first untraced, then with every public convpr
function wrapped in spans, and reports per-layer metrics together with
the tracing overhead; the spans go to ``.perfbench/trace-<workload>.tsv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Scratch files live
under ``.perfbench/`` in the current directory and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

ROOT = Path.cwd()


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "convpr" / "__init__.py").is_file():
        sys.exit(f"error: {src}/convpr not found; run from the root of a convpr checkout")
    sys.path.insert(0, str(src))
    import convpr

    if Path(convpr.__file__).resolve().parent != (src / "convpr").resolve():
        sys.exit(f"error: imported convpr from {convpr.__file__}, expected {src}")


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


# -- child: the timed phase ----------------------------------------------------


def _peak_rss_kb() -> int:
    """High-water RSS of this process's own address space. ``ru_maxrss``
    would not do: Linux carries it across exec, so a child would inherit
    the peak of the set-up process that started it."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def child(work: Path, workload: str, seconds: float, trace: bool) -> None:
    import tracer as tracing
    from workloads import HQE, WORKLOADS

    wl = WORKLOADS[workload]
    expect = json.loads((work / "expect.json").read_text(encoding="utf-8"))
    ctx = wl.prepare(work, expect)
    out: dict = {"checks": []}
    failed = 0

    def timed_op(i: int, tracer=None, install=None) -> float:
        """Run and check operation ``i``; only the operation is timed."""
        nonlocal failed
        if tracer is not None:
            tracer.op = i
            install(tracer)
        t0 = time.perf_counter()
        result = wl.op(ctx, i)
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.restore()
        failed += not wl.verify(ctx, i, result)
        return latency

    def span_checks(tracer, expected, silent) -> None:
        summary = tracer.summary()
        for name in expected:
            fired = summary.get(name, {}).get("calls", 0)
            out["checks"].append([f"span {name} fires", fired > 0, str(fired)])
        for prefix in silent:
            fired = sum(v["calls"] for k, v in summary.items() if k.startswith(prefix))
            out["checks"].append([f"spans {prefix}* stay idle", fired == 0, str(fired)])

    tracer = tracing.Tracer()
    if not trace:
        count = partial(tracing.install_counters, targets=wl.counters)
        latencies: list[float] = []
        started = time.perf_counter()
        # Whole passes only, so every run times the same mix of operations.
        pass_ops = wl.pass_ops(ctx)
        while (
            len(latencies) < wl.min_ops
            or time.perf_counter() - started < seconds
            or len(latencies) % pass_ops
        ):
            latencies.append(timed_op(len(latencies), tracer, count))
        out["peak_rss_kb"] = _peak_rss_kb()
        span_checks(tracer, (), wl.counters.values())
    else:
        # Each operation runs once untraced and once traced, back to back,
        # so drift in machine speed cancels out of the overhead ratio. The
        # order alternates, so neither side always finds the caches warm.
        # One untimed operation first takes the cold start off both sides.
        install = partial(tracing.install, eta=HQE["eta"])
        wl.op(ctx, 0)
        pairs = []
        for i in range(wl.traced_ops(ctx)):
            if i % 2:
                on = timed_op(i, tracer, install)
                pairs.append((timed_op(i), on))
            else:
                pairs.append((timed_op(i), timed_op(i, tracer, install)))
        untraced, traced = (sum(side) for side in zip(*pairs))
        span_checks(tracer, wl.expected_spans, wl.silent_spans)
        metrics = tracing.per_layer_metrics(tracer, traced, untraced)
        out["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        tracer.write_tsv(ROOT / ".perfbench" / f"trace-{workload}.tsv")
        latencies = [t for pair in pairs for t in pair]
    out["latencies"] = latencies
    out["failed_ops"] = failed
    (work / "child.json").write_text(json.dumps(out), encoding="utf-8")


# -- parent --------------------------------------------------------------------


def environment(docs: int, postings: int) -> dict:
    import numpy as np
    from convpr import _bm25

    def read(path: str) -> str:
        try:
            return Path(path).read_text(encoding="utf-8").strip()
        except OSError:
            return "unknown"

    cpu = "unknown"
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    cache = "/sys/devices/system/cpu/cpu0/cache"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "l2": read(f"{cache}/index2/size"),
        "l3": read(f"{cache}/index3/size"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": _bm25.get_backend(),
        "docs": docs,
        "postings": postings,
        "accumulator_bytes": 8 * docs,
    }


def parent(args) -> int:
    from workloads import WORKLOADS, Oracle

    wl = WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    base = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_s = []
        for r in range(wl.setup_repeats):
            work = base / f"setup-{r}"
            if r:
                shutil.rmtree(base / f"setup-{r - 1}")
            work.mkdir(parents=True)
            t0 = time.perf_counter()
            coll = wl.setup(work, args.seed)
            setup_s.append(time.perf_counter() - t0)

        oracle = Oracle(coll)
        expect = wl.expectations(work, coll, oracle, args.seed)
        (work / "expect.json").write_text(json.dumps(expect), encoding="utf-8")
        checks = wl.validity(work, coll)

        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--child", str(work),
            "--workload", args.workload, "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        # The loop runs --seconds at least; the rest is loading, checking and
        # operations past the deadline.
        timeout = 120 + 4 * args.seconds
        subprocess.run(cmd, check=True, timeout=timeout, stdout=sys.stderr)
        res = json.loads((work / "child.json").read_text(encoding="utf-8"))
        checks += [tuple(c) for c in res["checks"]]

        lat = res["latencies"]
        named: dict[str, tuple[float, str]] = {"ops": (len(lat), "count")}
        if args.trace:
            metrics = res["per_layer"]
        else:
            p50 = statistics.median(lat)
            throughput = wl.items_per_op(coll) * len(lat) / sum(lat)
            index_bytes = sum(p.stat().st_size for p in wl.index_dir(work).iterdir())
            metrics = {
                "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
                "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024.0, "unit": "MB"},
                "items_per_s": {"value": throughput, "unit": "1/s"},
                "op_p50_ms": {"value": 1e3 * p50, "unit": "ms"},
                "index_bytes_per_posting": {"value": index_bytes / oracle.postings, "unit": "B"},
            }
            if wl.name == "build":
                named["docs_per_s"] = (throughput, "1/s")
            elif wl.name == "retrieve":
                p99 = _percentile(lat, 99)
                above = sum(v > p99 for v in lat)
                named["queries_per_s"] = (throughput, "1/s")
                named["query_p50_ms"] = (1e3 * p50, "ms")
                named["query_p99_ms"] = (1e3 * p99, "ms")
                named["query_samples_above_p99"] = (above, "count")
                checks.append(("at least 10 samples above p99", above >= 10, str(above)))
            else:
                named["experiment_s"] = (p50, "s")
                named["turns_per_s"] = (throughput, "1/s")
        attempted = len(lat) + len(checks)
        failed = res["failed_ops"] + sum(not ok for _, ok, _ in checks)
        named["fail_ratio"] = (failed / attempted, "ratio")

        print("env " + json.dumps(environment(oracle.n, oracle.postings), sort_keys=True))
        for name, ok, detail in checks:
            print(f"check {'ok  ' if ok else 'FAIL'} {name} ({detail})")
        for name, m in metrics.items():
            print(f"metric {name} {m['value']!r} {m['unit']}")
        for name, (value, unit) in named.items():
            print(f"metric {name} {value!r} {unit}")
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(base, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("build", "retrieve", "rerun"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    _import_program()
    if args.child is not None:
        child(args.child, args.workload, args.seconds, bool(args.trace))
        return 0
    return parent(args)


if __name__ == "__main__":
    sys.exit(main())
