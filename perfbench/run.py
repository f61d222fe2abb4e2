#!/usr/bin/env python3
"""Benchmark for `wordrep`: run one workload (or all four), time it, check it.

    python3 perfbench/run.py --workload repnum --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

The program is imported from `src/` next to this directory.  With --trace 0
the run reports the end-to-end metrics of one workload; with --trace 1 it
runs one traced pass of every workload and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Results and spans are also
written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import harness  # noqa: E402
import wl_cli  # noqa: E402
import wl_construct  # noqa: E402
import wl_orient  # noqa: E402
import wl_repnum  # noqa: E402

WORKLOADS = {"repnum": wl_repnum, "orient": wl_orient, "construct": wl_construct, "cli": wl_cli}
# setup_s is the median of at least SETUP_REPEATS setups, and of as many more
# as fit in SETUP_MIN_S seconds, up to SETUP_MAX_REPEATS: a short setup is
# timed often enough that one slow moment of the machine does not set it
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 25
P99_MIN_OPS = 1000  # a 99th percentile needs at least ten samples beyond it

# Per-layer totals summed over the spans of every workload's traced pass.
SPAN_TOTALS = (
    "words.derive_graph", "words.represents", "words.parse_word", "words.Word",
    "graphs.parse_graph", "graphs.Graph", "graphs.format_graph", "chords.crossing_graph",
) + tuple(f"transforms.{t}" for t in wl_construct.TRANSFORMS)


class SetupError(Exception):
    """The checkout cannot be benchmarked (no importable `wordrep` in src/)."""


def fresh_wordrep():
    """Import `wordrep` from src/ anew, so that each setup pays the import."""
    for name in [m for m in sys.modules if m == "wordrep" or m.startswith("wordrep.")]:
        del sys.modules[name]
    try:
        wr = importlib.import_module("wordrep")
    except ImportError as exc:
        raise SetupError(f"cannot import wordrep from {SRC}: {exc}") from None
    if not os.path.abspath(wr.__file__).startswith(SRC + os.sep):
        raise SetupError(f"wordrep was imported from {wr.__file__}, not from {SRC}")
    return wr


def setup(name: str, seed: int, tr: harness.Tracer, paths, repeats: int,
          min_s: float = 0.0, max_repeats: int = 1):
    """Import plus input generation, `repeats` times or more; returns (state, median s)."""
    times: list[float] = []
    st = None
    while len(times) < repeats or (sum(times) < min_s and len(times) < max_repeats):
        st = None
        gc.collect()
        t0 = perf_counter()
        wr = fresh_wordrep()
        st = WORKLOADS[name].setup(wr, seed, tr, paths)
        times.append(perf_counter() - t0)
    return st, statistics.median(times)


def selftest(name: str) -> list[str]:
    """Descriptions of the corrupted outputs that the checker failed to reject."""
    wr = fresh_wordrep()
    return [desc for desc, ok in WORKLOADS[name].selftest(wr) if not ok]


def measure(name: str, st, tr: harness.Tracer, seconds: float):
    """Whole passes until the next one would exceed `seconds` of pass time."""
    wl = WORKLOADS[name]
    passes: list[harness.PassResult] = []
    errors: list[str] = []
    first = None
    while True:
        gc.collect()
        p = harness.run_pass(st.ops, tr, f"{name}.op")
        passes.append(p)
        if first is None:
            errors += wl.check(st, p.results)
            first = [wl.digest(r) for r in p.results]
        else:
            errors += [f"operation {i} changed its output between passes"
                       for i, r in enumerate(p.results) if wl.digest(r) != first[i]]
        p.results = None  # outputs must not pile up in the measured process
        spent = sum(q.wall_s for q in passes)
        if spent + statistics.median(q.wall_s for q in passes) > seconds:
            return passes, errors


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(name: str, seed: int, seconds: float, paths):
    tr = harness.Tracer()
    st, setup_s = setup(name, seed, tr, paths, SETUP_REPEATS, SETUP_MIN_S, SETUP_MAX_REPEATS)
    passes, errors = measure(name, st, tr, seconds)
    times = [t for p in passes for t in p.op_s]
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "op_ms_p50": (statistics.median(times) * 1000.0, "ms"),
        "peak_rss_mb": (peak_rss_mb(name), "MB"),
    }
    # the tail percentiles rest on few samples per run and move with the
    # machine's noise more than any bound allows, so they are printed only
    notes = [f"{len(passes)} pass(es) of {len(st.ops)} operations",
             f"op_ms_p90 {harness.percentile(times, 90) * 1000.0:.4f} ms"]
    if len(st.ops) >= P99_MIN_OPS:
        notes.append(f"op_ms_p99 {harness.percentile(times, 99) * 1000.0:.4f} ms")
    attempted = sum(len(p.op_s) for p in passes)
    failed = sum(p.failed for p in passes)
    return attempted, failed, errors, metrics, notes, []


def traced(name: str, seed: int, paths):
    """An untraced pass of `name`, then one traced pass of every workload."""
    tr = harness.Tracer()
    st, _ = setup(name, seed, tr, paths, 1)
    gc.collect()
    ref = harness.run_pass(st.ops, tr, f"{name}.op")
    errors = WORKLOADS[name].check(st, ref.results)
    attempted, failed = len(ref.op_s), ref.failed
    metrics: dict[str, tuple] = {}
    views = []
    order = [name] + [w for w in WORKLOADS if w != name]
    for wname in order:
        wl = WORKLOADS[wname]
        first = len(tr.spans)
        tr.on = True
        wst, _ = setup(wname, seed, tr, paths, 1)
        gc.collect()
        p = harness.run_pass(wst.ops, tr, f"{wname}.op")
        tr.on = False
        errors += wl.check(wst, p.results)
        attempted += len(p.op_s)
        failed += p.failed
        view = harness.SpanView(tr.spans, first, wst.ops, p.results)
        views.append(view)
        metrics.update(wl.layers(wst, view))
        if wname == name:
            overhead = (p.wall_s - ref.wall_s) / ref.wall_s * 100.0
    for span in SPAN_TOTALS:
        metrics[f"{span}.ms"] = (sum(v.total(span) for v in views), "ms")
    metrics["trace.overhead_pct"] = (overhead, "%")
    notes = [f"untraced pass of {name}: {ref.wall_s:.3f} s; {len(tr.spans)} spans"]
    return attempted, failed, errors, metrics, notes, tr.spans


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def run_one(args) -> int:
    sys.path.insert(0, SRC)
    paths = SimpleNamespace(src=SRC, workdir=os.path.join(OUT, f"cli-work-{os.getpid()}"))
    try:
        bad = selftest(args.workload)
        if bad:
            print("checker self-test failed: " + "; ".join(bad), file=sys.stderr)
            return 3
        if args.trace:
            outcome = traced(args.workload, args.seed, paths)
        else:
            outcome = end_to_end(args.workload, args.seed, args.seconds, paths)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(paths.workdir, ignore_errors=True)
    attempted, failed, errors, metrics, notes, spans = outcome

    for err in errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(OUT, exist_ok=True)
    write_json(os.path.join(OUT, f"result-{tag}.json"), result)
    if spans:
        keys = ("name", "start", "end", "parent", "op")
        write_json(os.path.join(OUT, f"spans-{tag}.json"), [dict(zip(keys, s)) for s in spans])
    print(f"workload {args.workload} seed {args.seed}: {attempted} attempted, {failed} failed, "
          f"{'correct' if not errors else f'{len(errors)} check(s) failed'}; " + "; ".join(notes))
    for k, (v, u) in metrics.items():
        print(f"  {k:36s} {v:14.4f} {u}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in turn, as its own process, one after the other."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][k if args.trace else f"{name}.{k}"] = v
    print(json.dumps(total))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="only show that every checker rejects corrupted outputs")
    args = ap.parse_args()
    if args.selftest:
        sys.path.insert(0, SRC)
        try:
            wr = fresh_wordrep()
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        failures = 0
        for name, wl in WORKLOADS.items():
            for desc, ok in wl.selftest(wr):
                failures += not ok
                print(f"{'PASS' if ok else 'FAIL'}  {desc}")
        return 1 if failures else 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
