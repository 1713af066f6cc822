#!/usr/bin/env python3
"""perfbench: the repository's whole-workflow benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `experiments` binary and the benchmark's probe from source
(into $CARGO_TARGET_DIR, default `.bench_build`), then runs one workload
(paper_sweep, rv_oracle or serve_mix; see BENCHMARK.json and
perfbench/RATIONALE.md) for about S seconds of passes, checks every
output against its reference, and prints a human-readable summary
followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured with
tracing off. With --trace 1 the run is the traced per-layer run: spans
around every call into a layer, untraced and traced passes of the
workload in alternation (the difference of their medians is the tracing
overhead), and the layer probes. Spans are written to
perfbench/work/<workload>-trace1/spans.jsonl at exit.

Exits 2 without a result when the build fails, and 1 when an output is
wrong.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import procs  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = {c.name: c for c in (wl.PaperSweep, wl.RvOracle, wl.ServeMix)}

_PREWARM = re.compile(r"\[prewarm: (\d+) cells across (\d+) workers")


def build():
    """Builds both binaries; returns their paths, or None on failure."""
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "--locked", "-p", "ss-harness",
         "--bin", "experiments"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join("perfbench", "probe", "Cargo.toml")],
    ]
    for argv in steps:
        try:
            r = subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr)
        except OSError as e:
            print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
            return None
        if r.returncode != 0:
            return None
    release = os.path.join(target, "release")
    return os.path.join(release, "experiments"), os.path.join(release, "perfbench-probe")


def spread(xs):
    """(median, first quartile, third quartile) of the samples."""
    if len(xs) < 2:
        return (xs[0], xs[0], xs[0]) if xs else (float("nan"),) * 3
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return statistics.median(xs), q1, q3


def end_to_end(ctx, cls):
    w = cls(ctx)
    w.setup()
    passes = ctx.run_passes(w.one_pass, cls.min_passes)
    w.check()
    return w.e2e(), w.extra(), passes


def traced(ctx, cls):
    """The per-layer run. Every layer figure has one definition, whatever
    the workload; only the tracing overhead is the named workload's."""
    tr = ctx.tracer
    layers = {}
    w = cls(ctx)
    w.setup()
    # Untraced and traced passes alternate, in pairs, for `seconds`.
    walls = ([], [])
    t0, n = time.perf_counter(), 0
    while n % 2 or n < 2 or time.perf_counter() - t0 < ctx.seconds:
        tr.enabled = bool(n % 2)
        with tr.span("workload.pass", cls.name):
            w.one_pass(n)
        walls[n % 2].append(w.walls[-1])
        n += 1
    w.check()
    layers["trace.overhead_frac"] = (
        statistics.median(walls[1]) / statistics.median(walls[0]) - 1, "ratio")

    # serve: one traced pass of the request mix.
    serve = w if isinstance(w, wl.ServeMix) else wl.ServeMix(ctx)
    if serve is not w:
        with tr.span("workload.pass", serve.name):
            serve.one_pass(0)
        serve.check()
    layers.update(serve.serve_layers(serve.passes - 1))

    # exec: a sweep's wall time against the sum of its cells run alone.
    out = ctx.fresh_dir("exec")
    with tr.span("exec.sweep", "fig5"):
        r = ctx.exp(["fig5", "--quick", "--no-progress", "--out", out], "exec")
    shutil.rmtree(out, ignore_errors=True)
    sims, failures, warmup, measure = wl.sweep_summary(r.err)
    m = _PREWARM.search(r.err)
    if r.code != 0 or failures != 0 or not m:
        raise RuntimeError(f"exec probe sweep failed: {r.err[-400:]}")
    workers = int(m.group(2))
    with tr.span("exec.solo_cells", "fig5") as sp:
        t0 = time.monotonic_ns()
        c = procs.run([ctx.probe, "cells", "--exp", "fig5", "--len", f"w{warmup}m{measure}"],
                      ctx.log("cells"))
    if c.code != 0:
        raise RuntimeError(f"probe cells failed: {c.err[-400:]}")
    lines = c.out.splitlines()
    tr.adopt(lines, sp.id, t0)
    solo = [json.loads(l)["seconds"] for l in lines if l.startswith('{"cell"')]
    if len(solo) != sims:
        raise RuntimeError(f"exec probe: {len(solo)} solo cells against {sims} swept")
    layers["exec.busy_frac"] = (sum(solo) / (workers * r.wall_s), "frac")
    layers["exec.tail_s"] = (r.wall_s - sum(solo) / workers, "s")

    # store: the paper sweep's command rerun on its populated directory.
    out = ctx.fresh_dir("store")
    argv = wl.SWEEP + ["--smoke", "--no-progress", "--out", out]
    fill = ctx.exp(argv, "store_fill")
    with tr.span("store.warm_rerun", "paper_sweep"):
        rerun = ctx.exp(argv, "store_rerun")
    shutil.rmtree(out, ignore_errors=True)
    if fill.code or rerun.code or rerun.out != fill.out or wl.sweep_summary(rerun.err)[0] != 0:
        ctx.fail(wl.SWEEP_CELLS, "store: the warm rerun did not reproduce the report from the store")
    layers["store.warm_rerun_ms_per_cell"] = (rerun.wall_s * 1e3 / wl.SWEEP_CELLS, "ms")

    # In-process probes of every other layer.
    with tr.span("probe.layers") as sp:
        t0 = time.monotonic_ns()
        p = procs.run([ctx.probe, "layers", "--dir", ctx.log("probe")]
                      + wl.program_specs(ctx.seed), ctx.log("layers"))
    if p.code != 0:
        raise RuntimeError(f"probe layers failed: {p.err[-400:]}")
    lines = p.out.splitlines()
    tr.adopt(lines, sp.id, t0)
    with open(os.path.join(HERE, "refs", "probe_cells.txt")) as f:
        ref = dict(l.rstrip("\n").split("\t") for l in f if l.strip())
    for rec in map(json.loads, lines):
        if "metric" in rec:
            layers[rec["metric"]] = (rec["value"], rec["unit"])
        elif "cell" in rec:
            ctx.attempted += 1
            if ref.get(rec["cell"]) != rec["stats"]:
                ctx.fail(1, f"probe cell {rec['cell']}: statistics differ from refs/probe_cells.txt")
    return layers, n


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    os.chdir(ROOT)
    bins = build()
    if bins is None:
        print("perfbench: build failed; no result", file=sys.stderr)
        return 2
    work = os.path.join(HERE, "work", f"{args.workload}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    tracer = Tracer(enabled=False)
    ctx = wl.Ctx(ROOT, work, *bins, args.seed, args.seconds, tracer)
    cls = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    try:
        if args.trace:
            wanted = manifest["per_layer"]
            values, passes = traced(ctx, cls)
            samples, extra = {}, {}
        else:
            wanted = manifest["end_to_end"]
            samples, extra, passes = end_to_end(ctx, cls)
            values = {}
            for m in wanted:
                med, _, _ = spread(samples[m["name"]])
                values[m["name"]] = (med, m["unit"])
    except Exception as e:  # a broken run still reaps its children
        procs.stop_all()
        print(f"perfbench: {args.workload} failed: {e}", file=sys.stderr)
        return 1
    procs.stop_all()
    if tracer.enabled:
        tracer.write(os.path.join(work, "spans.jsonl"))

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} passes={passes} elapsed={time.perf_counter() - t0:.1f}s")
    for name, xs in samples.items():
        med, q1, q3 = spread(xs)
        print(f"  {name:<34} {med:14.6g}   n={len(xs)} q1={q1:.6g} q3={q3:.6g}  "
              f"[{' '.join(f'{x:.4g}' for x in xs)}]")
    for name, (v, unit, n) in extra.items():
        print(f"  {name:<34} {v:14.6g} {unit:<6} n={n}")
    frac = ctx.failed / max(ctx.attempted, 1)
    print(f"  {'failed_frac':<34} {frac:14.6g}   ({ctx.failed} of {ctx.attempted})")
    if args.trace:
        for name, (v, unit) in sorted(values.items()):
            print(f"  {name:<34} {v:14.6g} {unit}")
        print("  self time by span (s, count):")
        for name, (s, n) in sorted(tracer.self_times().items(), key=lambda kv: -kv[1][0]):
            print(f"    {name:<32} {s:10.4f} {n:6d}")
    for msg in ctx.problems[:20]:
        print(f"  FAILED: {msg}")

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"] for m in wanted}
    wrong = [n for n in units if values[n][1] != units[n]]
    if wrong:
        print(f"perfbench: unit differs from BENCHMARK.json for {', '.join(wrong)}",
              file=sys.stderr)
        return 1
    correct = ctx.failed == 0 and ctx.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {n: {"value": values[n][0], "unit": units[n]} for n in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
