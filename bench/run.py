#!/usr/bin/env python3
"""Run one kgchat benchmark workload and print its result.

    python3 bench/run.py --workload train --seed 1 --seconds 20 --trace 0

Run from anywhere; the program under test is the `src/` tree next to
this directory. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
Earlier lines give the environment stamp, each phase's operation
counts and the per-phase figures; the same record, with per-round figures, is written to
`.bench_build/kgchat/results/`. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("train", "ingest", "serve")
SETUP_REPEATS = 7
# BLAS threads; kept at or below nproc. The arrays are tiny, so one
# thread is also the fastest and the steadiest setting.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--toy", action="store_true",
                    help="toy-sized world and rounds, for the self-test")
    ap.add_argument("--cache-dir", type=Path,
                    default=ROOT / ".bench_build" / "kgchat",
                    help="where prepared inputs, scratch files and results go")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor() or "unknown"


def _git(*argv) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", *argv], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


def env_stamp(args, source_sha256: str) -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    nproc = os.cpu_count() or 1
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "toy": args.toy,
        "python": sys.version.split()[0], "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": int(BLAS_THREADS)},
        "nproc": nproc, "cpu_model": _cpu_model(),
        "git_commit": commit.strip() if commit else None,
        "git_dirty": None if status is None else bool(status.strip()),
        "source_sha256": source_sha256,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(cls, ctx, args) -> tuple:
    from workloads import END_TO_END, Plan
    wl = cls(ctx)
    for _ in range(SETUP_REPEATS):
        wl.timed_setup()
    wl.run(Plan(seconds=args.seconds))
    values = {"setup_s": wl.setup_s(), "peak_rss_mb": _peak_rss_mb(),
              **wl.end_to_end()}
    metrics = {name: {"value": float(v), "unit": END_TO_END[name][0]}
               for name, v in values.items()}
    return [wl], metrics, {"figures": wl.figures()}


def run_traced(cls, ctx, args) -> tuple:
    """Half the time untraced, then the same operations traced; the
    ratio of the two (scaled) busy times is the tracing overhead."""
    from tracing import PER_LAYER, Tracer, layer_values
    from workloads import Phase, Plan

    plain = cls(ctx)
    plain.timed_setup()
    plan = Plan(seconds=args.seconds / 2)
    plain.run(plan)

    tracer = Tracer()
    traced = cls(ctx, span=tracer.span)
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            traced.timed_setup()
        traced.run(Plan(counts=plan.counts_done()))
    finally:
        tracer.uninstall()

    coverage = Phase("trace_coverage")
    calls = tracer.calls_by_name()
    for name in cls.reach:
        coverage.record(calls.get(name, 0) > 0,
                        f"{name} recorded no call; was it rebound?")
    for name, want in traced.issued().items():
        got = calls.get(name, 0)
        coverage.record(got == want, f"{name}: {got} traced calls, "
                                     f"{want} issued")
    traced.phases["trace_coverage"] = coverage

    values = layer_values(tracer,
                          {**traced.layer_counts(), **traced.quality()},
                          overhead=traced.busy() / plain.busy())
    units = {name: unit for name, unit, _ in PER_LAYER}
    metrics = {name: {"value": float(v), "unit": units[name]}
               for name, v in values.items()}
    spans = ctx.cache / "results" / \
        f"{args.workload}-seed{args.seed}.spans.npz"
    spans.parent.mkdir(parents=True, exist_ok=True)
    tracer.save(spans)
    extra = {"spans": len(tracer.name), "span_file": str(spans),
             "counts": plan.counts_done(), "calls": calls,
             "figures": plain.figures()}
    return [plain, traced], metrics, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kgchat" / "__init__.py").is_file():
        print(f"error: no kgchat sources under {SRC}; run the benchmark "
              f"from a full checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import workloads

    sizes = workloads.TOY if args.toy else workloads.FULL
    ctx = workloads.Context(root=ROOT, cache=args.cache_dir.resolve(),
                            sizes=sizes, seed=args.seed)
    stamp = env_stamp(args, workloads.source_digest(SRC))
    print("env " + json.dumps(stamp, sort_keys=True), flush=True)
    try:
        ctx.prep = workloads.prepare(ctx)
    except (workloads.BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: could not prepare inputs: {exc}", file=sys.stderr)
        return 1
    cls = workloads.WORKLOADS[args.workload]
    runner = run_traced if args.trace else run_untraced
    instances, metrics, extra = runner(cls, ctx, args)

    phases = {}
    for wl in instances:
        for ph in wl.phases.values():
            total = phases.setdefault(ph.name, [0, 0, 0])
            total[0] += ph.sent
            total[1] += ph.ok
            total[2] += ph.failed
    for name, (sent, ok, failed) in phases.items():
        print(f"phase {name}: sent {sent}, ok {ok}, failed {failed}")
    print("figures " + json.dumps(extra["figures"], sort_keys=True))
    attempted = sum(p[0] for p in phases.values())
    failed = sum(p[2] for p in phases.values())
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    out = ctx.cache / "results"
    out.mkdir(parents=True, exist_ok=True)
    record = {"env": stamp, "result": result,
              "phases": {k: dict(zip(("sent", "ok", "failed"), v))
                         for k, v in phases.items()},
              "details": [wl.details() for wl in instances],
              "fastest_probe_s": ctx.speed.fastest, **extra}
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
