#!/usr/bin/env python3
"""Run alternating pairs of the benchmark in two trees, and check the
records such runs wrote.

Each pair runs `bench/run.py --trace 0` once in the parent tree and once
in the change's tree, on the same seed, back to back: odd seeds run the
parent first, even seeds the change first. The pairs of one workload go
into a BENCH_<n>.json record (created, or updated one workload at a
time), with each side's per-run end-to-end metrics and, per metric, the
two medians, median_ratio (change median / parent median), change_wins
(pairs in which the change read better; ties count for neither) and
parent_quartiles (statistics.quantiles(n=4)'s first and third).

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload serve --seeds 2901 2910 --seconds 30 --out BENCH_29.json
    python3 scripts/bench_pairs.py --check BENCH_28.json BENCH_29.json

--check recomputes every metric's medians, ratio, wins and quartiles
(and change_quartiles, where a record has them) from its per-run values,
and exits 1 naming each figure that does not match. The record's
description and claim are prose, written by hand; a rerun keeps them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

# How far a stored figure may lie from the one recomputed from its
# per-run values: a median or quartile is stored to 6 decimals, and a
# ratio to 4, of the stored medians or of the exact ones.
TOLERANCE = {"median": 1e-6, "quartile": 1e-6, "ratio": 6e-5}


def figures(better: str, parent: list, change: list) -> dict:
    """The exact figures of one metric over paired runs: parent[i] and
    change[i] ran as pair i."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need one change run per parent run, at least two")
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q = statistics.quantiles(parent, n=4)
    return {"parent_median": p_med, "change_median": c_med,
            "median_ratio": c_med / p_med,
            "change_wins": sum(sign * (c - p) > 0.0
                               for p, c in zip(parent, change)),
            "parent_quartiles": [q[0], q[2]]}


def summarize(better: str, parent: list, change: list) -> dict:
    """figures(), rounded as a BENCH record stores them."""
    fig = figures(better, parent, change)
    return {"parent_median": round(fig["parent_median"], 6),
            "change_median": round(fig["change_median"], 6),
            "median_ratio": round(fig["median_ratio"], 4),
            "change_wins": fig["change_wins"],
            "parent_quartiles": [round(x, 6) for x in fig["parent_quartiles"]]}


def metric_records(node, path=""):
    """(path, record) for every metric record in a BENCH file: a dict
    with per-run `parent` and `change` lists and a `better` direction,
    wherever it sits."""
    if isinstance(node, dict):
        if isinstance(node.get("parent"), list) and \
                isinstance(node.get("change"), list) and "better" in node:
            yield path, node
        for key, value in node.items():
            yield from metric_records(value, f"{path}/{key}")


def check_record(rec: dict) -> list:
    """The names of the figures of one metric record that do not
    recompute from its per-run values."""
    want = figures(rec["better"], rec["parent"], rec["change"])
    bad = [key for key in ("parent_median", "change_median")
           if abs(rec[key] - want[key]) > TOLERANCE["median"]]
    stored = rec["change_median"] / rec["parent_median"]
    if min(abs(rec["median_ratio"] - r) for r in
           (stored, want["median_ratio"])) > TOLERANCE["ratio"]:
        bad.append("median_ratio")
    if type(rec["change_wins"]) is not int or \
            rec["change_wins"] != want["change_wins"]:
        bad.append("change_wins")
    quartiles = [("parent_quartiles", rec["parent"])]
    if "change_quartiles" in rec:
        quartiles.append(("change_quartiles", rec["change"]))
    for key, values in quartiles:
        q = statistics.quantiles(values, n=4)
        if len(rec[key]) != 2 or any(abs(a - b) > TOLERANCE["quartile"]
                                     for a, b in zip(rec[key], (q[0], q[2]))):
            bad.append(key)
    return bad


def check_files(paths) -> int:
    failures = 0
    for path in paths:
        records = list(metric_records(json.loads(Path(path).read_text())))
        if not records:
            print(f"{path}: no metric records")
            failures += 1
        for where, rec in records:
            for key in check_record(rec):
                print(f"{path}{where}: {key} does not recompute")
                failures += 1
        print(f"{path}: {len(records)} metric records checked")
    return 1 if failures else 0


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """The result line of one untraced bench run in `tree`."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pairs(args) -> int:
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seeds = list(range(args.seeds[0], args.seeds[1] + 1))
    runs = {"parent": [], "change": []}
    order = {}
    for seed in seeds:
        sides = ("parent", "change") if seed % 2 else ("change", "parent")
        order[str(seed)] = f"{sides[0]} first"
        for side in sides:
            res = run_once(trees[side], args.workload, seed, args.seconds)
            runs[side].append(res)
            tput = res["metrics"]["throughput_per_s"]["value"]
            print(f"{args.workload} seed {seed} {side}: throughput "
                  f"{tput:.1f}/s, {res['failed']} of {res['attempted']} "
                  f"failed", file=sys.stderr)
    summary = {
        "seeds": seeds, "pairs": len(seeds), "order": order,
        "operations": {side: {
            "attempted": sum(r["attempted"] for r in rs),
            "failed": sum(r["failed"] for r in rs),
            "correct_runs": sum(bool(r["correct"]) for r in rs)}
            for side, rs in runs.items()},
        "metrics": {}}
    for name, meta in metrics.items():
        values = {side: [round(r["metrics"][name]["value"], 6) for r in rs]
                  for side, rs in runs.items()}
        summary["metrics"][name] = {
            "unit": meta["unit"], "better": meta["better"],
            "bound": meta["bound"], **values,
            **summarize(meta["better"], values["parent"], values["change"])}
    record = {"description": "", "claim": "", "workloads": {}}
    if args.out.exists():
        record = json.loads(args.out.read_text())
    record["workloads"][args.workload] = summary
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", nargs="+", type=Path, metavar="FILE",
                    help="recompute the figures of these records")
    ap.add_argument("--parent", type=Path, help="the parent's tree")
    ap.add_argument("--change", type=Path, help="the change's tree")
    ap.add_argument("--workload")
    ap.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "LAST"))
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--out", type=Path, help="the BENCH_<n>.json to write")
    args = ap.parse_args(argv)
    if args.check:
        return check_files(args.check)
    if None in (args.parent, args.change, args.workload, args.seeds,
                args.out):
        ap.error("running pairs needs --parent, --change, --workload, "
                 "--seeds and --out")
    return run_pairs(args)


if __name__ == "__main__":
    raise SystemExit(main())
