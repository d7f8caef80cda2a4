"""Self-test of the benchmark: every workload at toy size.

    python3 -m pytest bench/test_bench.py

Each workload runs untraced and traced through `run.py` with `--toy`,
on a toy world whose inputs are prepared once for the module in a
temporary cache directory. The test checks the result line's shape,
that every operation passed, and that every metric emitted is declared
in BENCHMARK.json with its unit and has a well-formed name.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOADS = ("train", "ingest", "serve")


def run_bench(cwd, *args, timeout=600):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return tmp_path_factory.mktemp("bench-cache")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_at_toy_size(workload, trace, spec, cache):
    done = run_bench(ROOT, "--workload", workload, "--seed", "5",
                     "--seconds", "1", "--trace", str(trace), "--toy",
                     "--cache-dir", str(cache))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1

    declared = {m["name"]: m for m in
                spec["per_layer" if trace else "end_to_end"]}
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert name in declared, f"{name} is not declared in BENCHMARK.json"
        assert metric["unit"] == declared[name]["unit"], name
        assert isinstance(metric["value"], float), name
        assert math.isfinite(metric["value"]), name
    assert set(result["metrics"]) == set(declared)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_matches_the_code(spec):
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        from tracing import PER_LAYER
        from workloads import END_TO_END, WORKLOADS as CLASSES
    finally:
        del sys.path[:2]
    assert [w["name"] for w in spec["workloads"]] == list(CLASSES)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == {name: (unit, better) for name, unit, better in PER_LAYER}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "--workload", "train", "--seed", "1",
                     "--seconds", "1", "--trace", "0", timeout=180)
    assert done.returncode != 0
    assert not done.stdout.strip()
