"""scripts/bench_pairs.py's summarizer and record check, on fixed
numbers."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [10.0, 12.0, 11.0, 13.0, 9.0]
CHANGE = [12.0, 12.0, 10.0, 15.0, 11.0]


@pytest.mark.parametrize("better, wins", [("higher", 3), ("lower", 1)])
def test_summarize_on_fixed_numbers(better, wins):
    """Medians 11 and 12; the ratio to 4 decimals; a tied pair counts
    for neither side; quartiles are statistics.quantiles(n=4)'s
    (exclusive) first and third."""
    assert bench_pairs.summarize(better, PARENT, CHANGE) == {
        "parent_median": 11.0, "change_median": 12.0,
        "median_ratio": 1.0909, "change_wins": wins,
        "parent_quartiles": [9.5, 12.5]}


def test_summarize_rounds_to_the_stored_decimals():
    got = bench_pairs.summarize("lower", [1.23456789, 2.0, 3.0],
                                [1.0, 2.00000049, 3.0])
    assert got == {"parent_median": 2.0, "change_median": 2.0,
                   "median_ratio": 1.0, "change_wins": 1,
                   "parent_quartiles": [1.234568, 3.0]}


def test_summarize_refuses_unpaired_runs():
    with pytest.raises(ValueError, match="one change run per parent run"):
        bench_pairs.summarize("higher", PARENT, CHANGE[:-1])
    with pytest.raises(ValueError, match="at least two"):
        bench_pairs.summarize("higher", [1.0], [2.0])


def _record(**changes):
    rec = {"unit": "1/s", "better": "higher", "bound": 0.24,
           "parent": PARENT, "change": CHANGE,
           **bench_pairs.summarize("higher", PARENT, CHANGE)}
    return {**rec, **changes}


@pytest.mark.parametrize("key, value", [
    ("parent_median", 11.00001), ("change_median", 11.0),
    ("median_ratio", 1.0911), ("change_wins", 4), ("change_wins", 3.0),
    ("parent_quartiles", [9.5, 12.6]), ("parent_quartiles", [9.5]),
    ("change_quartiles", [10.5, 14.0])])
def test_check_names_each_figure_that_does_not_recompute(key, value):
    assert bench_pairs.check_record(_record()) == []
    assert bench_pairs.check_record(_record(**{key: value})) == [key]


def test_check_accepts_the_stored_rounding():
    """A median or quartile within a unit of its sixth decimal of the
    exact one recomputes, and a ratio may be of the stored medians; the
    change's quartiles are checked where a record has them."""
    rec = _record(parent_median=11.0000005, median_ratio=1.09095,
                  change_quartiles=[10.5, 13.5000004])
    assert bench_pairs.check_record(rec) == []


def test_check_files_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"workloads": {"serve": {"metrics": {
        "throughput_per_s": _record()}}}, "confirmation_runs": {
        "serve": {"metrics": {"setup_s": _record(better="lower",
                                                 change_wins=1)}}}}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"workloads": {"serve": {"metrics": {
        "throughput_per_s": _record(change_wins=5)}}}}))
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert bench_pairs.main(["--check", str(good)]) == 0
    assert "good.json: 2 metric records checked" in capsys.readouterr().out
    assert bench_pairs.main(["--check", str(good), str(bad)]) == 1
    assert "bad.json/workloads/serve/metrics/throughput_per_s: " \
        "change_wins does not recompute" in capsys.readouterr().out
    assert bench_pairs.main(["--check", str(empty)]) == 1
