"""Committed BENCH_*.json files are internally consistent.

Each file holds alternating parent/change runs of benchmarks/run.py
(``runs``, one report and result line each) and a ``summary`` of the
untraced ones per workload and metric. Every run must have passed its output
checks, and every summary figure must recompute from the runs it cites.
"""

import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
BETTER = {
    m["name"]: m["better"]
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
}


def load(path):
    return json.loads(path.read_text())


def untraced_values(doc, workload, metric, side):
    """{pair: metric value} of the untraced runs of one side."""
    values = {}
    for run in doc["runs"]:
        if (run["workload"], run["side"], run["trace"]) == (workload, side, 0):
            assert run["pair"] not in values, (workload, side, run["pair"])
            values[run["pair"]] = run["result"]["metrics"][metric]["value"]
    return values


def test_there_are_bench_files():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_every_run_passed_its_checks(path):
    doc = load(path)
    assert doc["runs"]
    for run in doc["runs"]:
        where = (run["workload"], run["side"], run["trace"], run["pair"])
        assert run["result"]["correct"] is True, where


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_summary_recomputes_from_runs(path):
    doc = load(path)
    for workload, metrics in doc["summary"].items():
        for metric, summary in metrics.items():
            where = (workload, metric)
            sides = {
                side: untraced_values(doc, workload, metric, side)
                for side in ("parent", "change")
            }
            for side, values in sides.items():
                got = summary[side]
                assert sorted(got["values"]) == sorted(values.values()), (where, side)
                q1, median, q3 = np.percentile(list(values.values()), [25, 50, 75])
                assert got["median"] == pytest.approx(median, rel=1e-12), (where, side)
                assert got["q1"] == pytest.approx(q1, rel=1e-12), (where, side)
                assert got["q3"] == pytest.approx(q3, rel=1e-12), (where, side)
            pairs = sorted(sides["parent"])
            assert pairs == sorted(sides["change"]), where
            assert summary["pairs"] == len(pairs), where
            sign = 1.0 if BETTER[metric] == "higher" else -1.0
            wins = sum(
                sign * (sides["change"][p] - sides["parent"][p]) > 0.0 for p in pairs
            )
            assert summary["change_wins"] == wins, where
            if "ties" in summary:
                ties = sum(sides["change"][p] == sides["parent"][p] for p in pairs)
                assert summary["ties"] == ties, where
