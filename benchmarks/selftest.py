#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark (about a minute on two cores).

    python3 benchmarks/selftest.py

For every workload, with three scenes and no minimum run time, it checks:
- the last line names exactly the metrics of BENCHMARK.json, each with its
  unit, and the report line prints every end-to-end metric with unit and
  sample count;
- the same seed twice, untraced and traced, gives identical inputs, outputs
  and deterministic metrics;
- another seed gives other inputs;
and that the benchmark exits non-zero without a result in a directory that
holds only BENCHMARK.json and the benchmark's files.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from bench_inputs import WORKLOADS  # noqa: E402
from run import END_TO_END, EXTRA_END_TO_END  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DETERMINISTIC_E2E = ("rot_err_deg_p50", "ok_frac", "converged_frac", "fail_frac")
DETERMINISTIC_LAYER = (
    "fp_solver.iterations",
    "fp_solver.cap_frac",
    "wp_solver.iterations",
    "wp_solver.converged_frac",
    "geometry.weighted_procrustes_calls",
    "shape_basis.compose_shape_calls",
    "pnp.fail_frac",
    "heatmap.bytes_read",
    "bench.converged_frac",
    "bench.fail_frac",
)


def bench(workload, seed, trace, cwd=ROOT):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "0",
        "--trace", str(trace), "--scenes", "3",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def parse(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    report = json.loads(next(ln for ln in lines if ln.startswith("report "))[7:])
    return report, json.loads(lines[-1])


def check_result(result, trace):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected, (got, expected)


def check_workload(name):
    a_report, a = parse(bench(name, 1, 0))
    b_report, b = parse(bench(name, 1, 0))
    c_report, c = parse(bench(name, 1, 1))
    d_report, d = parse(bench(name, 1, 1))
    e_report, _ = parse(bench(name, 2, 0))
    for result, trace in ((a, 0), (b, 0), (c, 1), (d, 1)):
        check_result(result, trace)

    units = {**END_TO_END, **EXTRA_END_TO_END}
    printed = a_report["end_to_end"]
    assert set(printed) == set(units), printed.keys()
    for metric, entry in printed.items():
        assert entry["unit"] == units[metric] and entry["n"] >= 1, (metric, entry)

    same_seed = (a_report, b_report, c_report, d_report)
    for key in ("inputs_sha256", "outputs_sha256"):
        assert len({r[key] for r in same_seed}) == 1, key
    for metric in DETERMINISTIC_E2E:
        values = {r["end_to_end"][metric]["value"] for r in same_seed}
        assert len(values) == 1, (metric, values)
    for metric in DETERMINISTIC_LAYER:
        assert c["metrics"][metric] == d["metrics"][metric], metric
    assert e_report["inputs_sha256"] != a_report["inputs_sha256"]


def check_without_program():
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch, prefix="selftest-") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(
                ROOT / path, Path(tmp) / path, ignore=shutil.ignore_patterns("__pycache__")
            )
        proc = bench(SPEC["workloads"][0]["name"], 1, 0, cwd=tmp)
    assert proc.returncode != 0, "exit code 0 without the program"
    assert '"correct"' not in proc.stdout, "printed a result without the program"
    try:
        scratch.rmdir()
    except OSError:
        pass  # a benchmark run is using it


def check_spec():
    whys = {w["name"]: w["why"] for w in SPEC["workloads"]}
    assert whys == {name: wl.why for name, wl in WORKLOADS.items()}, whys


def main():
    checks = [("BENCHMARK.json matches the workloads", check_spec)]
    checks += [(f"workload {name}", lambda n=name: check_workload(n)) for name in WORKLOADS]
    checks.append(("no program in the directory", check_without_program))
    failed = 0
    for label, check in checks:
        try:
            check()
            print(f"PASS {label}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {label}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
