"""The benchmark tracer's span names resolve to functions of the package.

``benchmarks/bench_trace.py`` looks up each span by name with ``getattr``,
so a renamed or deleted function would fail only a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACE_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_trace.py"
_spec = importlib.util.spec_from_file_location("bench_trace", TRACE_PATH)
bench_trace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_trace)


@pytest.mark.parametrize("name", bench_trace.SPANS)
def test_span_resolves_to_a_function(name):
    module, attr = name.split(".")
    assert callable(getattr(importlib.import_module("kpfit." + module), attr))


def test_kept_results_are_spans():
    assert set(bench_trace.KEEP_RESULTS) <= set(bench_trace.SPANS)
