"""The benchmark's tracer wraps public swapnas names; keep every one of them present."""

import importlib
from pathlib import Path

import pytest

import swapnas
from swapnas import AssemblyConfig, SearchConfig

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_tracer_installs_on_every_traced_name_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracing = importlib.import_module("tracing")
    original = swapnas.score_cell
    tracer = tracing.Tracer()
    tracer.install()  # getattr on every TRACED name: a missing one raises here
    try:
        assert swapnas.score_cell is not original
    finally:
        tracer.uninstall()
    assert swapnas.score_cell is original


def test_traced_search_shows_one_score_span_per_distinct_cell(monkeypatch):
    # The benchmark's evolution.score_calls and useful_ratio read the
    # scoring.score_cell spans, so the search must call score_cell through
    # a name the tracer wraps, and call it once per distinct cell.
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracing = importlib.import_module("tracing")
    cfg = SearchConfig(
        population=6,
        cycles=12,
        mutation_times=4,
        batch="gauss:4x3x6x6",
        assembly=AssemblyConfig(depth=1, stem_channels=4),
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        span = tracer.begin("bench.op", "bench")
        result = swapnas.run_search(cfg)
        tracer.end(span)
    finally:
        tracer.uninstall()
    metrics = tracing.module_metrics(tracer, swapnas.count_flops, 1.0, 1.0)
    assert metrics["evolution.evaluations"] == result.evaluations
    assert metrics["evolution.score_calls"] == metrics["evolution.distinct_cells"] > 0
    assert metrics["evolution.score_calls"] < result.evaluations
    assert metrics["evolution.useful_ratio"] == 1.0


@pytest.mark.parametrize("name", ["nb201-score", "search-small", "ablate-dims"])
def test_each_workload_runs_one_operation_that_passes_its_check(monkeypatch, tmp_path, name):
    # Runs the call forms workloads.py uses, which the TRACED names alone do not pin.
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    workloads = importlib.import_module("workloads")
    workload = workloads.WORKLOADS[name](0, str(tmp_path))
    out, _ = workload.op(0)
    assert workload.check(0, out) is None
