"""The benchmark's tracer wraps public swapnas names; keep every one of them present."""

import importlib
from pathlib import Path

import swapnas

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
