"""Checkpointed searches do not make glibc trim and refault its heap.

The forward pass frees its maps in an order that leaves glibc's heap top
in use between scores.  Allocating ``_conv2d``'s block buffer before its
output instead lets later frees merge into a free top that glibc trims,
and the next score faults the same pages back in: thousands of minor
faults per search-small search, and several per cent of its time.  The
searches run in a fresh interpreter without ``MALLOC_*`` settings, which
move glibc's trim threshold, and with one BLAS thread, as the benchmark
runs them.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Three searches of the benchmark's search-small config after one warm-up
# search; prints the minor faults the three took.  The storm shows only
# with a checkpoint written every cycle.
PROBE = """
import resource, sys
from swapnas import AssemblyConfig, SearchConfig, run_search

def search(seed):
    cfg = SearchConfig(
        population=16, cycles=100, mutation_times=8, seed=seed, batch="gauss:16x3x8x8",
        nodes=4, assembly=AssemblyConfig(depth=1, stem_channels=8),
    )
    run_search(cfg, checkpoint_path=sys.argv[1], checkpoint_every=1)

search(0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for seed in (1, 2, 3):
    search(seed)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_checkpointed_searches_take_few_minor_faults(tmp_path):
    pytest.importorskip("resource")
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("the heap's trim behaviour is glibc's")
    env = {key: value for key, value in os.environ.items() if not key.startswith("MALLOC_")}
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    probe = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path / "search.ckpt")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    assert int(probe.stdout) < 500
