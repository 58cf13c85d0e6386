"""Capture digests under other OpenBLAS kernels and thread counts.

The determinism contract promises byte-identical outputs for a seed.  The
float bytes of a GEMM depend on the kernel OpenBLAS picks at run time and,
for some kernels, on its thread count; captures keep only sign bits, so
they must not.  This reruns tests/test_capture_digests.py in child
processes under a forced kernel and thread count, set in the child's
environment only.  At one thread it also reruns the blocked conv's
bytewise test: under every kernel tried, the blocks give the one GEMM's
float bytes at one thread, while under Haswell at two threads the one
GEMM's own bytes already change with the thread count.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import swapnas

DIGESTS = Path(__file__).with_name("test_capture_digests.py")
BLOCKED_CONV = f"{DIGESTS.with_name('test_network.py')}::TestConv2d::test_blocked_conv_matches_tensordot_bytewise"


def _dynamic_arch_openblas() -> bool:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.mark.skipif(
    not _dynamic_arch_openblas(),
    reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so no kernel can be forced",
)
@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("coretype", ["Haswell", "Sandybridge", None], ids=["haswell", "sandybridge", "detected"])
def test_capture_digests_hold_under_kernel_and_threads(coretype, threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    src = str(Path(swapnas.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(DIGESTS)]
        + ([BLOCKED_CONV] if threads == "1" else []),
        cwd=DIGESTS.parents[1],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
