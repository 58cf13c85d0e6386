"""Capture digests and the standardise under numpy's baseline SIMD loops.

numpy picks some of its loops at run time from the CPU's features, and the
standardise's einsum sums rest on those loops as a conv's GEMM rests on the
BLAS kernel.  This reruns tests/test_capture_digests.py and the
standardise's bytewise tests in a child process with
``NPY_DISABLE_CPU_FEATURES`` naming every target numpy dispatches to, set in
the child's environment only, so only the baseline loops run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import swapnas

DIGESTS = Path(__file__).with_name("test_capture_digests.py")
NETWORK = DIGESTS.with_name("test_network.py")
SIMD = np.show_config(mode="dicts").get("SIMD Extensions", {})
DISPATCH = SIMD.get("found", []) + SIMD.get("not found", [])
PROBE = "import json, numpy as np; print(json.dumps(np.show_config(mode='dicts')['SIMD Extensions']))"


def _run(args, env):
    return subprocess.run(
        [sys.executable] + args,
        cwd=DIGESTS.parents[1],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.skipif(not DISPATCH, reason="numpy dispatches to no SIMD target beyond its baseline")
def test_capture_digests_and_standardise_hold_under_baseline_simd():
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(DISPATCH))
    src = str(Path(swapnas.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    probe = _run(["-c", PROBE], env)
    assert probe.returncode == 0, probe.stderr[-2000:]
    assert not json.loads(probe.stdout).get("found"), probe.stdout  # every dispatch target is off
    proc = _run(
        ["-m", "pytest", "-q", "-p", "no:cacheprovider", str(DIGESTS),
         f"{NETWORK}::TestStandardise", f"{NETWORK}::TestStandardiseAtScale"],
        env,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
