"""Benchmark of the swapnas scoring pipeline: one workload, one seed, one run.

    python3 benchmarks/run.py --workload nb201-score --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  The run is a closed loop with one caller in one process: each
operation starts when the previous one returns, until ``--seconds`` have
passed.  BLAS is pinned to one thread, so the process computes on one core
and the two-core budget leaves one core for the rest of the machine.

With ``--trace 0`` it prints the end-to-end metrics (see METRICS.md).  With
``--trace 1`` it runs each operation twice in turn, without and with spans
around every call into a swapnas module, and prints the per-module metrics,
including the tracing overhead.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--record-reference`` rewrites ``reference.json``, the output digests of the
first operations of each workload at seed 0; any later mismatch counts as
a failed operation.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import hashlib
import json
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

SETUP_REPEATS = 7
REFERENCE_SEED = 0
REFERENCE_OPS = {"nb201-score": 200, "search-small": 20, "ablate-dims": 120}
REFERENCE_FILE = HERE / "reference.json"
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "passes_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
}


def import_library():
    """Import swapnas from this checkout's ``src/`` and nowhere else."""
    import swapnas

    if not Path(swapnas.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"swapnas imported from {swapnas.__file__}, not from {SRC}")
    return swapnas


@dataclass
class OpRecord:
    index: int
    seconds: float
    steps: list[float]
    output: object
    error: str | None


def run_ops(wl, indices, seconds: float | None, tracer=None) -> tuple[list[OpRecord], float]:
    """Closed loop over ``indices``; stop starting operations after ``seconds``."""
    records: list[OpRecord] = []
    start = time.perf_counter()
    for i in indices:
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
        if tracer is not None:
            tracer.op = i
            span = tracer.begin("bench.op", "bench")
        t0 = time.perf_counter()
        try:
            output, steps = wl.op(i)
            error = None
        except Exception:
            output, steps, error = None, None, traceback.format_exc()
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end(span)
            tracer.op = -1
        records.append(OpRecord(i, t1 - t0, steps if steps else [t1 - t0], output, error))
    return records, time.perf_counter() - start


def run_paired(wl, tracer, seconds: float) -> tuple[list[OpRecord], list[OpRecord]]:
    """Run each operation once without and once with the wrappers, in turn.

    Pairing the two runs of an operation cancels the machine's slow phases
    out of the overhead; alternating which one goes first cancels any gain
    from running second.
    """
    plain: list[OpRecord] = []
    traced: list[OpRecord] = []
    start = time.perf_counter()
    for i in range(wl.capacity):
        if time.perf_counter() - start >= seconds:
            break
        for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
            if with_spans:
                tracer.install()
                try:
                    traced += run_ops(wl, [i], None, tracer)[0]
                finally:
                    tracer.uninstall()
            else:
                plain += run_ops(wl, [i], None)[0]
    return plain, traced


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_reference(workload: str, seed: int) -> list[str]:
    if seed != REFERENCE_SEED or not REFERENCE_FILE.exists():
        return []
    return json.loads(REFERENCE_FILE.read_text())["digests"].get(workload, [])


def failures(wl, records: list[OpRecord], reference: list[str]) -> list[str]:
    """One message per failed operation: it raised, broke a bound or left the reference."""
    out = []
    for r in records:
        msg = r.error
        if msg is None:
            msg = wl.check(r.index, r.output)
        if msg is None and r.index < len(reference):
            if digest(wl.canonical(r.output)) != reference[r.index]:
                msg = "output differs from the reference recorded at seed 0"
        if msg is not None:
            out.append(f"op {r.index}: {msg}")
    return out


def time_setup(workload: str, seed: int) -> float:
    """Median time from launching a fresh interpreter to its inputs being built.

    The child prints the system-wide monotonic clock when its set-up ends, so
    neither its exit nor the wait for it is counted.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic_ns()
        done = subprocess.run(cmd, cwd=ROOT, check=True, timeout=120, capture_output=True, text=True)
        times.append((int(done.stdout.split()[-1]) - t0) / 1e9)
    return statistics.median(times)


def blas_threads() -> str:
    """Thread count reported by the loaded OpenBLAS, if one is loaded."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return "unknown"
    for lib in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def tree_digest(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(p.relative_to(ROOT).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def machine_facts(workload: str, seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = Path(index, "size").read_text().strip()
        except OSError:
            pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "commit": commit,
        "benchmark_digest": tree_digest([p for p in HERE.glob("*") if p.is_file()]),
        "source_digest": tree_digest(SRC.rglob("*.py")),
    }


def end_to_end(wl, records: list[OpRecord], loop_s: float, setup_s: float) -> tuple[dict, list[str]]:
    steps = [s for r in records for s in r.steps]
    passes = sum(wl.passes(r.output) for r in records if r.error is None)
    tail = float(np.percentile(steps, wl.tail_pct))
    beyond = sum(s > tail for s in steps)
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "passes_per_s": passes / loop_s,
        "step_ms_p50": float(np.median(steps)) * 1e3,
        "step_ms_tail": tail * 1e3,
    }
    notes = [
        f"step_ms_tail is p{wl.tail_pct} of {len(steps)} steps, {beyond} beyond it",
        f"loop_s = {loop_s!r} s over {len(records)} operations, {passes} cell passes",
        "op_s = " + json.dumps([round(r.seconds, 4) for r in records]),
    ]
    if wl.name == "nb201-score":
        notes += [
            f"score_cells_per_s = {values['passes_per_s']!r} 1/s",
            f"score_ms_p50 = {values['step_ms_p50']!r} ms",
            f"score_ms_tail = {values['step_ms_tail']!r} ms (p{wl.tail_pct}, n={len(steps)})",
        ]
    elif wl.name == "search-small":
        notes += [
            f"search_s = {statistics.median(r.seconds for r in records)!r} s (median of {len(records)} searches)",
            f"evaluations_per_s = {values['passes_per_s']!r} 1/s",
        ]
    else:
        notes.append(f"ablation_passes_per_s = {values['passes_per_s']!r} 1/s")
    return values, notes


def record_reference(workloads, workload: str) -> None:
    data = {"seed": REFERENCE_SEED, "digests": {}}
    if REFERENCE_FILE.exists():
        data = json.loads(REFERENCE_FILE.read_text())
    with tempfile.TemporaryDirectory(prefix=".bench-run-", dir=ROOT) as workdir:
        wl = workloads[workload](REFERENCE_SEED, workdir)
        records, _ = run_ops(wl, range(REFERENCE_OPS[workload]), None)
        bad = failures(wl, records, [])
        if bad:
            raise SystemExit("cannot record a reference over failed operations:\n" + "\n".join(bad))
    data["digests"][workload] = [digest(wl.canonical(r.output)) for r in records]
    data["source_digest"] = tree_digest(SRC.rglob("*.py"))
    REFERENCE_FILE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    swapnas = import_library()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    Workload = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        Workload(args.seed, str(ROOT))
        print(time.monotonic_ns())
        return 0
    if args.record_reference:
        record_reference(workloads.WORKLOADS, args.workload)
        return 0

    print("machine = " + json.dumps(machine_facts(args.workload, args.seed), sort_keys=True))
    reference = load_reference(args.workload, args.seed)
    with tempfile.TemporaryDirectory(prefix=".bench-run-", dir=ROOT) as workdir:
        if args.trace == 0:
            setup_s = time_setup(args.workload, args.seed)
            wl = Workload(args.seed, workdir)
            wl.warmup()
            records, loop_s = run_ops(wl, range(wl.capacity), args.seconds)
            values, notes = end_to_end(wl, records, loop_s, setup_s)
            units = END_TO_END
        else:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                wl = Workload(args.seed, workdir)
            finally:
                tracer.uninstall()
            wl.warmup()
            plain, traced = run_paired(wl, tracer, args.seconds)
            plain_s = sum(r.seconds for r in plain)
            traced_s = sum(r.seconds for r in traced)
            records = plain + traced
            values = tracing.module_metrics(tracer, swapnas.count_flops, plain_s, traced_s)
            units = {name: spec[0] for name, spec in tracing.MODULE_METRICS.items()}
            notes = [f"untraced_s = {plain_s!r}, traced_s = {traced_s!r} over {len(plain)} operations each"]
            notes += [f"{name}: {what}; should move {moves}"
                      for name, (_, _, what, moves) in tracing.MODULE_METRICS.items()]

    bad = failures(wl, records, reference)
    for msg in bad:
        print("FAILED " + msg.rstrip(), file=sys.stderr)
    checked = f"{len(reference)} reference digests" if reference else "bounds only (no reference for this seed)"
    print(f"failed_share = {len(bad) / len(records)!r} ({len(bad)}/{len(records)}; checked against {checked})")
    for note in notes:
        print(note)
    for name, value in values.items():
        print(f"{name} = {value!r} {units[name]}")
    result = {
        "correct": not bad,
        "attempted": len(records),
        "failed": len(bad),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (ImportError, subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        sys.exit(1)
