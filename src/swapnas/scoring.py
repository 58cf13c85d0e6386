"""Turn (cell, batch, seed) triples into score records.

Batch descriptors are short strings: ``gauss:SxCxWxH`` draws a seeded
standard-normal batch, anything else is read as a raw tensor file path.
Per-candidate weight seeds are derived by XOR-ing the global seed with a
stable salt (the cell digest, or an explicit candidate id), so scoring
many candidates in parallel gives the same records in any schedule.
"""

from __future__ import annotations

import re

from .cells import AssemblyConfig, CellMatrix, params_to_megabytes, trace_graph
from .metric import ActivationCapture, ScoreRecord, swap_score
from .network import InputBatch, build_network, forward_capture, gaussian_batch, read_tensor_file

_GAUSS_RE = re.compile(r"^gauss:(\d+)x(\d+)x(\d+)x(\d+)$")
_SEED_MASK = (1 << 64) - 1
# Salt of the batch seed, so a run's batch and its weights draw from different streams.
BATCH_SALT = 0x5A3C6F1D
# CIFAR-shaped batch used when a run names none.
DEFAULT_BATCH = "gauss:32x3x32x32"


def derive_seed(global_seed: int, salt: int) -> int:
    """Per-candidate seed: global seed XOR salt, folded to 64 bits."""
    return (int(global_seed) ^ int(salt)) & _SEED_MASK


def parse_batch_spec(spec: str) -> tuple[str, tuple[int, ...] | str]:
    """Split a batch descriptor into ('gauss', (S, C, W, H)) or ('file', path)."""
    m = _GAUSS_RE.match(spec)
    if m:
        s, c, w, h = (int(g) for g in m.groups())
        if min(s, c, w, h) < 1:
            raise ValueError(f"batch spec dims must be positive: {spec!r}")
        return "gauss", (s, c, w, h)
    if spec.startswith("gauss:"):
        raise ValueError(f"malformed synthetic batch spec {spec!r}, expected gauss:SxCxWxH")
    return "file", spec


def make_batch(spec: str, seed: int) -> InputBatch:
    """Materialise a batch descriptor; the seed only matters for synthetic specs."""
    kind, detail = parse_batch_spec(spec)
    if kind == "gauss":
        s, c, w, h = detail
        return gaussian_batch(s, (c, w, h), seed)
    return read_tensor_file(detail)


def run_batch(spec: str, global_seed: int) -> InputBatch:
    """The one input batch a run with this global seed scores every cell on."""
    return make_batch(spec, derive_seed(global_seed, BATCH_SALT))


def score_and_capture(
    cell: CellMatrix,
    assembly: AssemblyConfig,
    batch: InputBatch,
    weight_seed: int,
) -> tuple[ScoreRecord, ActivationCapture]:
    """Score one architecture on one batch and keep the activation capture.

    The cell is assembled once; size and FLOP counts come from the same
    node graph the forward pass runs.  The record is raw: ``reg_swap``
    equals ``swap``, and callers apply a size bell with
    :meth:`ScoreRecord.regularised`.  The record's ``arch_id`` and
    ``batch`` labels are left empty for the caller to set.
    """
    net = build_network(cell, assembly, weight_seed, in_channels=batch.channels)
    capture = forward_capture(net, batch)
    raw = swap_score(capture)
    trace = trace_graph(net.nodes, batch.dims)
    return ScoreRecord(
        arch_id="",
        swap=raw,
        reg_swap=float(raw),
        size_mb=params_to_megabytes(trace.parameters),
        flops=trace.macs,
        seed=weight_seed,
        batch="",
    ), capture


def score_cell(
    cell: CellMatrix,
    assembly: AssemblyConfig,
    batch: InputBatch,
    weight_seed: int,
) -> ScoreRecord:
    """Score one architecture on one batch (see :func:`score_and_capture`)."""
    return score_and_capture(cell, assembly, batch, weight_seed)[0]
