"""Untrained ReLU networks and the capturing forward pass.

Networks are node graphs (see :mod:`swapnas.cells`) with deterministic
random weights: zero-mean Gaussians scaled by fan-in, in the shapes
:func:`swapnas.cells.trace_graph` gives, and zero biases.  In the forward
pass each node only computes its output; a dense layer's output is an
(S, units, 1, 1) map, so every node that feeds a ReLU (``scored``) then
takes the same step: an optional per-channel batch standardisation, the
bit ``value > 0`` of every value packed into the capture, and the ReLU.
Nodes that read the same input tuple share one fan-in sum, and each map is
kept as long as :class:`swapnas.cells.GraphTrace` plans.  A node overwrites
only a map it owns: its own new output, or the sum that a skip alone reads.
The standardisation emulates normalisation layers at initialisation, so it is part
of the network (``NetworkInstance.standardise``, set by :func:`build_network`),
and a capture depends only on (network, batch).  It must be switched off when
testing the positive-scale sign invariance of plain convolution chains.
"""

from __future__ import annotations

import math
import os
import stat
from dataclasses import dataclass

import numpy as np

from .cells import (
    AssemblyConfig,
    AssemblyError,
    CellMatrix,
    NodeSpec,
    ShapeError,
    assemble_descriptor,
    trace_graph,
)
from .metric import ActivationCapture, pack_bit_rows

TENSOR_MAGIC = "SWAPTENSOR v1"
_STANDARDISE_EPS = 1e-5


class NumericOverflowError(FloatingPointError):
    """A forward pass produced a non-finite intermediate value."""


@dataclass(frozen=True)
class InputBatch:
    """A batch of raw input tensors with axes (sample, channel, width, height)."""

    data: np.ndarray

    def __post_init__(self) -> None:
        # A private C-ordered copy, frozen; the caller's array stays writeable.
        arr = np.array(self.data, dtype=np.float64, order="C")
        if arr.ndim != 4:
            raise ValueError("input batch must have axes (sample, channel, width, height)")
        if min(arr.shape) < 1:
            raise ValueError(f"all batch axes must be positive, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("input batch contains non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def n_samples(self) -> int:
        return int(self.data.shape[0])

    @property
    def channels(self) -> int:
        return int(self.data.shape[1])

    @property
    def dims(self) -> tuple[int, int, int]:
        return tuple(int(d) for d in self.data.shape[1:])


def gaussian_batch(n_samples: int, dims: tuple[int, int, int], seed) -> InputBatch:
    """Standard-normal synthetic batch with the given (C, W, H) dims."""
    rng = np.random.default_rng(seed)
    c, w, h = dims
    return InputBatch(rng.standard_normal((n_samples, c, w, h)))


def write_tensor_file(path, batch: InputBatch) -> None:
    """Write the raw tensor format: ASCII header line, then little-endian float32."""
    s, c, w, h = batch.data.shape
    with open(path, "wb") as fh:
        fh.write(f"{TENSOR_MAGIC} {s} {c} {w} {h}\n".encode("ascii"))
        fh.write(batch.data.astype("<f4").tobytes())


def _check_payload_size(size: int, expected: int) -> None:
    if size != expected:
        raise ValueError(f"tensor payload has {size} bytes, expected {expected}")


def read_tensor_file(path) -> InputBatch:
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", errors="replace").rstrip("\n")
        parts = header.split()
        if len(parts) != 6 or " ".join(parts[:2]) != TENSOR_MAGIC:
            raise ValueError(f"not a {TENSOR_MAGIC} file: header {header!r}")
        try:
            s, c, w, h = (int(p) for p in parts[2:])
        except ValueError:
            raise ValueError(f"malformed tensor header {header!r}") from None
        if min(s, c, w, h) < 1:
            raise ValueError(f"tensor header dims must be positive: {header!r}")
        expected = s * c * w * h * 4
        # A regular file's size is checked before any of it is read, so a
        # header asking for too much reads nothing; a pipe's only once read.
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode):
            _check_payload_size(info.st_size - fh.tell(), expected)
        payload = fh.read()
    _check_payload_size(len(payload), expected)
    data = np.frombuffer(payload, dtype="<f4").reshape(s, c, w, h)
    return InputBatch(data.astype(np.float64))


@dataclass(frozen=True)
class NetworkInstance:
    """Immutable assembled network: node graph, seeded random weights and its standardise switch."""

    nodes: tuple[NodeSpec, ...]
    weights: tuple[np.ndarray | None, ...]
    seed: int
    in_channels: int
    standardise: bool = True

    def __post_init__(self) -> None:
        # Private C-ordered copies; the caller's arrays stay writeable.
        self._freeze(tuple(None if w is None else np.array(w, dtype=np.float64, order="C") for w in self.weights))

    def _freeze(self, weights: tuple[np.ndarray | None, ...]) -> None:
        if len(self.nodes) != len(weights):
            raise AssemblyError("one weight slot per node is required")
        for w in weights:
            if w is not None:
                w.setflags(write=False)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def _adopt(
        cls,
        nodes: tuple[NodeSpec, ...],
        weights: tuple[np.ndarray | None, ...],
        seed: int,
        in_channels: int,
        standardise: bool,
    ) -> NetworkInstance:
        """The instance ``cls(...)`` builds, but holding ``weights``' own arrays, frozen.

        Only for C-ordered float64 arrays the library has just made and
        nobody else holds: the public constructor copies them.
        """
        net = object.__new__(cls)
        object.__setattr__(net, "nodes", nodes)
        object.__setattr__(net, "seed", seed)
        object.__setattr__(net, "in_channels", in_channels)
        object.__setattr__(net, "standardise", standardise)
        net._freeze(weights)
        return net


def network_from_nodes(
    nodes: tuple[NodeSpec, ...], seed: int, in_channels: int, standardise: bool = True
) -> NetworkInstance:
    """Attach deterministic weights to a node graph.

    Conv and dense weights are drawn from N(0, 2/fan_in) in node order from
    a generator seeded with ``seed``, so identical (graph, seed) pairs give
    bit-identical weights.  Biases are zero and therefore not stored.
    """
    rng = np.random.default_rng(seed)
    weights: list[np.ndarray | None] = []
    for shape in trace_graph(nodes, (in_channels,)).weight_shapes:
        fan_in = math.prod(shape[1:])
        weights.append(rng.standard_normal(shape) * np.sqrt(2.0 / fan_in) if shape else None)
    return NetworkInstance._adopt(tuple(nodes), tuple(weights), seed, in_channels, standardise)


def build_network(
    cell: CellMatrix,
    assembly: AssemblyConfig,
    seed: int,
    in_channels: int = 3,
) -> NetworkInstance:
    """Assemble a cell stack and give it seeded random weights."""
    nodes = assemble_descriptor(cell, assembly, in_channels)
    return network_from_nodes(nodes, seed, in_channels, assembly.standardise)


def build_mlp(
    in_features: int,
    hidden_units: list[int] | tuple[int, ...],
    seed: int,
    head_units: int = 0,
) -> NetworkInstance:
    """Plain dense chain; inputs are (features, 1, 1) tensors.

    Every hidden layer feeds a ReLU and is captured.  The optional head is
    a linear output layer without an activation.
    """
    if in_features < 1:
        raise ValueError("in_features must be at least 1")
    nodes: list[NodeSpec] = [NodeSpec("input", "input")]
    prev = 0
    for li, units in enumerate(hidden_units):
        if units < 1:
            raise ValueError("hidden layer sizes must be at least 1")
        nodes.append(NodeSpec(f"dense{li}", "dense", (prev,), units=int(units), scored=True))
        prev = len(nodes) - 1
    if head_units:
        nodes.append(NodeSpec("head", "dense", (prev,), units=int(head_units)))
    return network_from_nodes(tuple(nodes), seed, in_features)


def _pad(x: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad both spatial axes into a new C-contiguous map, whatever ``x``'s layout."""
    if not padding:
        return x
    s, c, w, h = x.shape
    out = np.zeros((s, c, w + 2 * padding, h + 2 * padding))
    out[:, :, padding:-padding, padding:-padding] = x
    return out


# A block's window matrix holds about this many bytes, so it is still in
# the L2 cache when the GEMM reads what the gather has just written.
_CONV_BLOCK_BYTES = 1 << 20
# OpenBLAS can run a dgemm with M*N*K at or below 10**6 on small-matrix
# kernels, whose bytes differ from those of the one large GEMM; every block
# of a split conv stays above this.
_CONV_BLOCK_MIN_WORK = 10**6


def _conv_blocks(s: int, rows: int, n_out: int, depth: int) -> list[int]:
    """Sample edges of a conv's blocks: block i holds samples ``edges[i]:edges[i + 1]``.

    ``rows`` is W'*H', the window matrix's rows per sample, and ``depth``
    is C*k*k, its columns.  Row-wise blocks of one GEMM give that GEMM's
    bytes only under this rule, which was measured on OpenBLAS 0.3.31: each
    block but the last spans a multiple of 8 rows, so the kernel's row
    tails fall where they fall in the one GEMM; each block has rows*n_out*depth
    above ``_CONV_BLOCK_MIN_WORK``; and a one-output conv, which OpenBLAS
    forwards to GEMV, is not split.  Blocks otherwise aim at
    ``_CONV_BLOCK_BYTES``, and the last block takes the remaining samples,
    so a conv that cannot meet the rule runs as one block.
    """
    if n_out < 2:
        return [0, s]
    step = 8 // math.gcd(rows, 8)  # the fewest samples spanning a multiple of 8 rows
    per = max(_CONV_BLOCK_BYTES // (rows * depth * 8), _CONV_BLOCK_MIN_WORK // (rows * n_out * depth) + 1)
    per = -(-per // step) * step
    return [i * per for i in range(max(1, s // per))] + [s]


def _conv2d(x: np.ndarray, w: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """Convolution as a GEMM over the window matrix, a few samples at a time.

    Row (sample, w', h') of the window matrix holds the padded map's values
    under that output position's window in (channel, tap row, tap column)
    order.  It is the matrix ``tensordot`` reshapes out of a strided window
    view, and ``np.dot`` multiplies it by the same transposed weight view,
    so the bytes are those of ``tensordot``; the property tests in
    tests/test_network.py check it.  For a 1x1 kernel it is that same
    reshape of the strided map: a view wherever ``tensordot``'s is one
    (BLAS can take another path on a view than on a copy), and free on an
    NHWC-strided conv output.  A larger kernel's is gathered with one flat
    index into a reused block buffer and multiplied block by block into
    the rows of one output array (see ``_conv_blocks``), so it is never
    built whole; a conv of one block is the one GEMM of the whole matrix.
    """
    n_out, c, k, _ = w.shape
    wt = w.reshape(n_out, -1).T
    x = _pad(x, padding)
    s, _, wp, hp = x.shape
    wo, ho = (wp - k) // stride + 1, (hp - k) // stride + 1
    if k == 1:
        cols = x[:, :, ::stride, ::stride].transpose(0, 2, 3, 1).reshape(-1, c)
        del x  # free the padded copy before the GEMM allocates its output
        y = np.dot(cols, wt)
    else:
        rows, depth = wo * ho, c * k * k
        corners = (np.arange(wo) * (stride * hp))[:, None] + np.arange(ho) * stride
        taps = (np.arange(c) * (wp * hp))[:, None, None] + (np.arange(k) * hp)[:, None] + np.arange(k)
        index = corners.reshape(-1, 1) + taps.reshape(1, -1)
        edges = _conv_blocks(s, rows, n_out, depth)
        flat = x.reshape(s, -1)
        # The output is allocated first, so the block buffer lies above it
        # and goes back to the top of the heap when the conv returns.  The
        # other way round its hole lies under the output, later frees merge
        # the two into a free top that glibc trims, and the next score faults
        # the pages back in: about 3,300 minor faults per search-small search
        # once the standardise ran in place.
        y = np.empty((s * rows, n_out))
        cols = np.empty((edges[-1] - edges[-2], rows, depth))  # the last block is the largest
        for a, b in zip(edges, edges[1:]):
            block = cols[: b - a]
            # Every index is in range, so "wrap" never wraps.  Unlike the
            # default "raise", it lets np.take write straight into the block,
            # and it gathers faster than "clip".
            np.take(flat[a:b], index, axis=1, out=block, mode="wrap")
            np.dot(block.reshape(-1, depth), wt, out=y[a * rows : b * rows])
    return np.transpose(y.reshape(s, wo, ho, n_out), (0, 3, 1, 2))


def _avg_pool(x: np.ndarray) -> np.ndarray:
    """The 3x3, stride-1, padding-1 average pool: separable sums on the C-contiguous padded map."""
    x = _pad(x, 1)
    w, h = x.shape[2] - 2, x.shape[3] - 2
    rows = x[..., :h] + x[..., 1 : h + 1]  # 3-tap sums along H
    rows += x[..., 2:]
    del x  # free the padded copy before the output is allocated
    out = rows[:, :, :w] + rows[:, :, 1 : w + 1]  # then three of those along W
    out += rows[:, :, 2:]
    out += 0.0  # a -0.0 sum becomes +0.0, as in numpy's window mean
    out /= 9
    return out


def _standardise(y: np.ndarray, inplace: bool = False) -> np.ndarray:
    """``(y - y.mean(axes)) / np.sqrt(y.var(axes) + eps)`` over axes (0, 2, 3), in ``y``'s layout.

    These are the float operations numpy's ``mean`` and ``var`` run (a sum,
    a division by the count, a subtraction, a square, a sum and a division
    by the count), without the second mean and the second subtraction.  The
    property test in tests/test_network.py holds it to the plain formula.

    When the channel axis is innermost in memory and there are at least two
    channels, as on every conv and dense output, the map is a C-contiguous
    (values, channels) matrix.  numpy's reduce then adds each channel row
    by row in memory order, and ``np.einsum`` runs the same adds, each
    product rounded before its add, in a tighter loop; so the two sums are
    einsums, and the variance's needs no squared copy of the map.  With one
    channel the reduced axis is contiguous and numpy sums it pairwise,
    which einsum does not, so one channel and every other layout (a scored
    skip on the NCHW batch) take ``np.add.reduce``.

    With ``inplace`` the result is written over ``y`` (``y -= mean`` and so
    on), which gives the same bytes without a second map.
    """
    c = y.shape[1]
    n = y.size // c
    nhwc = y.transpose(0, 2, 3, 1)
    einsum = c >= 2 and nhwc.flags.c_contiguous
    if einsum:
        mean = np.einsum("ij->j", nhwc.reshape(-1, c)).reshape(c, 1, 1)
    else:
        mean = np.add.reduce(y, (0, 2, 3), keepdims=True)
    mean /= n
    out = np.subtract(y, mean, out=y if inplace else None)
    if einsum:
        centred = out.transpose(0, 2, 3, 1).reshape(-1, c)  # a view: ``out`` keeps ``y``'s layout
        var = np.einsum("ij,ij->j", centred, centred).reshape(c, 1, 1)
    else:
        var = np.add.reduce(out * out, (0, 2, 3), keepdims=True)
    var /= n
    out /= np.sqrt(var + _STANDARDISE_EPS)
    return out


def forward_capture(net: NetworkInstance, batch: InputBatch) -> ActivationCapture:
    """Run the batch through the network, recording only activation bits.

    The capture has one row per value that feeds a ReLU (scored convs give
    channels times output area, scored dense layers their units) and one
    column per sample.  If ``net.standardise`` is set (a network built from
    an assembly carries the assembly's), each scored layer's pre-activations
    are shifted and scaled per channel to batch mean 0 and variance ~1
    before the ReLU, which changes the recorded signs.  Every weight must
    have the shape :func:`swapnas.cells.trace_graph` gives its node.

    Sharing: the nodes that read one tuple of two or more inputs share its
    fan-in sum, computed left to right at the first of them; each map is
    kept and dropped as :class:`swapnas.cells.GraphTrace` ``last_read`` plans.
    Ownership: a conv, pool or dense node owns its output, and a skip owns
    a sum that no other node reads, so its standardise and ReLU write over
    that map.  A scored skip over anything else (a shared sum, one input,
    the batch) writes new maps.  The float operations are those of a pass
    that sums afresh for each reader and writes nothing in place, so the
    bytes are too.
    """
    if batch.channels != net.in_channels:
        raise ShapeError(
            f"batch has {batch.channels} channels but the network stem expects {net.in_channels}"
        )
    trace = trace_graph(net.nodes, batch.dims)  # rejects bad geometry before any compute
    for node, w, shape in zip(net.nodes, net.weights, trace.weight_shapes):
        got, want = (None if w is None else w.shape), (shape or None)
        if got != want:
            raise AssemblyError(f"node {node.name} has weight shape {got}, but its graph gives {want}")
    last_read = trace.last_read
    n_samples = batch.n_samples
    blocks = [np.zeros((0, (n_samples + 7) // 8), dtype=np.uint8)]
    values: dict[int | tuple[int, ...], np.ndarray] = {}

    # numpy's overflow warnings stay quiet, so the check below that names
    # the layer is the one report, even where warnings are errors.
    with np.errstate(over="ignore", invalid="ignore"):
        for idx, node in enumerate(net.nodes):
            ins = node.inputs
            if node.kind == "input":
                out = batch.data
            else:
                if len(ins) == 1:
                    x = values[ins[0]]
                elif ins in values:  # a later reader of a shared fan-in sum
                    x = values[ins]
                else:  # the tuple's first reader sums it
                    x = values[ins[0]]
                    for i in ins[1:]:
                        x = x + values[i]
                    if last_read[ins] > idx:
                        values[ins] = x
                    for i in ins:
                        if last_read[i] == idx:
                            values.pop(i, None)  # an id repeated in the tuple goes at its first copy
                if node.kind == "conv":
                    out = _conv2d(x, net.weights[idx], node.stride, node.padding)
                elif node.kind == "avg-pool":
                    out = _avg_pool(x)
                elif node.kind == "skip":
                    out = x
                elif node.kind == "global-pool":
                    out = x.mean(axis=(2, 3), keepdims=True)
                else:  # dense; trace_graph has rejected every other kind
                    out = (x.reshape(n_samples, -1) @ net.weights[idx].T).reshape(n_samples, -1, 1, 1)
                if node.scored:
                    # Every kind but a skip computes a new map.  A skip's map is
                    # its own only when it is a sum that no other node reads; a
                    # node's value, the batch and a shared sum are not its to overwrite.
                    owned = node.kind != "skip" or (len(ins) > 1 and ins not in values)
                    if net.standardise:
                        out = _standardise(out, inplace=owned)
                        owned = True  # a new map, if ``out`` was not owned
                    # One copy of the bits, straight into (value, sample) order.
                    blocks.append(pack_bit_rows((out > 0).transpose(1, 2, 3, 0).reshape(-1, n_samples)))
                    out = np.maximum(out, 0.0, out=out if owned else None)
                if not np.isfinite(out).all():
                    raise NumericOverflowError(
                        f"non-finite intermediate value produced by layer {node.name}"
                    )
            if idx in last_read:
                values[idx] = out
            if ins:
                key = ins[0] if len(ins) == 1 else ins
                if last_read[key] == idx:
                    values.pop(key, None)  # an unshared sum was never kept

    return ActivationCapture._adopt(np.concatenate(blocks, axis=0), n_samples)
