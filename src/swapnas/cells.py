"""Cell-based search space: op-code matrices, assembly and size accounting.

A cell is a small DAG over N nodes encoded as a strictly upper-triangular
N x N matrix of operation codes.  Code 0 means no connection; every other
code selects one of the edge operations of ``EDGE_OPS``.
Node 0 is the single input of the cell and node N-1 its single output.
Full networks are assembled by putting a stem convolution in front of a
stack of cell copies, optionally with channel-doubling reductions between
them and a pooling/linear head on top.  Where several edges feed one node
their outputs are summed elementwise.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

OP_NONE = 0
# Every edge operation of the space: its code, its name in node names and
# the NodeSpec fields that realise it.  Every edge keeps the cell's width.
EDGE_OPS = {
    1: ("conv3x3", dict(kind="conv", kernel=3, padding=1, scored=True)),
    2: ("conv1x1", dict(kind="conv", kernel=1, scored=True)),
    3: ("avgpool3x3", dict(kind="avg-pool", kernel=3, padding=1)),
    4: ("skip", dict(kind="skip")),
}
OP_CODES = tuple(EDGE_OPS)


class CellValidationError(ValueError):
    """A cell matrix violates the search-space invariants."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(violations))


class AssemblyError(ValueError):
    """A network graph cannot be assembled consistently."""


class ShapeError(ValueError):
    """Tensor shapes are incompatible with a layer's geometry."""


class CellMatrix:
    """Upper-triangular op-code matrix describing one cell DAG.

    Construction only enforces that the matrix is square with at least two
    nodes; use :func:`validate_cell` to check the search-space invariants,
    which keeps invalid matrices representable for error reporting.
    """

    __slots__ = ("codes", "_key", "_text")

    def __init__(self, codes) -> None:
        arr = np.array(codes, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("cell matrix must be square")
        if arr.shape[0] < 2:
            raise ValueError("a cell needs at least two nodes")
        arr.setflags(write=False)
        object.__setattr__(self, "codes", arr)
        # Identity is fixed at construction; the text form is filled on first use.
        object.__setattr__(self, "_key", (arr.shape[0], arr.tobytes()))
        object.__setattr__(self, "_text", None)

    def __setattr__(self, name, value):
        raise AttributeError("CellMatrix is immutable")

    @property
    def n_nodes(self) -> int:
        return int(self.codes.shape[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, CellMatrix):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        rows = ["[" + " ".join(str(int(c)) for c in row) + "]" for row in self.codes]
        return f"CellMatrix({', '.join(rows)})"

    def replace(self, i: int, j: int, code: int) -> "CellMatrix":
        """Copy with entry (i, j) set to ``code``."""
        codes = self.codes.copy()
        codes[i, j] = code
        return CellMatrix(codes)

    def edges(self) -> list[tuple[int, int, int]]:
        """Nonzero upper-triangular entries as (source, target, code)."""
        rows = self.codes.tolist()
        n = len(rows)
        return [(i, j, rows[i][j]) for i in range(n) for j in range(i + 1, n) if rows[i][j] != OP_NONE]

    def stable_hash(self) -> int:
        """Platform-independent 64-bit digest of the encoding."""
        payload = f"{self.n_nodes}:" + " ".join(str(int(c)) for c in self.codes.ravel())
        digest = hashlib.sha256(payload.encode("ascii")).digest()
        return int.from_bytes(digest[:8], "little")

    def encode(self) -> str:
        """Canonical two-line text form (``nodes`` and row-major ``matrix``)."""
        if self._text is None:
            flat = " ".join(str(c) for c in self.codes.ravel().tolist())
            object.__setattr__(self, "_text", f"nodes = {self.n_nodes}\nmatrix = {flat}\n")
        return self._text

    def encode_line(self) -> str:
        """The encoding on one line, ``;`` joining its lines; :meth:`decode` reads it."""
        return self.encode().strip().replace("\n", ";")

    @classmethod
    def decode(cls, text: str) -> "CellMatrix":
        """Parse the text form; ``;`` is accepted as a line separator."""
        fields = parse_key_values(text.replace(";", "\n"))
        for key in ("nodes", "matrix"):
            if key not in fields:
                raise ValueError(f"cell document is missing the {key!r} field")
        try:
            n = int(fields["nodes"])
            flat = [int(tok) for tok in fields["matrix"].split()]
        except ValueError as exc:
            raise ValueError(f"cell document has non-integer entries: {exc}") from None
        if n < 2:
            raise ValueError("a cell needs at least two nodes")
        if len(flat) != n * n:
            raise ValueError(f"expected {n * n} matrix entries, got {len(flat)}")
        return cls(np.array(flat, dtype=np.int64).reshape(n, n))


def parse_key_values(text: str) -> dict[str, str]:
    """Read ``key = value`` lines, skipping blank lines and ``#`` comments.

    A line without ``=`` and a key given twice raise ``ValueError`` naming
    the line (both lines for a repeated key).
    """
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in first_line:
            raise ValueError(
                f"line {lineno}: duplicate key {key!r} (first seen on line {first_line[key]})"
            )
        first_line[key] = lineno
        values[key] = value
    return values


def read_cell_file(path) -> CellMatrix:
    with open(path, "r", encoding="ascii") as fh:
        return CellMatrix.decode(fh.read())


def write_cell_file(path, cell: CellMatrix) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(cell.encode())


def validate_cell(cell: CellMatrix) -> list[str]:
    """Check the search-space invariants; an empty list means the cell is ok.

    Every violation is reported with its coordinates.  Isolated interior
    nodes (no edges at all) are allowed since they take no part in the
    induced DAG.
    """
    violations: list[str] = []
    rows = cell.codes.tolist()
    n = len(rows)
    in_deg = [0] * n
    out_deg = [0] * n
    for i, row in enumerate(rows):
        for j, code in enumerate(row):
            if code == OP_NONE:
                continue
            if j <= i:
                violations.append(f"lower-triangular entry {code} at ({i}, {j})")
            elif code not in OP_CODES:
                violations.append(f"unknown op code {code} at ({i}, {j})")
            else:
                out_deg[i] += 1
                in_deg[j] += 1
    if out_deg[0] == 0:
        violations.append("source node 0 has no outgoing connection")
    if in_deg[n - 1] == 0:
        violations.append(f"sink node {n - 1} has no incoming connection")
    for v in range(1, n - 1):
        if out_deg[v] > 0 and in_deg[v] == 0:
            violations.append(f"node {v} has outgoing connections but no incoming one")
        if in_deg[v] > 0 and out_deg[v] == 0:
            violations.append(f"node {v} has incoming connections but no outgoing one")
    return violations


def random_cell(n_nodes: int, rng) -> CellMatrix:
    """Draw a valid random cell.

    Each upper-triangular slot carries an edge with probability one half,
    with the op code chosen uniformly.  A connectivity repair pass then
    gives every non-source node at least one incoming and every non-sink
    node at least one outgoing edge, so the source reaches the sink through
    every remaining node.
    """
    if n_nodes < 2:
        raise ValueError("a cell needs at least two nodes")
    rng = np.random.default_rng(rng)
    while True:
        codes = np.zeros((n_nodes, n_nodes), dtype=np.int64)
        for i in range(n_nodes):
            for j in range(i + 1, n_nodes):
                if rng.random() < 0.5:
                    codes[i, j] = OP_CODES[rng.integers(len(OP_CODES))]
        for j in range(1, n_nodes):
            if not codes[:j, j].any():
                codes[rng.integers(0, j), j] = OP_CODES[rng.integers(len(OP_CODES))]
        for i in range(n_nodes - 2, -1, -1):
            if not codes[i, i + 1 :].any():
                codes[i, rng.integers(i + 1, n_nodes)] = OP_CODES[rng.integers(len(OP_CODES))]
        cell = CellMatrix(codes)
        if not validate_cell(cell):
            return cell


@dataclass(frozen=True)
class AssemblyConfig:
    """How cell copies are stacked into a full network.

    ``reductions`` lists cell indices that are preceded by a stride-2
    channel-doubling convolution.  Every cell runs at the width of the
    feature map it receives.  The optional head is a global average pool
    followed by a linear layer.  ``standardise`` models the network's
    normalisation layers: each scored layer's pre-activations are
    standardised per channel over the batch, as batch norm does at
    initialisation.
    """

    depth: int = 3
    stem_channels: int = 16
    reductions: tuple[int, ...] = ()
    head: bool = False
    head_units: int = 10
    standardise: bool = True

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("depth must be at least 1")
        if self.stem_channels < 1:
            raise ValueError("stem_channels must be at least 1")
        reductions = tuple(int(r) for r in self.reductions)
        if list(reductions) != sorted(set(reductions)):
            raise ValueError("reductions must be strictly increasing")
        if reductions and not (0 <= reductions[0] and reductions[-1] < self.depth):
            raise ValueError("reduction indices must lie in [0, depth)")
        object.__setattr__(self, "reductions", reductions)
        if self.head and self.head_units < 1:
            raise ValueError("head_units must be at least 1")


def nb201_like_assembly(depth: int = 5, stem_channels: int = 16) -> AssemblyConfig:
    """Benchmark-style stack: reductions at one and two thirds of the depth."""
    reductions = tuple(sorted({r for r in ((depth + 2) // 3, (2 * depth + 2) // 3) if 0 < r < depth}))
    return AssemblyConfig(depth=depth, stem_channels=stem_channels, reductions=reductions)


@dataclass(frozen=True)
class NodeSpec:
    """One vertex of an assembled computation graph.

    ``inputs`` lists upstream node ids; multiple inputs are summed
    elementwise before the node's own operation is applied.  ``scored``
    marks nodes whose output feeds a ReLU and therefore lands in the
    activation capture.
    """

    name: str
    kind: str  # input | conv | avg-pool | skip | dense | global-pool
    inputs: tuple[int, ...] = ()
    channels_out: int = 0
    kernel: int = 0
    stride: int = 1
    padding: int = 0
    units: int = 0
    scored: bool = False


def assemble_descriptor(
    cell: CellMatrix, cfg: AssemblyConfig, in_channels: int = 3
) -> tuple[NodeSpec, ...]:
    """Flatten (cell, config) into the node list consumed by the net engine.

    Layout: input, stem conv, then ``depth`` cell copies with reduction
    convs at the configured indices, then the optional head.  The flattening
    is deterministic: edges are emitted in (target, source) order.
    """
    violations = validate_cell(cell)
    if violations:
        raise CellValidationError(violations)
    n = cell.n_nodes
    nodes: list[NodeSpec] = [NodeSpec("input", "input")]
    width = cfg.stem_channels
    nodes.append(NodeSpec("stem", "conv", (0,), channels_out=width, kernel=3, padding=1, scored=True))
    current: tuple[int, ...] = (len(nodes) - 1,)

    for k in range(cfg.depth):
        if k in cfg.reductions:
            nodes.append(
                NodeSpec(
                    f"reduce{k}", "conv", current,
                    channels_out=2 * width, kernel=3, stride=2, padding=1, scored=True,
                )
            )
            width = 2 * width
            current = (len(nodes) - 1,)
        sources: dict[int, tuple[int, ...]] = {0: current}
        for j in range(1, n):
            ids = []
            for i in range(j):
                code = int(cell.codes[i, j])
                if code == OP_NONE:
                    continue
                name, fields = EDGE_OPS[code]
                nodes.append(
                    NodeSpec(f"cell{k}.n{i}-n{j}.{name}", inputs=sources[i], channels_out=width, **fields)
                )
                ids.append(len(nodes) - 1)
            if ids:
                sources[j] = tuple(ids)
        current = sources[n - 1]

    if cfg.head:
        nodes.append(NodeSpec("head.pool", "global-pool", current, channels_out=width))
        nodes.append(NodeSpec("head.linear", "dense", (len(nodes) - 1,), units=cfg.head_units))
    return tuple(nodes)


def trace_channels(nodes: tuple[NodeSpec, ...], in_channels: int) -> list[int]:
    """Channel count of each node's output, independent of spatial dims."""
    channels: list[int] = []
    for node in nodes:
        if node.kind == "input":
            channels.append(in_channels)
            continue
        if not node.inputs:
            raise AssemblyError(f"node {node.name} has no inputs")
        ins = {channels[i] for i in node.inputs}
        if len(ins) != 1:
            raise AssemblyError(f"node {node.name} sums inputs of differing widths {sorted(ins)}")
        c = ins.pop()
        if node.kind == "conv":
            channels.append(node.channels_out)
        elif node.kind in ("avg-pool", "skip", "global-pool"):
            channels.append(c)
        elif node.kind == "dense":
            channels.append(node.units)
        else:
            raise AssemblyError(f"unknown node kind {node.kind!r} at {node.name}")
    return channels


def trace_shapes(
    nodes: tuple[NodeSpec, ...], input_dims: tuple[int, int, int]
) -> list[tuple[int, int, int]]:
    """Propagate (channels, width, height) through the graph.

    Channels come from :func:`trace_channels`.  Windowed layers use output
    size floor((d + 2*padding - kernel)/stride) + 1 per spatial axis and
    reject kernels larger than the padded map.
    """
    c0, w0, h0 = (int(d) for d in input_dims)
    if min(c0, w0, h0) < 1:
        raise ShapeError(f"input dims must be positive, got {input_dims}")
    channels = trace_channels(nodes, c0)
    sizes: list[tuple[int, int]] = []
    for node in nodes:
        if node.kind == "input":
            sizes.append((w0, h0))
            continue
        ins = {sizes[i] for i in node.inputs}
        if len(ins) != 1:
            raise AssemblyError(f"node {node.name} sums inputs of differing sizes {sorted(ins)}")
        w, h = ins.pop()
        if node.kind in ("conv", "avg-pool"):
            k, t, p = node.kernel, node.stride, node.padding
            wp, hp = w + 2 * p, h + 2 * p
            if k > wp or k > hp:
                raise ShapeError(
                    f"kernel {k} exceeds the padded {wp}x{hp} feature map at {node.name}"
                )
            sizes.append(((wp - k) // t + 1, (hp - k) // t + 1))
        elif node.kind == "skip":
            sizes.append((w, h))
        else:  # global-pool or dense
            if node.kind == "dense" and (w, h) != (1, 1):
                raise ShapeError(f"dense layer {node.name} expects 1x1 spatial input, got {w}x{h}")
            sizes.append((1, 1))
    return [(c, w, h) for c, (w, h) in zip(channels, sizes)]


def weight_shape(node: NodeSpec, channels: list[int]) -> tuple[int, ...]:
    """Shape of a node's weight tensor, or () if it has none.

    ``channels`` holds every node's output width (see :func:`trace_channels`);
    the node reads the width of its first input.
    """
    if node.kind == "conv":
        return (node.channels_out, channels[node.inputs[0]], node.kernel, node.kernel)
    if node.kind == "dense":
        return (node.units, channels[node.inputs[0]])
    return ()


def _weight_count(node: NodeSpec, channels: list[int]) -> int:
    shape = weight_shape(node, channels)
    return math.prod(shape) if shape else 0


def graph_parameters(nodes: tuple[NodeSpec, ...], in_channels: int) -> int:
    """Total weight count of an assembled graph.

    Biases are excluded because initialisation zeroes them.
    """
    channels = trace_channels(nodes, in_channels)
    return sum(_weight_count(node, channels) for node in nodes)


def graph_macs(nodes: tuple[NodeSpec, ...], input_dims: tuple[int, int, int]) -> int:
    """Multiply-accumulate count: per weighted layer, params times output area."""
    shapes = trace_shapes(nodes, input_dims)
    channels = [c for c, _, _ in shapes]
    return sum(_weight_count(node, channels) * w * h for node, (_, w, h) in zip(nodes, shapes))


def count_parameters(cell: CellMatrix, cfg: AssemblyConfig, in_channels: int = 3) -> int:
    """Total weight count of the assembled network (see :func:`graph_parameters`)."""
    return graph_parameters(assemble_descriptor(cell, cfg, in_channels), in_channels)


def count_flops(
    cell: CellMatrix,
    cfg: AssemblyConfig,
    input_dims: tuple[int, int, int],
) -> int:
    """Multiply-accumulate count of the assembled network (see :func:`graph_macs`)."""
    return graph_macs(assemble_descriptor(cell, cfg, input_dims[0]), input_dims)


def params_to_megabytes(param_count: int) -> float:
    """Model size in MB at float32 storage width."""
    return param_count * 4.0 / 2**20
