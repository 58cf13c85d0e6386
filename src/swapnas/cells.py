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
    which keeps invalid matrices representable for error reporting.  The
    codes are held as one row-major tuple of Python ints; ``codes``, the
    read-only int64 array, is made on first use.
    """

    __slots__ = ("_n", "_flat", "_codes", "_text", "_edges")

    def __init__(self, codes) -> None:
        arr = np.array(codes, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("cell matrix must be square")
        if arr.shape[0] < 2:
            raise ValueError("a cell needs at least two nodes")
        arr.setflags(write=False)
        self._fill(arr.tolist(), arr)

    @classmethod
    def _from_rows(cls, rows: list[list[int]]) -> "CellMatrix":
        """The cell of ``rows``, a square list of at least two lists of ints, unchecked."""
        cell = object.__new__(cls)
        cell._fill(rows, None)
        return cell

    def _fill(self, rows, codes) -> None:
        # The flat codes are the cell's identity; the array, the text form
        # and the edges are filled on first use.
        object.__setattr__(self, "_n", len(rows))
        object.__setattr__(self, "_flat", tuple([c for row in rows for c in row]))
        object.__setattr__(self, "_codes", codes)
        object.__setattr__(self, "_text", None)
        object.__setattr__(self, "_edges", None)

    def __setattr__(self, name, value):
        raise AttributeError("CellMatrix is immutable")

    @property
    def codes(self) -> np.ndarray:
        """The codes as a read-only N x N int64 array."""
        if self._codes is None:
            arr = np.array(self._flat, dtype=np.int64).reshape(self._n, self._n)
            arr.setflags(write=False)
            object.__setattr__(self, "_codes", arr)
        return self._codes

    @property
    def n_nodes(self) -> int:
        return self._n

    def __eq__(self, other) -> bool:
        if not isinstance(other, CellMatrix):
            return NotImplemented
        return self._flat == other._flat

    def __hash__(self) -> int:
        return hash(self._flat)

    def __repr__(self) -> str:
        rows = ["[" + " ".join(map(str, row)) + "]" for row in self.rows()]
        return f"CellMatrix({', '.join(rows)})"

    def rows(self) -> list[list[int]]:
        """The codes as a new list of row lists, equal to ``codes.tolist()``."""
        n, flat = self._n, self._flat
        return [list(flat[i : i + n]) for i in range(0, n * n, n)]

    def replace(self, i: int, j: int, code: int) -> "CellMatrix":
        """Copy with entry (i, j) set to ``code``."""
        rows = self.rows()
        rows[i][j] = int(code)
        return CellMatrix._from_rows(rows)

    def edges(self) -> list[tuple[int, int, int]]:
        """Nonzero upper-triangular entries as (source, target, code), in a new list."""
        if self._edges is None:
            n, flat = self._n, self._flat
            upper = ((i, j, flat[i * n + j]) for i in range(n) for j in range(i + 1, n))
            edges = tuple(edge for edge in upper if edge[2] != OP_NONE)
            object.__setattr__(self, "_edges", edges)
        return list(self._edges)

    def stable_hash(self) -> int:
        """Platform-independent 64-bit digest of the encoding."""
        payload = f"{self._n}:" + " ".join(map(str, self._flat))
        digest = hashlib.sha256(payload.encode("ascii")).digest()
        return int.from_bytes(digest[:8], "little")

    def encode(self) -> str:
        """Canonical two-line text form (``nodes`` and row-major ``matrix``)."""
        if self._text is None:
            flat = " ".join(map(str, self._flat))
            object.__setattr__(self, "_text", f"nodes = {self._n}\nmatrix = {flat}\n")
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


def validate_cell(cell: CellMatrix) -> list[str]:
    """Check the search-space invariants; an empty list means the cell is ok.

    Every violation is reported with its coordinates.  Isolated interior
    nodes (no edges at all) are allowed since they take no part in the
    induced DAG.
    """
    return validate_rows(cell.rows())


def validate_rows(rows: list[list[int]]) -> list[str]:
    """:func:`validate_cell` of the cell whose :meth:`CellMatrix.rows` are ``rows``.

    The mutation operators try their candidate cells as rows and make a
    :class:`CellMatrix` only of the one they return.
    """
    violations: list[str] = []
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
    every remaining node.  That is every rule of :func:`validate_cell`, so
    no draw is ever rejected.
    """
    if n_nodes < 2:
        raise ValueError("a cell needs at least two nodes")
    rng = np.random.default_rng(rng)
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
    return CellMatrix(codes)


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


# The pool of ``EDGE_OPS``, whose kernel, stride and padding every avg-pool node must have.
_POOL = next(NodeSpec(name, **f) for name, f in EDGE_OPS.values() if f["kind"] == "avg-pool")


def assemble_descriptor(
    cell: CellMatrix, cfg: AssemblyConfig, in_channels: int = 3
) -> tuple[NodeSpec, ...]:
    """Flatten (cell, config) into the node list consumed by the net engine.

    Layout: input, stem conv, then ``depth`` cell copies with reduction
    convs at the configured indices, then the optional head.  The flattening
    is deterministic: edges are emitted in (target, source) order.
    ``in_channels`` is never read (the walk takes the stem's width from the
    batch); it is kept because ``benchmarks/workloads.py`` passes it.
    """
    violations = validate_cell(cell)
    if violations:
        raise CellValidationError(violations)
    rows = cell.rows()
    n = len(rows)
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
                code = rows[i][j]
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


@dataclass(frozen=True)
class GraphTrace:
    """One walk's view of a node graph (see :func:`trace_graph`).

    Per node: its output's (channels, width, height) and its weight shape
    (() if it has none).  ``parameters`` is the weight count (initialisation
    zeroes the biases, so they are left out); ``macs`` sums each weighted
    layer's weight count times its output area.

    ``last_read`` is the forward pass's lifetime rule: for each map it keeps,
    the index of the last node that reads it, after which the map is dropped.
    A key is a node id, for its output, or a tuple of two or more input ids,
    for the fan-in sum that the tuple's readers share.  A tuple's first
    reader reads its inputs (dropping those it reads last once summed) and
    the tuple; a later reader reads only the tuple; a single-input node
    reads its one input.  A node that no node reads has no key, and a sum
    is kept only if a later node reads it.
    """

    shapes: tuple[tuple[int, int, int], ...]
    weight_shapes: tuple[tuple[int, ...], ...]
    last_read: dict[int | tuple[int, ...], int]
    parameters: int
    macs: int


def trace_graph(nodes: tuple[NodeSpec, ...], input_dims: tuple[int, ...]) -> GraphTrace:
    """Check every node rule and derive every shape and cost, in one walk in node order.

    Rejects an input node that is scored or has inputs, an input index
    outside [0, own index), inputs of differing widths or sizes, a conv or
    avg-pool with stride below 1 or negative padding, a conv with kernel or
    ``channels_out`` below 1, a dense node with ``units`` below 1, any pool
    but ``EDGE_OPS``'s, an avg-pool, skip or global-pool node that sets
    ``units`` or a ``channels_out`` other than 0 or its input's width, a
    kernel larger than the padded map and a dense layer on a map above 1x1.
    Windowed layers use output size floor((d + 2*padding - kernel)/stride) + 1
    per spatial axis.  ``input_dims`` may be (C,), for a network that has
    not met a batch: then only the rules that need no map size run, and
    widths, heights and ``macs`` read 0.  The same walk plans the forward
    pass's map lifetimes (``GraphTrace.last_read``).
    """
    dims = tuple(int(d) for d in input_dims)
    if len(dims) not in (1, 3):
        raise ShapeError(f"input dims must be (C,) or (C, W, H), got {input_dims}")
    if min(dims) < 1:
        raise ShapeError(f"input dims must be positive, got {input_dims}")
    sized = len(dims) == 3
    shapes: list[tuple[int, int, int]] = []
    weight_shapes: list[tuple[int, ...]] = []
    last_read: dict[int | tuple[int, ...], int] = {}
    parameters = macs = 0
    for k, node in enumerate(nodes):
        if node.kind == "input":
            if node.scored:
                raise AssemblyError(
                    f"input node {node.name} cannot be scored; a scored skip on it puts a ReLU on the batch"
                )
            if node.inputs:
                raise AssemblyError(f"input node {node.name} takes no inputs, got {node.inputs}")
            shapes.append(dims if sized else (dims[0], 0, 0))
            weight_shapes.append(())
            continue
        if not node.inputs:
            raise AssemblyError(f"node {node.name} has no inputs")
        for i in node.inputs:
            if not 0 <= i < k:
                raise AssemblyError(f"node {node.name} (node {k}) takes input {i}, outside [0, {k})")
        if len(node.inputs) == 1:
            last_read[node.inputs[0]] = k
        else:
            if node.inputs not in last_read:  # only a tuple's first reader reads its inputs
                for i in node.inputs:
                    last_read[i] = k
            last_read[node.inputs] = k
        ins = {shapes[i][0] for i in node.inputs}
        if len(ins) != 1:
            raise AssemblyError(f"node {node.name} sums inputs of differing widths {sorted(ins)}")
        c = ins.pop()
        window = (node.kernel, node.stride, node.padding)
        if node.kind in ("conv", "avg-pool") and (node.stride < 1 or node.padding < 0):
            raise AssemblyError(
                f"node {node.name} ({node.kind}) needs stride >= 1 and padding >= 0, "
                f"got stride {node.stride}, padding {node.padding}"
            )
        if node.kind == "avg-pool" and window != (_POOL.kernel, _POOL.stride, _POOL.padding):
            raise AssemblyError(
                f"node {node.name} pools with kernel {node.kernel}, stride {node.stride}, padding {node.padding}; "
                f"the only pool is {_POOL.name} (kernel {_POOL.kernel}, stride {_POOL.stride}, padding {_POOL.padding})"
            )
        if node.kind == "conv":
            if node.kernel < 1 or node.channels_out < 1:
                raise AssemblyError(
                    f"node {node.name} (conv) needs kernel >= 1 and channels_out >= 1, "
                    f"got kernel {node.kernel}, channels_out {node.channels_out}"
                )
            c_out = node.channels_out
            shape = (c_out, c, node.kernel, node.kernel)
        elif node.kind in ("avg-pool", "skip", "global-pool"):
            # These keep their input's width; 0 leaves channels_out unset.
            if node.channels_out not in (0, c):
                raise AssemblyError(
                    f"node {node.name} ({node.kind}) keeps its input's {c} channels "
                    f"but sets channels_out {node.channels_out}"
                )
            if node.units:
                raise AssemblyError(
                    f"node {node.name} ({node.kind}) sets units {node.units}; only dense nodes take units"
                )
            c_out, shape = c, ()
        elif node.kind == "dense":
            if node.units < 1:
                raise AssemblyError(f"node {node.name} (dense) needs units >= 1, got {node.units}")
            c_out = node.units
            shape = (c_out, c)
        else:
            raise AssemblyError(f"unknown node kind {node.kind!r} at {node.name}")
        _, w, h = shapes[node.inputs[0]]
        if sized:
            sizes = {shapes[i][1:] for i in node.inputs}
            if len(sizes) != 1:
                raise AssemblyError(f"node {node.name} sums inputs of differing sizes {sorted(sizes)}")
            if node.kind in ("conv", "avg-pool"):
                kernel, t, p = window
                wp, hp = w + 2 * p, h + 2 * p
                if kernel > wp or kernel > hp:
                    raise ShapeError(f"kernel {kernel} exceeds the padded {wp}x{hp} feature map at {node.name}")
                w, h = (wp - kernel) // t + 1, (hp - kernel) // t + 1
            elif node.kind != "skip":  # global-pool or dense
                if node.kind == "dense" and (w, h) != (1, 1):
                    raise ShapeError(f"dense layer {node.name} expects 1x1 spatial input, got {w}x{h}")
                w = h = 1
        shapes.append((c_out, w, h))
        weight_shapes.append(shape)
        n_weights = math.prod(shape) if shape else 0
        parameters += n_weights
        macs += n_weights * w * h
    return GraphTrace(tuple(shapes), tuple(weight_shapes), last_read, parameters, macs)


def trace_channels(nodes: tuple[NodeSpec, ...], in_channels: int) -> list[int]:
    """Channel count of each node's output, with the size-free rules of :func:`trace_graph`."""
    return [c for c, _, _ in trace_graph(nodes, (in_channels,)).shapes]


def trace_shapes(
    nodes: tuple[NodeSpec, ...], input_dims: tuple[int, int, int]
) -> list[tuple[int, int, int]]:
    """(channels, width, height) of each node's output (see :func:`trace_graph`)."""
    return list(trace_graph(nodes, input_dims).shapes)


def count_parameters(cell: CellMatrix, cfg: AssemblyConfig, in_channels: int = 3) -> int:
    """Total weight count of the assembled network (see :class:`GraphTrace`)."""
    return trace_graph(assemble_descriptor(cell, cfg), (in_channels,)).parameters


def count_flops(
    cell: CellMatrix,
    cfg: AssemblyConfig,
    input_dims: tuple[int, int, int],
) -> int:
    """Multiply-accumulate count of the assembled network (see :class:`GraphTrace`)."""
    return trace_graph(assemble_descriptor(cell, cfg), input_dims).macs


def params_to_megabytes(param_count: int) -> float:
    """Model size in MB at float32 storage width."""
    return param_count * 4.0 / 2**20
