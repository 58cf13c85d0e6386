"""Tests for the cell encoding, validation, assembly and size accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from swapnas.cells import (
    EDGE_OPS,
    OP_CODES,
    AssemblyConfig,
    AssemblyError,
    CellMatrix,
    CellValidationError,
    NodeSpec,
    ShapeError,
    assemble_descriptor,
    count_flops,
    count_parameters,
    nb201_like_assembly,
    params_to_megabytes,
    parse_key_values,
    random_cell,
    read_cell_file,
    trace_channels,
    trace_graph,
    trace_shapes,
    validate_cell,
)
from swapnas.network import NetworkInstance, forward_capture, gaussian_batch, network_from_nodes

# Example 4-node cell using every op kind: conv3, skip, conv1, pool3, conv3.
EXAMPLE_CELL = CellMatrix(
    [
        [0, 1, 4, 2],
        [0, 0, 3, 0],
        [0, 0, 0, 1],
        [0, 0, 0, 0],
    ]
)

ALL_SKIP_CHAIN = CellMatrix(
    [
        [0, 4, 0, 0],
        [0, 0, 4, 0],
        [0, 0, 0, 4],
        [0, 0, 0, 0],
    ]
)


class TestValidation:
    def test_example_cell_is_valid(self):
        assert validate_cell(EXAMPLE_CELL) == []

    def test_lower_triangular_entry_reported_with_coordinates(self):
        cell = CellMatrix([[0, 1, 1], [1, 0, 1], [0, 0, 0]])
        violations = validate_cell(cell)
        assert any("(1, 0)" in v and "lower-triangular" in v for v in violations)

    def test_unknown_op_code_reported(self):
        cell = CellMatrix(
            [[0, 1, 1, 5], [0, 0, 1, 1], [0, 0, 0, 1], [0, 0, 0, 0]]
        )
        violations = validate_cell(cell)
        assert any("unknown op code 5 at (0, 3)" in v for v in violations)

    def test_secondary_source_and_sink_rejected(self):
        # Node 1 only emits, node 2 only receives.
        cell = CellMatrix(
            [[0, 0, 0, 1], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        )
        violations = validate_cell(cell)
        assert any("node 1" in v for v in violations)
        assert any("node 2" in v for v in violations)

    def test_disconnected_endpoints_rejected(self):
        cell = CellMatrix([[0, 0], [0, 0]])
        violations = validate_cell(cell)
        assert len(violations) == 2  # silent source and silent sink

    def test_cell_is_immutable(self):
        with pytest.raises(AttributeError, match="immutable"):
            EXAMPLE_CELL.codes = ALL_SKIP_CHAIN.codes
        with pytest.raises(ValueError, match="read-only"):
            EXAMPLE_CELL.codes[0, 1] = 2

    def test_isolated_interior_node_is_allowed(self):
        cell = CellMatrix([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
        assert validate_cell(cell) == []


def numpy_validate_cell(cell: CellMatrix) -> list[str]:
    """``validate_cell`` as earlier versions wrote it with numpy; the oracle."""
    violations: list[str] = []
    codes = cell.codes
    n = cell.n_nodes
    for i in range(n):
        for j in range(n):
            code = int(codes[i, j])
            if code == 0:
                continue
            if j <= i:
                violations.append(f"lower-triangular entry {code} at ({i}, {j})")
            elif code not in OP_CODES:
                violations.append(f"unknown op code {code} at ({i}, {j})")
    upper = np.triu(codes, k=1)
    good = np.isin(upper, OP_CODES) & (upper != 0)
    in_deg = good.sum(axis=0)
    out_deg = good.sum(axis=1)
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


@st.composite
def code_matrices(draw):
    """Square int matrices, n 2-6, entries in [-2, 6]; often strictly upper-triangular."""
    n = draw(st.integers(2, 6))
    codes = draw(arrays(np.int64, (n, n), elements=st.integers(-2, 6)))
    return np.triu(codes, 1) if draw(st.booleans()) else codes


class TestCellProperties:
    @settings(max_examples=500, deadline=None)
    @given(code_matrices())
    def test_validate_cell_matches_the_numpy_oracle(self, codes):
        cell = CellMatrix(codes)
        assert validate_cell(cell) == numpy_validate_cell(cell)

    @settings(max_examples=200, deadline=None)
    @given(code_matrices())
    def test_cached_text_equals_the_formula(self, codes):
        cell = CellMatrix(codes)
        flat = " ".join(str(int(c)) for c in codes.ravel())
        text = f"nodes = {codes.shape[0]}\nmatrix = {flat}\n"
        for _ in range(2):  # the first call fills the cache, the second reads it
            assert cell.encode() == text
            assert cell.encode_line() == text.strip().replace("\n", ";")

    @settings(max_examples=200, deadline=None)
    @given(code_matrices(), code_matrices())
    def test_identity_follows_the_codes(self, a, b):
        cell_a, cell_b = CellMatrix(a), CellMatrix(b)
        assert CellMatrix(a.copy()) == cell_a
        assert hash(CellMatrix(a.copy())) == hash(cell_a)
        same = a.shape == b.shape and np.array_equal(a, b)
        assert (cell_a == cell_b) is same
        if same:
            assert hash(cell_a) == hash(cell_b)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 5))
    def test_cells_of_different_sizes_are_never_equal(self, n):
        # Same zero bytes in a different shape: n*n zeros cannot equal m*m zeros.
        small, large = CellMatrix(np.zeros((n, n))), CellMatrix(np.zeros((n + 1, n + 1)))
        assert small != large
        assert len({small, large}) == 2

    def test_a_cell_never_equals_a_non_cell(self):
        cell = CellMatrix(np.eye(3, k=1, dtype=int))
        assert cell.__eq__(cell.codes) is NotImplemented
        assert cell != cell.encode()
        assert cell != cell.rows()


class TestRandomCell:
    def test_deterministic_for_equal_seeds(self):
        a = random_cell(4, np.random.default_rng(1))
        b = random_cell(4, np.random.default_rng(1))
        assert a == b

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(2, 8), seed=st.integers(0, 2**32))
    def test_every_draw_is_valid_and_fully_wired(self, n, seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            cell = random_cell(n, rng)
            assert cell.n_nodes == n
            assert validate_cell(cell) == []
            active = np.triu(cell.codes, 1) != 0
            assert active[:, 1:].any(axis=0).all()  # every non-source has an input
            assert active[:-1, :].any(axis=1).all()  # every non-sink has an output

    def test_op_codes_uniform_on_first_edge(self):
        rng = np.random.default_rng(42)
        counts = {code: 0 for code in OP_CODES}
        present = 0
        for _ in range(10_000):
            cell = random_cell(4, rng)
            code = int(cell.codes[0, 1])
            if code:
                present += 1
                counts[code] += 1
        for code in OP_CODES:
            assert counts[code] / present == pytest.approx(0.25, abs=0.02)

    def test_one_node_rejected(self):
        with pytest.raises(ValueError, match="a cell needs at least two nodes"):
            random_cell(1, np.random.default_rng(3))


class TestCellFileFormat:
    def test_encode_decode_round_trip(self, tmp_path):
        path = tmp_path / "cell.cell"
        path.write_text(EXAMPLE_CELL.encode())
        again = read_cell_file(path)
        assert again == EXAMPLE_CELL
        assert again.encode() == EXAMPLE_CELL.encode()

    def test_semicolon_separated_form(self):
        flat = EXAMPLE_CELL.encode().strip().replace("\n", ";")
        assert CellMatrix.decode(flat) == EXAMPLE_CELL

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="matrix"):
            CellMatrix.decode("nodes = 4\n")

    def test_wrong_entry_count_rejected(self):
        with pytest.raises(ValueError, match="expected 4"):
            CellMatrix.decode("nodes = 2\nmatrix = 0 1 0")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("nodes = 4\nmatrix = 0 1 x 0", "cell document has non-integer entries"),
            ("nodes = four;matrix = 0 1 0 0", "cell document has non-integer entries"),
            ("nodes = 1\nmatrix = 0", "a cell needs at least two nodes"),
            ("nodes = 2\nmatrix 0 1 0 0", "line 2: expected key = value, got 'matrix 0 1 0 0'"),
            (
                "nodes = 2;nodes = 3;matrix = 0 1 0 0",
                "line 2: duplicate key 'nodes' (first seen on line 1)",
            ),
        ],
    )
    def test_bad_document_names_its_fault(self, text, message):
        with pytest.raises(ValueError) as exc:
            CellMatrix.decode(text)
        assert str(exc.value).startswith(message)

    @pytest.mark.parametrize(
        "codes, message",
        [([[0, 1, 0], [0, 0, 1]], "square"), ([[0, 1]], "square"), ([[0]], "two nodes")],
    )
    def test_bad_matrix_rejected_at_construction(self, codes, message):
        with pytest.raises(ValueError, match=message):
            CellMatrix(codes)

    def test_key_value_reader_skips_blanks_and_comments(self):
        text = "# a comment\n\n  a = 1 \nb=two = 2\n   # indented comment\n"
        assert parse_key_values(text) == {"a": "1", "b": "two = 2"}

    def test_stable_hash_fixed_across_processes(self):
        # sha256-backed digest: any drift would silently change every seed.
        assert EXAMPLE_CELL.stable_hash() == CellMatrix(EXAMPLE_CELL.codes).stable_hash()
        assert EXAMPLE_CELL.stable_hash() != ALL_SKIP_CHAIN.stable_hash()


class TestAssembly:
    def test_single_depth_layer_count_is_stem_plus_edges(self):
        cfg = AssemblyConfig(depth=1, stem_channels=4)
        nodes = assemble_descriptor(EXAMPLE_CELL, cfg)
        layers = [n for n in nodes if n.kind != "input"]
        assert len(layers) == 1 + len(EXAMPLE_CELL.edges())

    def test_depth_two_doubles_cell_layers(self):
        one = assemble_descriptor(EXAMPLE_CELL, AssemblyConfig(depth=1, stem_channels=4))
        two = assemble_descriptor(EXAMPLE_CELL, AssemblyConfig(depth=2, stem_channels=4))
        per_cell = len(EXAMPLE_CELL.edges())
        assert len(two) - len(one) == per_cell

    def test_pinned_cell_matches_hand_enumerated_graph(self):
        nodes = assemble_descriptor(EXAMPLE_CELL, AssemblyConfig(depth=1, stem_channels=4))
        names = [(n.name, n.kind, n.inputs, n.scored) for n in nodes]
        assert names == [
            ("input", "input", (), False),
            ("stem", "conv", (0,), True),
            ("cell0.n0-n1.conv3x3", "conv", (1,), True),
            ("cell0.n0-n2.skip", "skip", (1,), False),
            ("cell0.n1-n2.avgpool3x3", "avg-pool", (2,), False),
            ("cell0.n0-n3.conv1x1", "conv", (1,), True),
            ("cell0.n2-n3.conv3x3", "conv", (3, 4), True),
        ]

    def test_benchmark_style_stack_matches_hand_enumeration(self):
        # depth 5, reductions before cells 2 and 4: widths 16,16,32,32,64
        nodes = assemble_descriptor(EXAMPLE_CELL, nb201_like_assembly())
        per_cell = [
            "n0-n1.conv3x3", "n0-n2.skip", "n1-n2.avgpool3x3",
            "n0-n3.conv1x1", "n2-n3.conv3x3",
        ]
        expected = ["input", "stem"]
        for k in range(5):
            if k in (2, 4):
                expected.append(f"reduce{k}")
            expected.extend(f"cell{k}.{suffix}" for suffix in per_cell)
        assert [n.name for n in nodes] == expected
        widths = {n.name: n.channels_out for n in nodes if n.kind == "conv"}
        assert widths["stem"] == 16
        assert widths["cell1.n0-n1.conv3x3"] == 16
        assert widths["reduce2"] == 32 and widths["cell3.n0-n3.conv1x1"] == 32
        assert widths["reduce4"] == 64 and widths["cell4.n2-n3.conv3x3"] == 64

    def test_reduction_doubles_channels_and_halves_maps(self):
        cfg = AssemblyConfig(depth=2, stem_channels=8, reductions=(1,))
        nodes = assemble_descriptor(ALL_SKIP_CHAIN, cfg)
        shapes = trace_shapes(nodes, (3, 16, 16))
        reduce_idx = next(i for i, n in enumerate(nodes) if n.name == "reduce1")
        assert shapes[reduce_idx] == (16, 8, 8)

    def test_invalid_cell_rejected_at_assembly(self):
        bad = CellMatrix([[0, 0], [0, 0]])
        with pytest.raises(CellValidationError):
            assemble_descriptor(bad, AssemblyConfig(depth=1))

    def test_kernel_larger_than_map_raises(self):
        nodes = (
            NodeSpec("input", "input"),
            NodeSpec("conv", "conv", (0,), channels_out=4, kernel=3, scored=True),
        )
        with pytest.raises(ShapeError, match="kernel"):
            trace_shapes(nodes, (3, 2, 2))

    def test_each_edge_op_is_realised_by_its_registry_fields(self):
        for code, (name, fields) in EDGE_OPS.items():
            cell = CellMatrix([[0, code], [0, 0]])
            *_, edge = assemble_descriptor(cell, AssemblyConfig(depth=1, stem_channels=4))
            assert edge == NodeSpec(f"cell0.n0-n1.{name}", inputs=(1,), channels_out=4, **fields)
        assert OP_CODES == (1, 2, 3, 4)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(depth=0), "depth must be at least 1"),
            (dict(stem_channels=0), "stem_channels must be at least 1"),
            (dict(depth=3, reductions=(2, 1)), "reductions must be strictly increasing"),
            (dict(depth=3, reductions=(1, 1)), "reductions must be strictly increasing"),
            (dict(depth=3, reductions=(3,)), r"reduction indices must lie in \[0, depth\)"),
            (dict(depth=3, reductions=(-1, 0)), r"reduction indices must lie in \[0, depth\)"),
            (dict(head=True, head_units=0), "head_units must be at least 1"),
        ],
    )
    def test_bad_assembly_config_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            AssemblyConfig(**kwargs)

    def test_nb201_like_preset(self):
        cfg = nb201_like_assembly()
        assert cfg.depth == 5
        assert cfg.stem_channels == 16
        assert cfg.reductions == (2, 4)


class TestGraphWalkerErrors:
    """The graph walkers reject bad graphs and bad input dims before any compute."""

    def test_unknown_node_kind(self):
        nodes = (NodeSpec("input", "input"), NodeSpec("act", "relu", (0,)))
        with pytest.raises(AssemblyError, match="unknown node kind 'relu' at act"):
            trace_channels(nodes, 3)
        with pytest.raises(AssemblyError, match="unknown node kind 'relu' at act"):
            trace_shapes(nodes, (3, 4, 4))
        net = NetworkInstance(nodes, (None, None), seed=0, in_channels=3)
        with pytest.raises(AssemblyError, match="unknown node kind 'relu' at act"):
            forward_capture(net, gaussian_batch(2, (3, 4, 4), seed=0))

    def test_node_without_inputs(self):
        nodes = (NodeSpec("input", "input"), NodeSpec("x", "conv", (), channels_out=4, kernel=1, scored=True))
        with pytest.raises(AssemblyError, match="node x has no inputs"):
            trace_channels(nodes, 3)
        net = NetworkInstance(nodes, (None, np.ones((4, 3, 1, 1))), seed=0, in_channels=3)
        with pytest.raises(AssemblyError, match="node x has no inputs"):
            forward_capture(net, gaussian_batch(2, (3, 4, 4), seed=0))

    @pytest.mark.parametrize("source", [1, 2, -1])
    def test_input_index_outside_earlier_nodes(self, source):
        # The node itself, a later node and a negative index.
        nodes = (
            NodeSpec("input", "input"),
            NodeSpec("a", "conv", (source,), channels_out=3, kernel=1),
            NodeSpec("b", "conv", (0,), channels_out=3, kernel=1, scored=True),
        )
        message = f"node a (node 1) takes input {source}, outside [0, 1)"
        with pytest.raises(AssemblyError) as caught:
            network_from_nodes(nodes, seed=0, in_channels=3)
        assert str(caught.value) == message
        net = NetworkInstance(nodes, (None, np.ones((3, 3, 1, 1)), np.ones((3, 3, 1, 1))), seed=0, in_channels=3)
        with pytest.raises(AssemblyError) as caught:
            forward_capture(net, gaussian_batch(2, (3, 4, 4), seed=0))
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(scored=True), "input node input cannot be scored; a scored skip on it puts a ReLU on the batch"),
            (dict(inputs=(0,)), r"input node input takes no inputs, got \(0,\)"),
        ],
    )
    def test_input_node_scored_or_with_inputs(self, fields, message):
        nodes = (
            NodeSpec("input", "input", **fields),
            NodeSpec("a", "conv", (0,), channels_out=3, kernel=1, scored=True),
        )
        with pytest.raises(AssemblyError, match=message):
            network_from_nodes(nodes, seed=0, in_channels=3)
        net = NetworkInstance(nodes, (None, np.ones((3, 3, 1, 1))), seed=0, in_channels=3)
        with pytest.raises(AssemblyError, match=message):
            forward_capture(net, gaussian_batch(2, (3, 4, 4), seed=0))

    @pytest.mark.parametrize(
        "fields, message",
        [
            (
                dict(kind="conv", channels_out=4, kernel=3, stride=0),
                "node n (conv) needs stride >= 1 and padding >= 0, got stride 0, padding 0",
            ),
            (
                dict(kind="conv", channels_out=4, kernel=3, padding=-1),
                "node n (conv) needs stride >= 1 and padding >= 0, got stride 1, padding -1",
            ),
            (
                dict(kind="avg-pool", kernel=3, stride=0, padding=1),
                "node n (avg-pool) needs stride >= 1 and padding >= 0, got stride 0, padding 1",
            ),
            (
                dict(kind="conv", channels_out=4, kernel=0),
                "node n (conv) needs kernel >= 1 and channels_out >= 1, got kernel 0, channels_out 4",
            ),
            (
                dict(kind="conv", channels_out=0, kernel=1),
                "node n (conv) needs kernel >= 1 and channels_out >= 1, got kernel 1, channels_out 0",
            ),
            (dict(kind="dense", units=0), "node n (dense) needs units >= 1, got 0"),
        ],
        ids=["conv-stride", "conv-padding", "pool-stride", "conv-kernel", "conv-channels", "dense-units"],
    )
    def test_node_parameters_below_their_least_value(self, fields, message):
        # Each used to surface as a bare ZeroDivisionError, or not at all.
        nodes = (NodeSpec("input", "input"), NodeSpec("n", inputs=(0,), **fields))
        for dims in ((3,), (3, 1, 1), (3, 4, 4)):
            with pytest.raises(AssemblyError) as caught:
                trace_graph(nodes, dims)
            assert str(caught.value) == message
        with pytest.raises(AssemblyError) as caught:
            network_from_nodes(nodes, seed=0, in_channels=3)
        assert str(caught.value) == message
        net = NetworkInstance(nodes, (None, None), seed=0, in_channels=3)
        with pytest.raises(AssemblyError) as caught:
            forward_capture(net, gaussian_batch(2, (3, 1, 1), seed=0))
        assert str(caught.value) == message

    def test_conv_fed_by_a_conv_without_channels(self):
        nodes = (
            NodeSpec("input", "input"),
            NodeSpec("a", "conv", (0,), channels_out=0, kernel=1),
            NodeSpec("b", "conv", (1,), channels_out=4, kernel=1, scored=True),
        )
        with pytest.raises(AssemblyError, match=r"^node a \(conv\) needs kernel >= 1 and channels_out >= 1"):
            network_from_nodes(nodes, seed=0, in_channels=3)

    def test_inputs_of_differing_widths(self):
        nodes = (
            NodeSpec("input", "input"),
            NodeSpec("a", "conv", (0,), channels_out=4, kernel=1, scored=True),
            NodeSpec("b", "conv", (0,), channels_out=5, kernel=1, scored=True),
            NodeSpec("sum", "skip", (1, 2)),
        )
        with pytest.raises(AssemblyError, match=r"sum sums inputs of differing widths \[4, 5\]"):
            trace_channels(nodes, 3)
        with pytest.raises(AssemblyError, match="sum sums inputs of differing"):
            trace_shapes(nodes, (3, 4, 4))

    def test_inputs_of_differing_spatial_sizes(self):
        nodes = (
            NodeSpec("input", "input"),
            NodeSpec("a", "conv", (0,), channels_out=4, kernel=1, scored=True),
            NodeSpec("b", "conv", (0,), channels_out=4, kernel=1, stride=2, scored=True),
            NodeSpec("sum", "skip", (1, 2)),
        )
        assert trace_channels(nodes, 3) == [3, 4, 4, 4]
        with pytest.raises(AssemblyError, match="sum sums inputs of differing"):
            trace_shapes(nodes, (3, 4, 4))

    WIDTH_KEEPING = {
        "avg-pool": dict(kind="avg-pool", kernel=3, padding=1),
        "skip": dict(kind="skip"),
        "global-pool": dict(kind="global-pool"),
    }

    @pytest.mark.parametrize("kind", sorted(WIDTH_KEEPING))
    def test_width_keeping_node_with_another_width(self, kind):
        nodes = (
            NodeSpec("input", "input"),
            NodeSpec("p", inputs=(0,), channels_out=99, **self.WIDTH_KEEPING[kind]),
        )
        message = f"node p ({kind}) keeps its input's 3 channels but sets channels_out 99"
        with pytest.raises(AssemblyError) as caught:
            trace_channels(nodes, 3)
        assert str(caught.value) == message
        net = NetworkInstance(nodes, (None, None), seed=0, in_channels=3)
        with pytest.raises(AssemblyError) as caught:
            forward_capture(net, gaussian_batch(2, (3, 4, 4), seed=0))
        assert str(caught.value) == message

    @pytest.mark.parametrize("kind", sorted(WIDTH_KEEPING))
    def test_width_keeping_node_with_units(self, kind):
        for width in (0, 3):  # units is checked whatever channels_out says
            nodes = (
                NodeSpec("input", "input"),
                NodeSpec("p", inputs=(0,), channels_out=width, units=7, **self.WIDTH_KEEPING[kind]),
            )
            with pytest.raises(AssemblyError) as caught:
                trace_channels(nodes, 3)
            assert str(caught.value) == f"node p ({kind}) sets units 7; only dense nodes take units"

    @pytest.mark.parametrize("kind", sorted(WIDTH_KEEPING))
    def test_width_keeping_node_may_restate_its_width(self, kind):
        for width in (0, 3):
            nodes = (
                NodeSpec("input", "input"),
                NodeSpec("p", inputs=(0,), channels_out=width, **self.WIDTH_KEEPING[kind]),
            )
            assert trace_channels(nodes, 3) == [3, 3]

    def test_assembled_edges_and_head_restate_their_width(self):
        # assemble_descriptor sets channels_out=width on every edge and on head.pool.
        cell = CellMatrix([[0, 3, 4, 1], [0, 0, 3, 4], [0, 0, 0, 2], [0, 0, 0, 0]])
        cfg = AssemblyConfig(depth=2, stem_channels=4, reductions=(1,), head=True, head_units=5)
        nodes = assemble_descriptor(cell, cfg)
        assert {n.channels_out for n in nodes if n.kind in self.WIDTH_KEEPING} == {4, 8}
        assert trace_shapes(nodes, (3, 6, 6))[-1] == (5, 1, 1)

    @pytest.mark.parametrize("dims", [(0, 4, 4), (3, 0, 4), (3, 4, -1)])
    def test_input_dims_below_one(self, dims):
        nodes = (NodeSpec("input", "input"), NodeSpec("s", "skip", (0,)))
        with pytest.raises(ShapeError, match="input dims must be positive"):
            trace_shapes(nodes, dims)


class TestGraphTrace:
    def test_faults_are_reported_in_node_order(self):
        # Node a's kernel overruns the 2x2 map before sum meets two widths;
        # without map sizes only the width fault remains.
        nodes = (
            NodeSpec("input", "input"),
            NodeSpec("a", "conv", (0,), channels_out=4, kernel=3, scored=True),
            NodeSpec("b", "conv", (0,), channels_out=5, kernel=1, scored=True),
            NodeSpec("sum", "skip", (1, 2)),
        )
        with pytest.raises(ShapeError) as caught:
            trace_shapes(nodes, (3, 2, 2))
        assert str(caught.value) == "kernel 3 exceeds the padded 2x2 feature map at a"
        with pytest.raises(AssemblyError) as caught:
            trace_channels(nodes, 3)
        assert str(caught.value) == "node sum sums inputs of differing widths [4, 5]"

    def test_channels_only_form_reads_no_map_size(self):
        cfg = AssemblyConfig(depth=2, stem_channels=4, reductions=(1,), head=True, head_units=5)
        nodes = assemble_descriptor(EXAMPLE_CELL, cfg)
        full, bare = trace_graph(nodes, (3, 9, 9)), trace_graph(nodes, (3,))
        assert [c for c, _, _ in bare.shapes] == [c for c, _, _ in full.shapes]
        assert {(w, h) for _, w, h in bare.shapes} == {(0, 0)}
        assert (bare.weight_shapes, bare.last_read) == (full.weight_shapes, full.last_read)
        assert bare.parameters == full.parameters == count_parameters(EXAMPLE_CELL, cfg)
        assert bare.macs == 0 and full.macs == count_flops(EXAMPLE_CELL, cfg, (3, 9, 9))

    @pytest.mark.parametrize("dims", [(), (3, 4), (3, 4, 4, 1)])
    def test_input_dims_of_another_length(self, dims):
        nodes = (NodeSpec("input", "input"), NodeSpec("s", "skip", (0,)))
        with pytest.raises(ShapeError) as caught:
            trace_graph(nodes, dims)
        assert str(caught.value) == f"input dims must be (C,) or (C, W, H), got {dims}"


class TestSizeAccounting:
    def test_all_skip_cell_costs_stem_only(self):
        cfg = AssemblyConfig(depth=1, stem_channels=16)
        assert count_parameters(ALL_SKIP_CHAIN, cfg) == 16 * 3 * 9 == 432

    def test_conv_edge_adds_its_closed_form_cost(self):
        cfg = AssemblyConfig(depth=1, stem_channels=16)
        with_conv = ALL_SKIP_CHAIN.replace(0, 1, 1)  # skip -> 3x3 conv
        added = count_parameters(with_conv, cfg) - count_parameters(ALL_SKIP_CHAIN, cfg)
        assert added == 16 * 16 * 9 == 2304

    def test_depth_additivity_at_constant_channels(self):
        cfg1 = AssemblyConfig(depth=1, stem_channels=8)
        stem_only = count_parameters(ALL_SKIP_CHAIN, cfg1)
        per_cell = count_parameters(EXAMPLE_CELL, cfg1) - stem_only
        for depth in (2, 3, 5):
            cfg = AssemblyConfig(depth=depth, stem_channels=8)
            assert count_parameters(EXAMPLE_CELL, cfg) == stem_only + depth * per_cell

    def test_pinned_cell_total_matches_hand_sum(self):
        # stem 4*3*9 + per cell (conv3 4*4*9 + conv1 4*4 + conv3 4*4*9), depth 3
        cfg = AssemblyConfig(depth=3, stem_channels=4)
        assert count_parameters(EXAMPLE_CELL, cfg) == 108 + 3 * (144 + 16 + 144)

    def test_rewriting_skip_or_pool_to_conv_strictly_grows_size(self):
        rng = np.random.default_rng(12)
        cfg = AssemblyConfig(depth=2, stem_channels=8)
        checked = 0
        while checked < 30:
            cell = random_cell(4, rng)
            soft = [(i, j) for i, j, code in cell.edges() if code in (3, 4)]
            if not soft:
                continue
            i, j = soft[int(rng.integers(len(soft)))]
            base = count_parameters(cell, cfg)
            for conv_code in (1, 2):
                assert count_parameters(cell.replace(i, j, conv_code), cfg) > base
            checked += 1

    def test_megabyte_conversion(self):
        assert params_to_megabytes(2**20) == 4.0


class TestFlops:
    def test_skip_only_cell_counts_stem_macs(self):
        cfg = AssemblyConfig(depth=2, stem_channels=16)
        flops = count_flops(ALL_SKIP_CHAIN, cfg, (3, 10, 10))
        assert flops == 432 * 10 * 10

    def test_doubling_spatial_dims_quadruples_macs(self):
        cfg = AssemblyConfig(depth=2, stem_channels=8)
        base = count_flops(EXAMPLE_CELL, cfg, (3, 8, 8))
        assert count_flops(EXAMPLE_CELL, cfg, (3, 16, 16)) == 4 * base

    def test_pinned_cell_matches_positionwise_oracle(self):
        # Independent tally: every conv contributes c_out*c_in*k*k per output
        # position, walked here directly over the descriptor shapes.
        cfg = AssemblyConfig(depth=2, stem_channels=4, reductions=(1,))
        dims = (3, 9, 9)
        nodes = assemble_descriptor(EXAMPLE_CELL, cfg)
        shapes = trace_shapes(nodes, dims)
        expected = 0
        for idx, node in enumerate(nodes):
            if node.kind != "conv":
                continue
            c_in = shapes[node.inputs[0]][0]
            c_out, w, h = shapes[idx]
            expected += c_out * c_in * node.kernel * node.kernel * w * h
        assert count_flops(EXAMPLE_CELL, cfg, dims) == expected
