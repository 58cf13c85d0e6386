"""Tests for network building, the value count and the capturing forward pass."""

import os
import re
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view

from swapnas.cells import (
    AssemblyConfig,
    AssemblyError,
    CellMatrix,
    NodeSpec,
    ShapeError,
    nb201_like_assembly,
    random_cell,
    trace_graph,
    trace_shapes,
)
from swapnas.metric import standard_pattern_cardinality, swap_score
from swapnas.network import (
    InputBatch,
    NetworkInstance,
    NumericOverflowError,
    _CONV_BLOCK_MIN_WORK,
    _STANDARDISE_EPS,
    _avg_pool,
    _conv2d,
    _conv_blocks,
    _standardise,
    build_network,
    forward_capture,
    gaussian_batch,
    network_from_nodes,
    read_tensor_file,
)

CELL = CellMatrix(
    [
        [0, 1, 4, 2],
        [0, 0, 3, 0],
        [0, 0, 0, 1],
        [0, 0, 0, 0],
    ]
)

ALL_SKIP = CellMatrix(
    [
        [0, 4, 0, 0],
        [0, 0, 4, 0],
        [0, 0, 0, 4],
        [0, 0, 0, 0],
    ]
)


def conv_chain(specs, seed=0, in_channels=3, standardise=True):
    """Build a plain conv chain from (channels, kernel, stride, padding) tuples."""
    nodes = [NodeSpec("input", "input")]
    for li, (c, k, t, p) in enumerate(specs):
        nodes.append(
            NodeSpec(
                f"conv{li}", "conv", (len(nodes) - 1,),
                channels_out=c, kernel=k, stride=t, padding=p, scored=True,
            )
        )
    return network_from_nodes(tuple(nodes), seed, in_channels, standardise)


def dense_chain(units, in_features=3):
    """Build scored dense layers of ``units`` on (features, 1, 1) inputs."""
    nodes = [NodeSpec("input", "input")]
    nodes += [NodeSpec(f"dense{i}", "dense", (i,), units=u, scored=True) for i, u in enumerate(units)]
    return network_from_nodes(tuple(nodes), 0, in_features)


class TestInputBatch:
    def test_gaussian_batch_shape_and_determinism(self):
        a = gaussian_batch(4, (3, 5, 6), seed=9)
        b = gaussian_batch(4, (3, 5, 6), seed=9)
        assert a.data.shape == (4, 3, 5, 6)
        assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_the_callers_array_stays_writeable_and_apart(self, order):
        a = np.zeros((1, 2, 2, 2), order=order)
        batch = InputBatch(a)
        a[0, 0, 0, 0] = 1.0
        assert batch.data.tobytes() == bytes(64)
        assert batch.data.flags.c_contiguous and not batch.data.flags.writeable

    def test_rejects_non_finite(self):
        bad = np.zeros((1, 1, 2, 2))
        bad[0, 0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            InputBatch(bad)

    def test_tensor_file_round_trip(self, tmp_path):
        batch = gaussian_batch(3, (2, 4, 5), seed=1)
        path = tmp_path / "batch.tensor"
        path.write_bytes(b"SWAPTENSOR v1 3 2 4 5\n" + batch.data.astype("<f4").tobytes())
        again = read_tensor_file(path)
        # float32 storage, so values survive exactly after the first round trip
        assert np.array_equal(again.data, batch.data.astype("<f4").astype(np.float64))

    def test_tensor_file_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.tensor"
        path.write_bytes(b"NOTATENSOR 1 1 1 1\n")
        with pytest.raises(ValueError, match="SWAPTENSOR"):
            read_tensor_file(path)

    def test_tensor_file_rejects_non_integer_dims(self, tmp_path):
        path = tmp_path / "bad.tensor"
        path.write_bytes(b"SWAPTENSOR v1 2 one 2 2\n")
        with pytest.raises(ValueError, match=re.escape("malformed tensor header 'SWAPTENSOR v1 2 one 2 2'")):
            read_tensor_file(path)

    @pytest.mark.parametrize(
        "data, message",
        [
            (np.zeros((2, 2, 2)), "input batch must have axes (sample, channel, width, height)"),
            (np.zeros((2, 0, 2, 2)), "all batch axes must be positive, got (2, 0, 2, 2)"),
        ],
        ids=["three-axes", "empty-axis"],
    )
    def test_rejects_bad_shapes(self, data, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            InputBatch(data)

    def test_tensor_file_rejects_short_payload(self, tmp_path):
        path = tmp_path / "short.tensor"
        path.write_bytes(b"SWAPTENSOR v1 2 1 2 2\n" + b"\x00" * 8)
        with pytest.raises(ValueError, match="payload"):
            read_tensor_file(path)

    @pytest.mark.parametrize(
        "header, message",
        [
            (b"SWAPTENSOR v1 2 1 2 2", "tensor payload has 40 bytes, expected 32"),
            (b"SWAPTENSOR v1 100000 1000 1000 1000", "tensor payload has 40 bytes, expected 400000000000000"),
        ],
        ids=["header-asks-less", "header-asks-too-much"],
    )
    def test_tensor_file_payload_checked_against_header(self, tmp_path, header, message):
        path = tmp_path / "odd.tensor"
        path.write_bytes(header + b"\n" + b"\x00" * 40)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_tensor_file(path)

    @pytest.mark.parametrize("dims", ["-2 -3 4 4", "-1 3 4 4", "0 3 4 4"])
    def test_tensor_file_rejects_header_dims_below_one(self, tmp_path, dims):
        # The first header's product matches the 384-byte payload, so only the dims check stops it.
        path = tmp_path / "odd.tensor"
        path.write_bytes(f"SWAPTENSOR v1 {dims}\n".encode("ascii") + b"\x00" * 384)
        message = f"tensor header dims must be positive: 'SWAPTENSOR v1 {dims}'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_tensor_file(path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
    @pytest.mark.parametrize("extra", [0, 4], ids=["exact", "long"])
    def test_tensor_file_from_a_pipe(self, tmp_path, extra):
        # A pipe has no size until it is read, so its payload is checked after.
        batch = gaussian_batch(2, (1, 2, 2), seed=3)
        plain = tmp_path / "batch.tensor"
        plain.write_bytes(b"SWAPTENSOR v1 2 1 2 2\n" + batch.data.astype("<f4").tobytes())
        fifo = tmp_path / "batch.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(plain.read_bytes() + b"\x00" * extra,), daemon=True)
        writer.start()
        try:
            if extra:
                with pytest.raises(ValueError, match="^tensor payload has 36 bytes, expected 32$"):
                    read_tensor_file(fifo)
            else:
                assert np.array_equal(read_tensor_file(fifo).data, read_tensor_file(plain).data)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()


class TestBuildNetwork:
    def test_the_callers_weights_stay_writeable_and_apart(self):
        nodes = conv_chain([(2, 1, 1, 0)]).nodes
        w = np.ones((2, 3, 1, 1))
        net = NetworkInstance(nodes, (None, w), 0, 3)
        w[0, 0, 0, 0] = 5.0
        assert net.weights[1].tobytes() == np.ones((2, 3, 1, 1)).tobytes()
        assert net.weights[1].flags.c_contiguous and not net.weights[1].flags.writeable

    def test_the_library_path_keeps_its_own_arrays_frozen(self):
        nodes = conv_chain([(2, 1, 1, 0)]).nodes
        w = np.ones((2, 3, 1, 1))
        net = NetworkInstance._adopt(nodes, (None, w), 0, 3, True)
        assert net.weights[1] is w and not w.flags.writeable
        assert (net.nodes, net.seed, net.in_channels, net.standardise) == (nodes, 0, 3, True)
        with pytest.raises(AssemblyError, match="one weight slot per node"):
            NetworkInstance._adopt(nodes, (None,), 0, 3, True)

    def test_drawn_weights_and_captures_are_frozen(self):
        net = build_network(CELL, AssemblyConfig(depth=2, stem_channels=8), seed=7)
        assert not forward_capture(net, gaussian_batch(3, (3, 4, 4), seed=0)).packed_rows.flags.writeable
        copied = NetworkInstance(net.nodes, net.weights, net.seed, net.in_channels, net.standardise)
        for w, c in zip(net.weights, copied.weights):
            assert (w is None) == (c is None)
            if w is not None:
                assert not w.flags.writeable and w.flags.c_contiguous and w.dtype == np.float64
                assert w.tobytes() == c.tobytes()

    def test_weights_bit_identical_for_equal_seeds(self):
        cfg = AssemblyConfig(depth=2, stem_channels=8)
        a = build_network(CELL, cfg, seed=7)
        b = build_network(CELL, cfg, seed=7)
        for wa, wb in zip(a.weights, b.weights):
            assert (wa is None) == (wb is None)
            if wa is not None:
                assert wa.tobytes() == wb.tobytes()

    def test_different_seed_changes_weights(self):
        cfg = AssemblyConfig(depth=1, stem_channels=8)
        a = build_network(CELL, cfg, seed=7)
        b = build_network(CELL, cfg, seed=8)
        assert not np.array_equal(a.weights[1], b.weights[1])

    def test_all_skip_cell_has_no_weights_beyond_stem_and_head(self):
        cfg = AssemblyConfig(depth=3, stem_channels=8, head=True)
        net = build_network(ALL_SKIP, cfg, seed=0)
        weighted = [n.name for n, w in zip(net.nodes, net.weights) if w is not None]
        assert weighted == ["stem", "head.linear"]

    def test_one_weight_slot_per_node_required(self):
        net = dense_chain([2])
        with pytest.raises(AssemblyError, match="^one weight slot per node is required$"):
            NetworkInstance(net.nodes, net.weights[:-1], net.seed, net.in_channels)

    @pytest.mark.parametrize(
        "geometry, message",
        [
            (dict(kernel=2, padding=1), "kernel 2, stride 1, padding 1"),
            (dict(kernel=3, stride=2, padding=1), "kernel 3, stride 2, padding 1"),
            (dict(kernel=3), "kernel 3, stride 1, padding 0"),
        ],
        ids=["kernel", "stride", "padding"],
    )
    def test_rejects_every_other_pool_geometry(self, geometry, message):
        nodes = (NodeSpec("input", "input"), NodeSpec("edge", "avg-pool", (0,), **geometry))
        want = f"node edge pools with {message}; the only pool is avgpool3x3 (kernel 3, stride 1, padding 1)"
        with pytest.raises(AssemblyError, match=f"^{re.escape(want)}$"):
            network_from_nodes(nodes, seed=0, in_channels=2)

    def test_fan_in_scaling(self):
        cfg = AssemblyConfig(depth=1, stem_channels=64)
        net = build_network(ALL_SKIP, cfg, seed=3)
        stem = net.weights[1]
        # std should be near sqrt(2 / (3*9)) for the stem
        assert stem.std() == pytest.approx(np.sqrt(2 / 27), rel=0.05)


class TestIntermediateValueCount:
    def test_mlp_counts_hidden_units(self):
        net = dense_chain([4, 3], in_features=5)
        assert forward_capture(net, gaussian_batch(2, (5, 1, 1), seed=0)).n_values == 7

    def test_single_valid_conv_layer(self):
        net = conv_chain([(4, 3, 1, 0)], in_channels=1)
        assert forward_capture(net, gaussian_batch(2, (1, 5, 5), seed=0)).n_values == 4 * 3 * 3

    def test_strided_conv_layer(self):
        net = conv_chain([(2, 2, 2, 0)], in_channels=1)
        assert forward_capture(net, gaussian_batch(2, (1, 4, 4), seed=0)).n_values == 2 * 2 * 2

    def test_padded_layers_use_generalised_output_size(self):
        net = conv_chain([(4, 3, 1, 1)], in_channels=3)
        assert forward_capture(net, gaussian_batch(2, (3, 8, 8), seed=0)).n_values == 4 * 8 * 8

    def test_capture_row_count_matches(self):
        cfg = AssemblyConfig(depth=2, stem_channels=4, reductions=(1,))
        net = build_network(CELL, cfg, seed=1)
        batch = gaussian_batch(6, (3, 9, 9), seed=2)
        cap = forward_capture(net, batch)
        # stem 4*9*9, cell0 at 9x9 (3 convs), reduce to 8 channels at 5x5, cell1 at 5x5
        assert cap.n_values == 4 * 81 + 3 * 4 * 81 + 8 * 25 + 3 * 8 * 25
        assert cap.n_samples == 6

    def test_head_is_not_counted(self):
        cfg = AssemblyConfig(depth=1, stem_channels=8, head=True)
        net = build_network(ALL_SKIP, cfg, seed=0)
        batch = gaussian_batch(3, (3, 6, 6), seed=0)
        # stem is the only scored layer: 8 channels * 6 * 6
        assert forward_capture(net, batch).n_values == 8 * 36


class TestForwardCapture:
    def test_zero_weights_give_all_zero_bits(self):
        cfg = AssemblyConfig(depth=1, stem_channels=4)
        net = build_network(CELL, cfg, seed=0)
        zeroed = replace(net, weights=tuple(None if w is None else np.zeros_like(w) for w in net.weights))
        batch = gaussian_batch(5, (3, 6, 6), seed=1)
        for standardise in (False, True):
            cap = forward_capture(replace(zeroed, standardise=standardise), batch)
            assert not cap.bits().any()

    def test_tiny_positive_pre_activation_records_bit_one(self):
        # The capture's rule is ``value > 0``, with no epsilon threshold.
        net = dense_chain([1], in_features=1)
        ones = replace(
            net, weights=tuple(None if w is None else np.ones_like(w) for w in net.weights), standardise=False
        )
        batch = InputBatch(np.array([1e-300, 0.0, -1e-300]).reshape(3, 1, 1, 1))
        assert forward_capture(ones, batch).bits().tolist() == [[1, 0, 0]]

    def test_identical_samples_make_constant_rows(self):
        cfg = AssemblyConfig(depth=1, stem_channels=4)
        net = build_network(CELL, cfg, seed=3)
        one = gaussian_batch(1, (3, 6, 6), seed=4).data
        batch = InputBatch(np.repeat(one, 5, axis=0))
        bits = forward_capture(net, batch).bits()
        assert ((bits.min(axis=1) == bits.max(axis=1))).all()
        assert standard_pattern_cardinality(forward_capture(net, batch)) == 1

    def test_deterministic_capture(self):
        cfg = AssemblyConfig(depth=2, stem_channels=4)
        batch = gaussian_batch(4, (3, 7, 7), seed=5)
        a = forward_capture(build_network(CELL, cfg, seed=6), batch)
        b = forward_capture(build_network(CELL, cfg, seed=6), batch)
        assert np.array_equal(a.packed_rows, b.packed_rows)

    def test_sample_permutation_permutes_columns(self):
        cfg = AssemblyConfig(depth=1, stem_channels=4)
        net = build_network(CELL, cfg, seed=7)
        batch = gaussian_batch(6, (3, 5, 5), seed=8)
        perm = np.array([3, 0, 5, 1, 4, 2])
        shuffled = InputBatch(batch.data[perm])
        plain = forward_capture(net, batch).bits()
        permuted = forward_capture(net, shuffled).bits()
        assert np.array_equal(permuted, plain[:, perm])

    def test_dense_rejects_spatial_input(self):
        net = dense_chain([3], in_features=2)
        with pytest.raises(ShapeError, match="dense"):
            forward_capture(net, gaussian_batch(2, (2, 3, 3), seed=0))

    def test_batch_channel_mismatch_rejected(self):
        cfg = AssemblyConfig(depth=1, stem_channels=4)
        net = build_network(CELL, cfg, seed=0, in_channels=3)
        with pytest.raises(ShapeError, match="channels"):
            forward_capture(net, gaussian_batch(2, (1, 5, 5), seed=0))

    @pytest.mark.parametrize(
        "shape",
        [(4, 2, 3, 3), (4, 3, 5, 5), (5, 3, 3, 3), None],
        ids=["fewer-input-channels", "larger-kernel", "more-outputs", "missing"],
    )
    def test_weights_must_have_the_shapes_of_the_graph(self, shape):
        # The conv's own fields fix its weight shape; weights of any other
        # shape would run a network other than the one the graph describes.
        nodes = (
            NodeSpec("input", "input"),
            NodeSpec("conv", "conv", (0,), channels_out=4, kernel=3, padding=1, scored=True),
        )
        batch = gaussian_batch(4, (3, 6, 6), seed=0)
        assert forward_capture(network_from_nodes(nodes, 0, 3), batch).n_values == 144
        weights = (None, None if shape is None else np.ones(shape))
        net = NetworkInstance(nodes, weights, seed=0, in_channels=3)
        message = f"node conv has weight shape {shape}, but its graph gives (4, 3, 3, 3)"
        with pytest.raises(AssemblyError) as caught:
            forward_capture(net, batch)
        assert str(caught.value) == message

    def test_a_weight_on_a_node_without_weights_is_rejected(self):
        nodes = (NodeSpec("input", "input"), NodeSpec("relu", "skip", (0,), scored=True))
        net = NetworkInstance(nodes, (None, np.ones(3)), seed=0, in_channels=3)
        with pytest.raises(AssemblyError) as caught:
            forward_capture(net, gaussian_batch(2, (3, 4, 4), seed=0))
        assert str(caught.value) == "node relu has weight shape (3,), but its graph gives None"

    def test_scored_skip_leaves_its_input_untouched(self):
        # Without standardisation a scored skip's output is its input's own
        # array, so its ReLU must not run in place: not on the read-only
        # batch, and not on a map that a later node still reads.
        after = NodeSpec("after", "conv", (2,), channels_out=2, kernel=1, scored=True)
        nodes = (
            NodeSpec("input", "input"),
            NodeSpec("relu-batch", "skip", (0,), scored=True),
            NodeSpec("conv", "conv", (0,), channels_out=3, kernel=3, padding=1),
            NodeSpec("relu-conv", "skip", (2,), scored=True),
            after,
        )
        batch = gaussian_batch(4, (2, 5, 5), seed=3)
        before = batch.data.copy()
        cap = forward_capture(network_from_nodes(nodes, 4, 2, standardise=False), batch)
        assert batch.data.tobytes() == before.tobytes()
        # Skips draw no weights, so dropping one keeps the convs' weights.
        alone = forward_capture(network_from_nodes(nodes[:3] + (after,), 4, 2, standardise=False), batch)
        assert cap.n_values == 50 + 75 + 50
        assert np.array_equal(cap.bits()[-50:], alone.bits()[-50:])

    def test_overflow_identifies_the_layer(self):
        net = conv_chain([(4, 3, 1, 1), (4, 3, 1, 1)], in_channels=3, standardise=False)
        broken = replace(net, weights=tuple(None if w is None else w * 1e200 for w in net.weights))
        with pytest.raises(NumericOverflowError, match="conv1"):
            forward_capture(broken, gaussian_batch(2, (3, 6, 6), seed=1))

    def test_overflow_identifies_the_layer_when_warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.test_overflow_identifies_the_layer()


def np_pad(x, padding):
    """The spatial zero padding of earlier versions, the oracle for ``_pad``."""
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else x


@st.composite
def pool_maps(draw):
    """Maps for the 3x3, stride-1, padding-1 average pool.

    Widths and heights reach down to 1.  Maps come C-contiguous,
    NHWC-strided (a conv output is a (0, 3, 1, 2) transpose view) and
    Fortran-ordered, with signed or post-ReLU values; zeros of both signs
    are common because hypothesis fills most of each array with one value.
    """
    s, c = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    w, h = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    layout = draw(st.sampled_from(["nchw", "nhwc", "fortran"]))
    values = st.floats(-4.0, 4.0) | st.sampled_from([0.0, -0.0])
    if layout == "nhwc":
        x = draw(arrays(np.float64, (s, w, h, c), elements=values)).transpose(0, 3, 1, 2)
    else:
        x = draw(arrays(np.float64, (s, c, w, h), elements=values))
        if layout == "fortran":
            x = np.asfortranarray(x)
    if draw(st.booleans()):
        x = np.maximum(x, 0.0)  # keeps the layout, and -0.0, as a ReLU does
    return x


class TestAvgPool:
    @settings(max_examples=400, deadline=None)
    @given(pool_maps())
    def test_matches_the_window_mean_bytewise(self, x):
        want = window_mean_pool(x)
        got = _avg_pool(x)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@st.composite
def conv_inputs(draw):
    """(map, weights, stride, padding) for a 1x1 or 3x3 convolution.

    Widths differ from heights, and output sizes reach down to 1.  Maps come
    C-contiguous or NHWC-strided (the (0, 3, 1, 2) transpose view a conv
    returns).
    """
    kernel, stride, padding = (draw(st.sampled_from(v)) for v in ((1, 3), (1, 2), (0, 1)))
    s, c, n_out = (draw(st.integers(1, 9)) for _ in range(3))
    low = max(1, kernel - 2 * padding)
    w = draw(st.integers(low, 9))
    h = draw(st.integers(low, 9).filter(lambda v: v != w))
    values = st.floats(-4.0, 4.0) | st.sampled_from([0.0, -0.0])
    if draw(st.booleans()):
        x = draw(arrays(np.float64, (s, w, h, c), elements=values)).transpose(0, 3, 1, 2)
    else:
        x = draw(arrays(np.float64, (s, c, w, h), elements=values))
    weights = draw(arrays(np.float64, (n_out, c, kernel, kernel), elements=st.floats(-2.0, 2.0)))
    return x, weights, stride, padding


@st.composite
def multi_block_convs(draw):
    """Shapes of 3x3 convolutions of two or more blocks, and a seed for their values.

    Maps reach 36x36 with up to 48 channels and samples, in both layouts.
    The sample count is drawn last, from the counts that split the conv,
    and the oracle's window matrix stays below 16 MB.
    """
    c, n_out = draw(st.integers(1, 48)), draw(st.integers(2, 48))
    stride, padding = draw(st.sampled_from((1, 2))), draw(st.sampled_from((0, 1)))
    w, h = (draw(st.integers(3 - 2 * padding, 36)) for _ in range(2))
    rows = ((w + 2 * padding - 3) // stride + 1) * ((h + 2 * padding - 3) // stride + 1)
    per = _conv_blocks(96, rows, n_out, c * 9)[1]  # samples in each block but the last
    most = min(48, 2_000_000 // (rows * c * 9))
    assume(2 * per <= most)
    s = draw(st.integers(2 * per, most))
    return (s, c, w, h), n_out, stride, padding, draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


def seeded_conv_case(shape, n_out, stride, padding, nhwc, seed):
    """A map of ``shape`` (NHWC-strided if ``nhwc``) with a tenth of its values
    set to 0.0 and a tenth to -0.0, and (n_out, C, 3, 3) weights."""
    rng = np.random.default_rng(seed)
    s, c, w, h = shape
    x = rng.standard_normal((s, w, h, c) if nhwc else shape)
    for zero in (0.0, -0.0):
        x.flat[rng.integers(x.size, size=x.size // 10)] = zero
    if nhwc:
        x = x.transpose(0, 3, 1, 2)
    return x, rng.standard_normal((n_out, c, 3, 3)), stride, padding


def tensordot_conv(x, w, stride, padding):
    """The conv of earlier versions, kept as the oracle: tensordot over a
    strided window view reshapes out the window matrix the conv builds."""
    k = w.shape[-1]
    windows = sliding_window_view(np_pad(x, padding), (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    return np.transpose(np.tensordot(windows, w, axes=[(1, 4, 5), (1, 2, 3)]), (0, 3, 1, 2))


class TestConv2d:
    @settings(max_examples=400, deadline=None)
    @given(conv_inputs())
    # One-sample, one-output 1x1 convs where tensordot's window matrix is a
    # strided view, so BLAS takes another path than on a gathered copy.
    @example((np.full((1, 6, 1, 2), 1.85474576e-07), np.full((1, 6, 1, 1), 0.3125), 1, 0))
    @example((np.full((1, 9, 2, 2), 1.0), np.full((1, 9, 1, 1), 0.1), 2, 0))
    def test_matches_tensordot_bytewise(self, case):
        want = tensordot_conv(*case)
        got = _conv2d(*case)
        assert got.shape == want.shape
        assert got.strides == want.strides
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(multi_block_convs())
    def test_blocked_conv_matches_tensordot_bytewise(self, conv):
        case = seeded_conv_case(*conv)
        want = tensordot_conv(*case)
        s, n_out, wo, ho = want.shape
        assert len(_conv_blocks(s, wo * ho, n_out, case[1][0].size)) > 2
        got = _conv2d(*case)
        assert got.strides == want.strides
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=400)
    @given(st.integers(1, 64), st.integers(1, 1300), st.integers(1, 64), st.integers(1, 600))
    def test_blocks_follow_the_exactness_rule(self, s, rows, n_out, depth):
        edges = _conv_blocks(s, rows, n_out, depth)
        sizes = np.diff(edges)
        assert edges[0] == 0 and edges[-1] == s and (sizes > 0).all()
        if n_out == 1:  # OpenBLAS forwards it to GEMV, so it is never split
            assert len(sizes) == 1
        if len(sizes) > 1:
            assert (sizes[:-1] == sizes[0]).all() and sizes[-1] >= sizes[0]
            assert (sizes[:-1] * rows % 8 == 0).all()
            assert (sizes * rows * n_out * depth > _CONV_BLOCK_MIN_WORK).all()

    def test_large_conv_splits_and_small_conv_does_not(self):
        # 32x16x32x32 -> 16, the benchmark's largest conv, and a search-small one.
        assert _conv_blocks(32, 32 * 32, 16, 16 * 9) == list(range(33))
        assert _conv_blocks(16, 8 * 8, 8, 8 * 9) == [0, 16]
        assert _conv_blocks(32, 32 * 32, 1, 16 * 9) == [0, 32]


@st.composite
def standardise_inputs(draw):
    """Pre-activation maps for the per-channel standardisation.

    Maps come NHWC-strided (as a conv returns them) or C-contiguous, and
    dense-shaped (S, units, 1, 1) half the time; S reaches down to 1, some
    channels are constant and scales run from 1e-6 to 1e6.
    """
    s, c = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    w, h = (1, 1) if draw(st.booleans()) else (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    values = st.floats(-4.0, 4.0)
    if draw(st.booleans()):
        y = draw(arrays(np.float64, (s, w, h, c), elements=values)).transpose(0, 3, 1, 2)
    else:
        y = draw(arrays(np.float64, (s, c, w, h), elements=values))
    for channel in draw(st.sets(st.integers(0, c - 1))):
        y[:, channel] = draw(values)
    return y * 10.0 ** draw(st.integers(-6, 6))


def mean_var_standardise(y):
    """The per-channel standardisation of earlier versions, kept as the oracle."""
    axes = (0, 2, 3)
    mean, var = y.mean(axis=axes, keepdims=True), y.var(axis=axes, keepdims=True)
    return (y - mean) / np.sqrt(var + _STANDARDISE_EPS)


class TestStandardise:
    @settings(max_examples=400, deadline=None)
    @given(standardise_inputs())
    def test_matches_the_mean_var_formula_bytewise(self, y):
        # The one-mean form rests on the float operations numpy's mean and
        # var run, so a numpy upgrade that changes them fails here.
        want = mean_var_standardise(y)
        got = _standardise(y)
        assert got.strides == want.strides
        assert got.tobytes() == want.tobytes()


@st.composite
def wide_standardise_inputs(draw):
    """Maps of 2 to 70 channels with up to 4,608 values per channel.

    Maps come NHWC-strided (as a conv returns them), dense-shaped
    (S, units, 1, 1) with up to 4,096 samples, or C-contiguous, the layout
    that takes ``np.add.reduce``.  Channels have their own offsets, a few
    are constant and scales run from 1e-6 to 1e6.
    """
    c = draw(st.integers(2, 70))
    layout = draw(st.sampled_from(["nhwc", "dense", "nchw"]))
    if layout == "dense":
        s, w, h = draw(st.integers(1, 4096)), 1, 1
    else:
        s, w, h = draw(st.integers(1, 32)), draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = (rng.standard_normal((s, w, h, c)) + 4 * rng.standard_normal(c)).transpose(0, 3, 1, 2)
    if layout == "nchw":
        y = np.ascontiguousarray(y)
    for channel in draw(st.sets(st.integers(0, c - 1), max_size=3)):
        y[:, channel] = rng.standard_normal()
    return y * 10.0 ** draw(st.integers(-6, 6))


class TestStandardiseAtScale:
    @settings(max_examples=150, deadline=None)
    @given(wide_standardise_inputs())
    def test_matches_the_mean_var_formula_bytewise(self, y):
        # The einsum sums give numpy's bytes only while both add each
        # channel row by row; many rows and wide channel rows check that.
        want = mean_var_standardise(y)
        got = _standardise(y)
        assert got.strides == want.strides
        assert got.tobytes() == want.tobytes()

    def test_conv_and_dense_outputs_take_the_einsum_sums(self, monkeypatch):
        # The sums are picked by layout, so a conv or dense step that stopped
        # returning channels innermost would keep every byte and only run
        # slower; this pins which scored layers take einsum.
        nodes = (
            NodeSpec("input", "input"),
            NodeSpec("skip", "skip", (0,), scored=True),  # the NCHW batch: add.reduce
            NodeSpec("conv1", "conv", (0,), channels_out=4, kernel=1, scored=True),
            NodeSpec("conv3", "conv", (2,), channels_out=5, kernel=3, stride=2, padding=1, scored=True),
            NodeSpec("narrow", "conv", (3,), channels_out=1, kernel=1, scored=True),  # C = 1: add.reduce
            NodeSpec("pool", "global-pool", (3,)),
            NodeSpec("dense", "dense", (5,), units=6, scored=True),
        )
        net = network_from_nodes(nodes, seed=0, in_channels=3)
        sums = []
        einsum = np.einsum

        def spy(subscripts, *operands):
            sums.append((subscripts, operands[0].shape))
            return einsum(subscripts, *operands)

        monkeypatch.setattr(np, "einsum", spy)
        forward_capture(net, gaussian_batch(3, (3, 5, 5), seed=1))
        assert sums == [
            ("ij->j", (75, 4)), ("ij,ij->j", (75, 4)),  # 1x1 conv, 3 samples of 5x5
            ("ij->j", (27, 5)), ("ij,ij->j", (27, 5)),  # 3x3 conv, 3 samples of 3x3
            ("ij->j", (3, 6)), ("ij,ij->j", (3, 6)),  # dense, 3 samples
        ]


@st.composite
def cells_with_batches(draw):
    """Small random cell stacks, with reductions and heads, and a batch for each.

    Batches hold 1 to 17 samples, so packed rows are 1 to 3 bytes wide, on
    maps of 1 to 12 per side.
    """
    cell = random_cell(draw(st.integers(2, 5)), draw(st.integers(0, 2**32 - 1)))
    depth = draw(st.integers(1, 3))
    assembly = AssemblyConfig(
        depth=depth,
        stem_channels=draw(st.integers(1, 4)),
        reductions=tuple(draw(st.lists(st.integers(0, depth - 1), unique=True).map(sorted))),
        head=draw(st.booleans()),
        head_units=draw(st.integers(1, 5)),
    )
    channels = draw(st.integers(1, 3))
    net = build_network(cell, assembly, seed=draw(st.integers(0, 2**32 - 1)), in_channels=channels)
    dims = (channels, draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    return net, gaussian_batch(draw(st.integers(1, 17)), dims, seed=draw(st.integers(0, 2**32 - 1)))


def window_mean_pool(x):
    """The avg-pool's oracle: numpy's window mean of the C-contiguous ``np_pad`` map.

    numpy sums each window's 3-tap rows and then the row sums only on a map
    whose output height exceeds 1, so a map of height 1 is widened along H
    by one zero column, and output column 0 is kept.
    """
    padded = np.ascontiguousarray(np_pad(x, 1))
    if x.shape[3] == 1:
        padded = np.concatenate([padded, np.zeros(padded.shape[:3] + (1,))], axis=3)
    mean = sliding_window_view(padded, (3, 3), axis=(2, 3)).mean(axis=(4, 5))
    return np.ascontiguousarray(mean[..., : x.shape[3]])


def place_value_pack(bits):
    """(values x samples) 0/1 rows packed eight samples a byte, the first in the high bit."""
    v, s = bits.shape
    padded = np.concatenate([bits, np.zeros((v, -s % 8), dtype=bits.dtype)], axis=1).astype(np.int64)
    return (padded.reshape(v, -1, 8) << np.arange(7, -1, -1)).sum(axis=2).astype(np.uint8)


def reference_capture(net, batch):
    """The capturing forward pass rebuilt from the oracles of this file.

    Every node's output is a new array that is kept to the end, so no fast
    path, in-place ReLU or early free is involved; fan-in sums run in input
    order, as ``forward_capture``'s do.  Returns the packed capture rows.
    """
    n = batch.n_samples
    values, rows = [], [np.zeros((0, n), dtype=bool)]
    for node, w in zip(net.nodes, net.weights):
        if node.kind == "input":
            values.append(batch.data)
            continue
        x = sum((values[i] for i in node.inputs[1:]), values[node.inputs[0]])
        if node.kind == "conv":
            out = tensordot_conv(x, w, node.stride, node.padding)
        elif node.kind == "avg-pool":
            out = window_mean_pool(x)
        elif node.kind == "skip":
            out = x
        elif node.kind == "global-pool":
            out = x.mean(axis=(2, 3), keepdims=True)
        else:
            out = (x.reshape(n, -1) @ w.T).reshape(n, -1, 1, 1)
        if node.scored:
            if net.standardise:
                out = mean_var_standardise(out)
            rows.append((out > 0).transpose(1, 2, 3, 0).reshape(-1, n))
            out = np.maximum(out, 0.0)
        values.append(out)
    return place_value_pack(np.concatenate(rows))


def splits_a_conv(net, batch):
    """Whether some 3x3 conv of ``net`` runs in two or more blocks on ``batch``."""
    shapes = trace_shapes(net.nodes, batch.dims)
    return any(
        len(_conv_blocks(batch.n_samples, wo * ho, node.channels_out, shapes[node.inputs[0]][0] * 9)) > 2
        for node, (_, wo, ho) in zip(net.nodes, shapes)
        if node.kind == "conv" and node.kernel == 3
    )


# Three 3x3 conv edges, a 1x1 conv, a pool and a skip.
FULL_CELL = CellMatrix([[0, 1, 1, 2], [0, 0, 1, 3], [0, 0, 0, 4], [0, 0, 0, 0]])

# A scored skip on the read-only batch and one on a conv output that a later
# conv still reads.
SCORED_SKIPS = (
    NodeSpec("input", "input"),
    NodeSpec("relu-batch", "skip", (0,), scored=True),
    NodeSpec("conv", "conv", (0,), channels_out=3, kernel=3, padding=1),
    NodeSpec("relu-conv", "skip", (2,), scored=True),
    NodeSpec("after", "conv", (2,), channels_out=3, kernel=1, scored=True),
    NodeSpec("pool", "avg-pool", (3, 4), kernel=3, padding=1),
    NodeSpec("out", "conv", (5,), channels_out=2, kernel=3, padding=1, scored=True),
)


class TestReferencePipeline:
    @settings(max_examples=150, deadline=None)
    @given(cells_with_batches(), st.booleans())
    def test_capture_matches_the_reference_pass(self, case, standardise):
        net, batch = case
        net = replace(net, standardise=standardise)
        got = forward_capture(net, batch).packed_rows
        want = reference_capture(net, batch)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "make_net, dims, n_samples, blocked",
        [
            (lambda: build_network(FULL_CELL, nb201_like_assembly(), 31, 3), (3, 32, 32), 3, True),
            (
                lambda: build_network(
                    FULL_CELL,
                    AssemblyConfig(depth=2, stem_channels=8, reductions=(1,), head=True, standardise=False),
                    32,
                    3,
                ),
                (3, 24, 20), 17, True,
            ),
            (lambda: network_from_nodes(SCORED_SKIPS, 33, 2, standardise=False), (2, 5, 4), 9, False),
        ],
        ids=["nb201-32x32", "reduction-head-24x20", "scored-skips"],
    )
    def test_fixed_graphs_match_the_reference_pass(self, make_net, dims, n_samples, blocked):
        net, batch = make_net(), gaussian_batch(n_samples, dims, seed=34)
        assert splits_a_conv(net, batch) == blocked
        got = forward_capture(net, batch).packed_rows
        assert got.tobytes() == reference_capture(net, batch).tobytes()


@st.composite
def shared_input_graphs(draw):
    """Hand-built graphs of one width and map size whose nodes share input tuples.

    Each node reads a tuple drawn before (so a tuple has one to several
    readers) or a new one of one to three earlier ids, repeats allowed, so
    a node is read alone, inside tuples or both.  Nodes are convs, pools
    and skips, any of them scored; skips over the batch, over one input,
    over other skips and over shared sums arise.  An optional head pools
    one tuple globally and feeds a dense layer.
    """
    c = draw(st.integers(1, 3))
    nodes = [NodeSpec("input", "input")]
    tuples = []
    for k in range(1, draw(st.integers(2, 10))):
        if tuples and draw(st.booleans()):
            ins = draw(st.sampled_from(tuples))
        else:
            ins = tuple(draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=3)))
            tuples.append(ins)
        kind = draw(st.sampled_from(["conv", "avg-pool", "skip", "skip"]))
        scored = draw(st.booleans())
        if kind == "conv":
            kernel = draw(st.sampled_from([1, 3]))
            node = NodeSpec(f"n{k}", "conv", ins, channels_out=c, kernel=kernel, padding=kernel // 2, scored=scored)
        elif kind == "avg-pool":
            node = NodeSpec(f"n{k}", "avg-pool", ins, kernel=3, padding=1, scored=scored)
        else:
            node = NodeSpec(f"n{k}", "skip", ins, scored=scored)
        nodes.append(node)
    if draw(st.booleans()):
        ins = draw(st.sampled_from(tuples))
        nodes.append(NodeSpec("pool", "global-pool", ins, scored=draw(st.booleans())))
        nodes.append(NodeSpec("fc", "dense", (len(nodes) - 1,), units=2, scored=True))
    assume(any(node.scored for node in nodes))
    net = network_from_nodes(tuple(nodes), draw(st.integers(0, 2**32 - 1)), c, draw(st.booleans()))
    dims = (c, draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    return net, gaussian_batch(draw(st.integers(1, 9)), dims, seed=draw(st.integers(0, 2**32 - 1)))


# Every case of shared_input_graphs at once: (1, 2) read by a conv, a scored
# skip and a pool; a tuple with a repeated id; node 1 read alone and inside
# tuples; scored skips over the batch, over one input and over a shared sum;
# a skip chain (8 -> 9 -> 10) and an unscored skip over a shared sum (11).
SHARED_INPUTS = (
    NodeSpec("input", "input"),
    NodeSpec("stem", "conv", (0,), channels_out=2, kernel=3, padding=1, scored=True),
    NodeSpec("relu-batch", "skip", (0,), scored=True),
    NodeSpec("sum-conv", "conv", (1, 2), channels_out=2, kernel=1, scored=True),
    NodeSpec("relu-sum", "skip", (1, 2), scored=True),
    NodeSpec("pool", "avg-pool", (1, 2), kernel=3, padding=1),
    NodeSpec("relu-one", "skip", (1,), scored=True),
    NodeSpec("twice", "conv", (3, 3, 5), channels_out=2, kernel=3, padding=1, scored=True),
    NodeSpec("chain0", "skip", (4, 6)),
    NodeSpec("chain1", "skip", (8,)),
    NodeSpec("chain2", "skip", (9,), scored=True),
    NodeSpec("alias", "skip", (3, 3, 5)),
    NodeSpec("last", "conv", (3, 3, 5), channels_out=2, kernel=1, scored=True),
    NodeSpec("relu-last", "skip", (10, 11, 12), scored=True),
)


class TestSharedInputs:
    """The pass that shares fan-in sums, drops each map at its last read and
    writes in place over each scored node's own output (a scored skip's
    copy of its input) gives the bytes of ``reference_capture``, which sums
    afresh for each reader, never writes in place and keeps every map."""

    @settings(max_examples=300, deadline=None)
    @given(shared_input_graphs())
    @example(
        (network_from_nodes(SHARED_INPUTS, 5, 2, True), gaussian_batch(5, (2, 4, 3), seed=6))
    ).via("every case, standardised")
    @example(
        (network_from_nodes(SHARED_INPUTS, 5, 2, False), gaussian_batch(5, (2, 4, 3), seed=6))
    ).via("every case, raw")
    def test_capture_matches_the_reference_pass(self, case):
        net, batch = case
        before = batch.data.copy()
        got = forward_capture(net, batch).packed_rows
        want = reference_capture(net, batch)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert batch.data.tobytes() == before.tobytes()


class TestGraphTrace:
    @settings(max_examples=100, deadline=None)
    @given(cells_with_batches())
    def test_one_walk_matches_the_network_and_its_capture(self, case):
        net, batch = case
        trace = trace_graph(net.nodes, batch.dims)
        assert trace.parameters == sum(w.size for w in net.weights if w is not None)
        scored = sum(c * w * h for node, (c, w, h) in zip(net.nodes, trace.shapes) if node.scored)
        assert scored == forward_capture(replace(net, standardise=False), batch).n_values
        read = {i for node in net.nodes for i in node.inputs}
        assert set(trace.last_read) == read | {node.inputs for node in net.nodes if len(node.inputs) > 1}
        bare = trace_graph(net.nodes, (batch.channels,))
        assert [c for c, _, _ in bare.shapes] == [c for c, _, _ in trace.shapes]
        assert (bare.weight_shapes, bare.last_read) == (trace.weight_shapes, trace.last_read)
        assert bare.parameters == trace.parameters

    @settings(max_examples=200, deadline=None)
    @given(shared_input_graphs())
    @example(
        (network_from_nodes(SHARED_INPUTS, 5, 2, True), gaussian_batch(5, (2, 4, 3), seed=6))
    ).via("every case")
    def test_last_read_is_the_last_reader_of_each_map(self, case):
        net, batch = case
        # (map, reader) pairs: a tuple's first reader reads the tuple and its
        # inputs, a later reader only the tuple, a one-input node its input.
        reads = []
        for k, node in enumerate(net.nodes):
            if len(node.inputs) == 1:
                reads.append((node.inputs[0], k))
            elif node.inputs:
                reads.append((node.inputs, k))
                if [n.inputs for n in net.nodes].index(node.inputs) == k:
                    reads.extend((i, k) for i in node.inputs)
        # A map that no node reads has no key in either.
        want = {key: max(k for read, k in reads if read == key) for key, _ in reads}
        assert trace_graph(net.nodes, batch.dims).last_read == want


class TestScaleInvariance:
    def scale_node(self, net: NetworkInstance, name: str, factor: float) -> NetworkInstance:
        weights = list(net.weights)
        idx = next(i for i, n in enumerate(net.nodes) if n.name == name)
        weights[idx] = weights[idx] * factor
        return replace(net, weights=tuple(weights))

    def test_scaling_the_stem_preserves_bits_on_random_cells(self):
        rng = np.random.default_rng(20)
        cfg = AssemblyConfig(depth=2, stem_channels=4, standardise=False)
        batch = gaussian_batch(6, (3, 6, 6), seed=21)
        for _ in range(10):
            cell = random_cell(4, rng)
            net = build_network(cell, cfg, seed=int(rng.integers(1 << 30)))
            scaled = self.scale_node(net, "stem", 10.0)
            a = forward_capture(net, batch)
            b = forward_capture(scaled, batch)
            assert np.array_equal(a.packed_rows, b.packed_rows)

    def test_scaling_any_layer_preserves_bits_on_chains(self):
        rng = np.random.default_rng(22)
        batch = gaussian_batch(5, (2, 8, 8), seed=23)
        net = conv_chain([(3, 3, 1, 1), (4, 3, 2, 1), (5, 1, 1, 0)], seed=24, in_channels=2, standardise=False)
        for li in range(3):
            scaled = self.scale_node(net, f"conv{li}", 10.0)
            a = forward_capture(net, batch)
            b = forward_capture(scaled, batch)
            assert np.array_equal(a.packed_rows, b.packed_rows)
            assert swap_score(a) == swap_score(b)

    @settings(max_examples=60, deadline=None)
    @given(cells_with_batches(), st.integers(-4, 4))
    def test_scaling_the_batch_by_a_power_of_two_preserves_bits(self, case, k):
        # Every layer is positively homogeneous without standardisation, and
        # a power of two scales each product, sum and /9 exactly, so the
        # captures must match byte for byte.  Scaling the batch keeps the
        # summed edges of a cell in proportion; scaling one interior conv
        # would not.
        net, batch = case
        net = replace(net, standardise=False)
        scaled = InputBatch(batch.data * 2.0**k)
        a = forward_capture(net, batch)
        b = forward_capture(net, scaled)
        assert a.packed_rows.shape == b.packed_rows.shape
        assert a.packed_rows.tobytes() == b.packed_rows.tobytes()

    def test_standardisation_breaks_the_identity_visibly(self):
        # Not an invariance: standardised captures are allowed to differ when
        # the whole signal path is rescaled, because means shift too.  This
        # guards the toggle wiring rather than a mathematical property.
        net = conv_chain([(3, 3, 1, 1)], seed=25, in_channels=2)
        batch = gaussian_batch(5, (2, 6, 6), seed=26)
        a = forward_capture(net, batch)
        b = forward_capture(replace(net, standardise=False), batch)
        assert a.n_values == b.n_values
