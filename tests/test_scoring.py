"""Tests for batch descriptors, seed derivation and record assembly."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swapnas.cells
import swapnas.network
import swapnas.scoring
from swapnas.cells import (
    AssemblyConfig,
    CellMatrix,
    count_flops,
    count_parameters,
    nb201_like_assembly,
    params_to_megabytes,
    random_cell,
)
from swapnas.evaluation import (
    BenchmarkEntry,
    BenchmarkTable,
    input_dim_ablation,
    score_table,
)
from swapnas.evolution import SearchConfig, run_search
from swapnas.metric import RegularisationParams
from swapnas.network import build_network, forward_capture, gaussian_batch, write_tensor_file
from swapnas.scoring import (
    derive_seed,
    make_batch,
    parse_batch_spec,
    score_and_capture,
    score_cell,
)

CELL = CellMatrix([[0, 1, 4, 2], [0, 0, 3, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
ASSEMBLY = AssemblyConfig(depth=1, stem_channels=4)


@pytest.fixture
def assemble_calls(monkeypatch):
    """The argument tuples of every ``assemble_descriptor`` call made during a test."""
    calls = []
    original = swapnas.cells.assemble_descriptor

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (swapnas.cells, swapnas.network):
        monkeypatch.setattr(module, "assemble_descriptor", counted)
    return calls


class TestBatchSpecs:
    def test_gauss_spec(self):
        assert parse_batch_spec("gauss:32x3x32x32") == ("gauss", (32, 3, 32, 32))

    def test_malformed_gauss_spec(self):
        with pytest.raises(ValueError, match="SxCxWxH"):
            parse_batch_spec("gauss:32x3x32")

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            parse_batch_spec("gauss:0x3x4x4")

    def test_anything_else_is_a_path(self):
        assert parse_batch_spec("data/batch.tensor") == ("file", "data/batch.tensor")

    def test_make_batch_synthetic_is_seeded(self):
        a = make_batch("gauss:4x2x3x3", seed=5)
        b = make_batch("gauss:4x2x3x3", seed=5)
        c = make_batch("gauss:4x2x3x3", seed=6)
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)

    def test_make_batch_from_file(self, tmp_path):
        batch = gaussian_batch(3, (2, 4, 4), seed=1)
        path = tmp_path / "b.tensor"
        write_tensor_file(path, batch)
        loaded = make_batch(str(path), seed=999)  # seed irrelevant for files
        assert loaded.data.shape == (3, 2, 4, 4)


class TestDeriveSeed:
    def test_xor_folding(self):
        assert derive_seed(0, 0) == 0
        assert derive_seed(5, 3) == 6
        assert derive_seed(2**64 - 1, 1) == 2**64 - 2

    def test_stays_in_64_bits(self):
        assert 0 <= derive_seed(2**70, 12345) < 2**64


class TestScoreCell:
    def test_record_fields_consistent(self):
        batch = gaussian_batch(8, (3, 6, 6), seed=2)
        params = RegularisationParams(mu=0.5, sigma=0.5)
        record = score_cell(CELL, ASSEMBLY, batch, 9).regularised(params)
        # Labels are the caller's to set; the scorer leaves them empty.
        assert record.arch_id == ""
        assert record.batch == ""
        assert record.seed == 9
        assert 1 <= record.swap
        assert record.reg_swap <= record.swap
        assert record.size_mb > 0 and record.flops > 0

    def test_no_regularisation_copies_raw_score(self):
        batch = gaussian_batch(8, (3, 6, 6), seed=2)
        record = score_cell(CELL, ASSEMBLY, batch, 9)
        assert record.reg_swap == float(record.swap)

    def test_one_assembly_gives_the_wrapper_sizes_and_capture(self, assemble_calls):
        cfg = AssemblyConfig(depth=3, stem_channels=4, reductions=(1,), head=True, standardise=False)
        batch = gaussian_batch(5, (3, 9, 7), seed=1)
        rng = np.random.default_rng(5)
        for _ in range(4):
            cell = random_cell(4, rng)
            assemble_calls.clear()
            record, capture = score_and_capture(cell, cfg, batch, 3)
            assert len(assemble_calls) == 1
            assert record == score_cell(cell, cfg, batch, 3)
            assert record.size_mb == params_to_megabytes(count_parameters(cell, cfg))
            assert record.flops == count_flops(cell, cfg, batch.dims)
            expected = forward_capture(build_network(cell, cfg, 3), batch)
            assert np.array_equal(capture.packed_rows, expected.packed_rows)

    @settings(max_examples=60, deadline=None)
    @given(
        n_nodes=st.integers(2, 5),
        cell_seed=st.integers(0, 2**32 - 1),
        depth=st.integers(1, 3),
        data=st.data(),
        weight_seed=st.integers(0, 2**32 - 1),
        channels=st.integers(1, 3),
    )
    def test_library_path_captures_what_the_scorer_captures(
        self, n_nodes, cell_seed, depth, data, weight_seed, channels
    ):
        # A network built from an assembly carries its standardisation, so
        # forward_capture on it sees the bits the scorer scores.
        cell = random_cell(n_nodes, cell_seed)
        assembly = AssemblyConfig(
            depth=depth,
            stem_channels=data.draw(st.integers(1, 4)),
            reductions=tuple(data.draw(st.lists(st.integers(0, depth - 1), unique=True).map(sorted))),
            head=data.draw(st.booleans()),
            head_units=data.draw(st.integers(1, 5)),
            standardise=data.draw(st.booleans()),
        )
        dims = (channels, data.draw(st.integers(2, 8)), data.draw(st.integers(2, 8)))
        batch = gaussian_batch(data.draw(st.integers(1, 12)), dims, seed=data.draw(st.integers(0, 2**32 - 1)))
        library = forward_capture(build_network(cell, assembly, weight_seed, channels), batch)
        scorer = score_and_capture(cell, assembly, batch, weight_seed)[1]
        assert library.packed_rows.tobytes() == scorer.packed_rows.tobytes()
        assert library.packed_rows.shape == scorer.packed_rows.shape

    @pytest.mark.parametrize(
        "rows, bound_mib",
        [
            ([[0, 1, 0, 2], [0, 0, 4, 3], [0, 0, 0, 3], [0, 0, 0, 0]], 26),
            ([[0, 2, 2, 1], [0, 0, 1, 1], [0, 0, 0, 1], [0, 0, 0, 0]], 34),
        ],
        ids=["pool-and-skip", "all-convs"],
    )
    def test_nb201_score_peak_memory(self, rows, bound_mib):
        # tracemalloc sees numpy's allocations and reads the same peak every
        # run, unlike ru_maxrss.  Building each 3x3 conv's window matrix whole
        # put the first score at 58.5 MiB; blocks of about 1 MiB brought it to
        # 29.0, and the second, the heaviest NB201 cell then, to 41.5.  One
        # fan-in sum per input tuple, each map freed after its last reader and
        # an in-place standardise of maps the node owns read 21.9 and 29.6.
        batch = make_batch("gauss:32x3x32x32", 0)
        tracemalloc.start()
        try:
            score_cell(CellMatrix(rows), nb201_like_assembly(), batch, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20


class TestOneAssemblyPerScore:
    """Resolving reg="auto" reads the sizes scoring returned; no cell is assembled twice."""

    def test_search(self, assemble_calls):
        cfg = SearchConfig(
            population=5, cycles=3, mutation_times=2, seed=4,
            batch="gauss:4x3x5x5", assembly=ASSEMBLY, reg="auto",
        )
        result = run_search(cfg)
        # The search scores each distinct cell once, so it assembles each once.
        cells = [args[0] for args in assemble_calls]
        assert len(cells) == len(set(cells))
        assert len(cells) <= result.evaluations

    def test_score_table(self, assemble_calls):
        entries = tuple(BenchmarkEntry(f"a{i}", random_cell(4, i), 0.5) for i in range(7))
        table = BenchmarkTable(entries)
        records = score_table(table, ASSEMBLY, "gauss:4x3x5x5", n_seeds=3, reg="auto")
        assert len(records) == len(entries)
        assert len(assemble_calls) == len(entries)

    def test_input_dim_ablation(self, assemble_calls):
        cells = [random_cell(4, i) for i in range(4)]
        dims = [(3, 4, 4), (2, 5, 5), (1, 3, 3)]
        input_dim_ablation(cells, dims, 5, assembly=ASSEMBLY, reg="auto")
        assert len(assemble_calls) == len(cells) * len(dims)


class TestGraphWalksPerScore:
    def test_a_score_walks_the_graph_three_times(self, monkeypatch):
        # The weight draw walks without map sizes, before the network meets
        # the batch; forward_capture checks whatever network it is handed;
        # and the scorer reads the size and MACs from its own walk.
        calls = []
        original = swapnas.cells.trace_graph
        for module in (swapnas.cells, swapnas.network, swapnas.scoring):
            def counted(*args, _name=module.__name__):
                calls.append(_name)
                return original(*args)

            monkeypatch.setattr(module, "trace_graph", counted)
        score_cell(CELL, nb201_like_assembly(depth=3, stem_channels=4), gaussian_batch(3, (3, 8, 8), 1), 2)
        assert sorted(calls) == ["swapnas.network", "swapnas.network", "swapnas.scoring"]
