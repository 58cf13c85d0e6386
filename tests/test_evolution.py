"""Tests for the mutation operators, crossover and the search loop."""

import functools
import json
import math
import os
import shutil
import tempfile
import zlib
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapnas import evolution
from swapnas.cells import OP_CODES, OP_NONE, AssemblyConfig, CellMatrix, random_cell, validate_cell
from swapnas.evolution import (
    CHECKPOINT_MAGIC,
    NoEdgeError,
    SaturationError,
    SearchConfig,
    _config_from_dict,
    _SearchState,
    crossover,
    load_checkpoint,
    mutate_connectivity,
    mutate_operation,
    resume_search,
    run_search,
    save_checkpoint,
)
from swapnas.metric import RegularisationParams
from swapnas.scoring import derive_seed, run_batch, score_cell

SMALL_ASSEMBLY = AssemblyConfig(depth=1, stem_channels=4)
SMALL_BATCH = "gauss:8x3x6x6"


def small_config(**overrides) -> SearchConfig:
    base = dict(
        population=8,
        cycles=10,
        mutation_times=4,
        seed=0,
        batch=SMALL_BATCH,
        nodes=4,
        assembly=SMALL_ASSEMBLY,
    )
    base.update(overrides)
    return SearchConfig(**base)


def last_line(raw: bytes) -> bytes:
    """The last complete line of checkpoint file bytes, its checksum and body."""
    return raw[: raw.rindex(b"\n")].rsplit(b"\n", 1)[1]


@pytest.fixture
def score_calls(monkeypatch):
    """The cell of every ``score_cell`` call the search makes during a test."""
    calls = []
    original = evolution.score_cell

    def counted(cell, *args, **kwargs):
        calls.append(cell)
        return original(cell, *args, **kwargs)

    monkeypatch.setattr(evolution, "score_cell", counted)
    return calls


class TestMutateOperation:
    def test_pinned_code_change(self):
        cell = CellMatrix([[0, 1, 0, 0], [0, 0, 4, 1], [0, 0, 0, 3], [0, 0, 0, 0]])
        mutated = mutate_operation(cell, np.random.default_rng(8))
        # The conv3 connection into the sink becomes a conv1; nothing else moves.
        assert mutated.codes[1, 3] == 2
        diff = mutated.codes != cell.codes
        assert diff.sum() == 1 and diff[1, 3]

    def test_always_changes_exactly_one_entry(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            cell = random_cell(4, rng)
            mutated = mutate_operation(cell, rng)
            diff = mutated.codes != cell.codes
            assert diff.sum() == 1
            i, j = (int(v[0]) for v in np.where(diff))
            assert cell.codes[i, j] != 0 and mutated.codes[i, j] != 0
            assert validate_cell(mutated) == []

    def test_every_edge_position_eventually_selected(self):
        cell = CellMatrix([[0, 1, 2, 3], [0, 0, 4, 1], [0, 0, 0, 2], [0, 0, 0, 0]])
        rng = np.random.default_rng(2)
        hit = set()
        for _ in range(1000):
            mutated = mutate_operation(cell, rng)
            diff = np.where(mutated.codes != cell.codes)
            hit.add((int(diff[0][0]), int(diff[1][0])))
        assert hit == {(i, j) for i, j, _ in cell.edges()}

    def test_edgeless_cell_rejected(self):
        with pytest.raises(NoEdgeError):
            mutate_operation(CellMatrix([[0, 0], [0, 0]]), np.random.default_rng(0))


class TestMutateConnectivity:
    def test_pinned_move(self):
        cell = CellMatrix([[0, 1, 2, 0], [0, 0, 4, 1], [0, 0, 0, 3], [0, 0, 0, 0]])
        moved = mutate_connectivity(cell, np.random.default_rng(1))
        # The conv1 connection shifts from the third node to the sink.
        assert moved.codes[0, 2] == 0
        assert moved.codes[0, 3] == 2

    def test_preserves_edge_count_and_validity(self):
        rng = np.random.default_rng(3)
        done = 0
        while done < 1000:
            cell = random_cell(4, rng)
            try:
                moved = mutate_connectivity(cell, rng)
            except SaturationError:
                continue
            assert validate_cell(moved) == []
            assert (moved.codes != 0).sum() == (cell.codes != 0).sum()
            codes_before = sorted(c for _, _, c in cell.edges())
            codes_after = sorted(c for _, _, c in moved.edges())
            assert codes_before == codes_after
            done += 1

    def test_edgeless_cell_rejected(self):
        with pytest.raises(NoEdgeError):
            mutate_connectivity(CellMatrix([[0, 0], [0, 0]]), np.random.default_rng(0))

    def test_full_cell_saturates(self):
        full = CellMatrix([[0, 1, 1, 1], [0, 0, 1, 1], [0, 0, 0, 1], [0, 0, 0, 0]])
        with pytest.raises(SaturationError):
            mutate_connectivity(full, np.random.default_rng(0))

    def test_two_node_cell_saturates(self):
        # Its single edge can only sit at (0, 1).
        with pytest.raises(SaturationError):
            mutate_connectivity(CellMatrix([[0, 2], [0, 0]]), np.random.default_rng(0))


class TestCrossover:
    def test_pinned_column_exchange(self):
        a = CellMatrix([[0, 1, 0, 0], [0, 0, 4, 1], [0, 0, 0, 3], [0, 0, 0, 0]])
        b = CellMatrix([[0, 1, 0, 2], [0, 0, 4, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
        child_a, child_b = crossover(a, b, np.random.default_rng(0))
        # Incoming connections of the sink swap between the parents.
        assert list(child_a.codes[:3, 3]) == [2, 0, 1]
        assert list(child_b.codes[:3, 3]) == [0, 1, 3]
        assert np.array_equal(child_a.codes[:, :3], a.codes[:, :3])
        assert np.array_equal(child_b.codes[:, :3], b.codes[:, :3])

    def test_identical_parents_reproduce(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            cell = random_cell(4, rng)
            child_a, child_b = crossover(cell, cell, rng)
            assert child_a == cell and child_b == cell

    def test_column_multiset_conserved(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a = random_cell(4, rng)
            b = random_cell(4, rng)
            child_a, child_b = crossover(a, b, rng)
            for j in range(4):
                before = sorted(list(a.codes[:j, j]) + list(b.codes[:j, j]))
                after = sorted(list(child_a.codes[:j, j]) + list(child_b.codes[:j, j]))
                assert before == after
            assert validate_cell(child_a) == []
            assert validate_cell(child_b) == []

    def test_node_count_mismatch_rejected(self):
        a = random_cell(4, np.random.default_rng(0))
        b = random_cell(5, np.random.default_rng(0))
        with pytest.raises(ValueError, match="mismatch"):
            crossover(a, b, np.random.default_rng(0))


# The matrix-based operators as they were before candidate moves were tried
# on row lists; the operators must match them draw for draw.
def oracle_replace(cell, i, j, code):
    codes = cell.codes.copy()
    codes[i, j] = code
    return CellMatrix(codes)


def oracle_mutate_operation(cell, rng):
    rng = np.random.default_rng(rng)
    edges = cell.edges()
    if not edges:
        raise NoEdgeError("cell has no connection to mutate")
    i, j, code = edges[rng.integers(len(edges))]
    choices = [c for c in OP_CODES if c != code]
    return oracle_replace(cell, i, j, choices[rng.integers(len(choices))])


def oracle_mutate_connectivity(cell, rng):
    rng = np.random.default_rng(rng)
    edges = cell.edges()
    if not edges:
        raise NoEdgeError("cell has no connection to mutate")
    n = cell.n_nodes
    holes = [(i, j) for i in range(n) for j in range(i + 1, n) if cell.codes[i, j] == OP_NONE]
    if not holes:
        raise SaturationError("cell has no empty slot to move a connection into")
    moves = [(e, h) for e in range(len(edges)) for h in range(len(holes))]
    for mi in rng.permutation(len(moves)):
        (ei, hi) = moves[mi]
        i, j, code = edges[ei]
        ti, tj = holes[hi]
        moved = oracle_replace(oracle_replace(cell, i, j, OP_NONE), ti, tj, code)
        if not validate_cell(moved):
            return moved
    raise SaturationError("every connection move breaks the cell invariants")


def oracle_crossover(a, b, rng):
    if a.n_nodes != b.n_nodes:
        raise ValueError(f"node-count mismatch: {a.n_nodes} vs {b.n_nodes}")
    rng = np.random.default_rng(rng)
    n = a.n_nodes
    for j in rng.permutation(np.arange(1, n)):
        ca = a.codes.copy()
        cb = b.codes.copy()
        ca[:j, j], cb[:j, j] = b.codes[:j, j].copy(), a.codes[:j, j].copy()
        child_a, child_b = CellMatrix(ca), CellMatrix(cb)
        if not validate_cell(child_a) and not validate_cell(child_b):
            return child_a, child_b
    return a, b


@st.composite
def operator_cells(draw, n=None):
    """A valid random cell, a saturated one (every slot wired) or one without edges."""
    n = draw(st.integers(2, 6)) if n is None else n
    kind = draw(st.sampled_from(["random", "random", "random", "saturated", "no-edge"]))
    if kind == "random":
        return random_cell(n, draw(st.integers(0, 2**32 - 1)))
    codes = np.zeros((n, n), dtype=np.int64)
    if kind == "saturated":
        for i in range(n):
            for j in range(i + 1, n):
                codes[i, j] = draw(st.sampled_from(OP_CODES))
    return CellMatrix(codes)


@st.composite
def parent_pairs(draw):
    """Two parents of one size, identical parents, or parents of any sizes."""
    a = draw(operator_cells())
    kind = draw(st.sampled_from(["same-size", "identical", "any-size"]))
    if kind == "identical":
        return a, CellMatrix(a.codes)
    return a, draw(operator_cells(a.n_nodes if kind == "same-size" else None))


def outcome(operator, *args):
    """What ``operator(*args, rng)`` returns or raises, and the generator's state after."""
    *cells, seed = args
    rng = np.random.default_rng(seed)
    try:
        result = operator(*cells, rng)
    except ValueError as exc:
        result = (type(exc), str(exc))
    return result, rng.bit_generator.state


class TestOperatorsMatchTheMatrixOracles:
    @settings(max_examples=300, deadline=None)
    @given(cell=operator_cells(), seed=st.integers(0, 2**32 - 1))
    def test_mutations(self, cell, seed):
        assert outcome(mutate_operation, cell, seed) == outcome(oracle_mutate_operation, cell, seed)
        assert outcome(mutate_connectivity, cell, seed) == outcome(oracle_mutate_connectivity, cell, seed)

    @settings(max_examples=300, deadline=None)
    @given(parents=parent_pairs(), seed=st.integers(0, 2**32 - 1))
    def test_crossover(self, parents, seed):
        assert outcome(crossover, *parents, seed) == outcome(oracle_crossover, *parents, seed)


def built_cells(operator, *args):
    """The cells constructed while ``operator(*args)`` runs, and what it returns (None if it raises)."""
    built = []
    original = CellMatrix._fill

    def filled(cell, *rest):
        built.append(cell)
        return original(cell, *rest)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CellMatrix, "_fill", filled)
        try:
            result = operator(*args)
        except ValueError:
            result = None
    return built, result


class TestWorkPerCycle:
    """Counts of the objects the search builds, with no clocks."""

    def test_a_cycle_builds_one_individual_and_uses_up_every_birth(self, monkeypatch):
        cfg = small_config(cycles=20, seed=4)
        state = _SearchState(cfg)
        state.initialise()
        built = []

        def counted(*args, _original=evolution.Individual):
            built.append(args)
            return _original(*args)

        monkeypatch.setattr(evolution, "Individual", counted)
        births = set()
        for _ in range(cfg.cycles):
            before = (len(built), state.next_birth)
            state.run_cycle()
            assert len(built) == before[0] + 1
            births.add(state.next_birth - before[1])
        # Every mutant, and both crossover children, take a birth number.
        assert births == {cfg.mutation_times, cfg.mutation_times + 2}

    @settings(max_examples=200, deadline=None)
    @given(cell=operator_cells(), seed=st.integers(0, 2**32 - 1))
    def test_mutations_build_only_the_cell_they_return(self, cell, seed):
        for operator in (mutate_operation, mutate_connectivity):
            built, result = built_cells(operator, cell, np.random.default_rng(seed))
            assert [id(c) for c in built] == ([] if result is None else [id(result)])

    @settings(max_examples=200, deadline=None)
    @given(parents=parent_pairs(), seed=st.integers(0, 2**32 - 1))
    def test_crossover_builds_only_the_children_it_returns(self, parents, seed):
        built, result = built_cells(crossover, *parents, np.random.default_rng(seed))
        new = [] if result is None else [c for c in result if all(c is not p for p in parents)]
        assert [id(c) for c in built] == [id(c) for c in new]

    def test_edges_are_a_new_list_each_call(self):
        cell = CellMatrix([[0, 1, 0, 2], [0, 0, 4, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
        edges = cell.edges()
        assert edges == [(0, 1, 1), (0, 3, 2), (1, 2, 4), (2, 3, 1)]
        edges[0] = (0, 2, 3)
        edges.append((1, 3, 2))
        assert cell.edges() == [(0, 1, 1), (0, 3, 2), (1, 2, 4), (2, 3, 1)]
        assert cell.edges() is not cell.edges()


class TestSearchLoop:
    def test_zero_cycles_returns_initial_best(self):
        result = run_search(small_config(cycles=0))
        assert len(result.trace) == 1
        assert result.best.score == result.trace[0]

    def test_trace_has_one_entry_per_cycle_plus_initial(self):
        result = run_search(small_config(cycles=7))
        assert len(result.trace) == 8

    def test_deterministic_runs(self):
        a = run_search(small_config(seed=123))
        b = run_search(small_config(seed=123))
        assert a == b

    def test_population_size_constant_and_trace_non_decreasing(self):
        sizes = []

        def watch(cycle, population, best):
            sizes.append(len(population))

        result = run_search(small_config(cycles=15, seed=5), on_cycle=watch)
        assert sizes == [8] * 15
        assert all(a <= b for a, b in zip(result.trace, result.trace[1:]))

    def test_scores_are_reproducible_from_provenance(self):
        cfg = small_config(cycles=3, seed=9)
        result = run_search(cfg)
        best = result.best
        again = score_cell(
            best.cell,
            cfg.assembly,
            run_batch(cfg.batch, cfg.seed),
            derive_seed(cfg.seed, best.cell.stable_hash()),
        ).regularised(result.reg)
        assert again.reg_swap == best.score
        assert again.swap == best.swap
        assert again.seed == best.seed

    def test_explicit_and_missing_regularisation(self):
        params = RegularisationParams(mu=0.01, sigma=0.01)
        with_reg = run_search(small_config(cycles=2, reg=params))
        assert with_reg.reg == params
        without = run_search(small_config(cycles=2, reg=None))
        assert without.reg is None
        assert without.best.score == float(without.best.swap)

    def test_tournament_default_is_half_population(self):
        assert small_config(population=9).tournament_size == 5
        assert small_config(population=8).tournament_size == 4

    def test_an_explicit_tournament_is_the_sample_size(self):
        assert small_config(population=9, tournament=2).tournament_size == 2
        # The default size (half of 8) named explicitly runs the same search.
        assert run_search(small_config(tournament=4)) == run_search(small_config())

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
            small_config(seed=-1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            small_config(population=1)
        with pytest.raises(ValueError):
            small_config(crossover_prob=1.5)
        with pytest.raises(ValueError):
            small_config(tournament=99)
        with pytest.raises(ValueError, match="cycles must be non-negative"):
            small_config(cycles=-1)
        with pytest.raises(ValueError, match="mutation_times must be at least 1"):
            small_config(mutation_times=0)
        with pytest.raises(ValueError, match='reg must be RegularisationParams, "auto" or None'):
            small_config(reg="sometimes")
        with pytest.raises(ValueError, match="cells need at least two nodes"):
            small_config(nodes=1)


class TestScoreMemo:
    def test_each_distinct_cell_is_scored_once(self, score_calls):
        result = run_search(small_config(cycles=20, seed=3))
        assert len(score_calls) == len(set(score_calls))
        assert result.best.cell in score_calls
        assert len(score_calls) < result.evaluations

    def test_search_config_scores_at_most_a_tenth_of_its_evaluations(self, score_calls):
        cfg = SearchConfig(
            population=16,
            cycles=100,
            mutation_times=8,
            batch="gauss:16x3x8x8",
            nodes=4,
            seed=0,
            assembly=AssemblyConfig(depth=1, stem_channels=8),
        )
        result = run_search(cfg)
        assert len(score_calls) <= 0.1 * result.evaluations


class TestCheckpointing:
    def test_resume_matches_uninterrupted_run(self, tmp_path):
        live = tmp_path / "search.ckpt"
        frozen = tmp_path / "cycle5.ckpt"

        def snapshot(cycle, population, best):
            if cycle == 5:
                shutil.copy(live, frozen)

        cfg = small_config(cycles=12, seed=77)
        full = run_search(cfg, checkpoint_path=live, checkpoint_every=1, on_cycle=snapshot)
        resumed = resume_search(frozen)
        assert resumed == full

    def test_checkpoint_round_trips_population(self, tmp_path):
        path = tmp_path / "s.ckpt"
        cfg = small_config(cycles=4, seed=3)
        result = run_search(cfg, checkpoint_path=path)
        from swapnas.evolution import load_checkpoint

        state = load_checkpoint(path)
        assert state.cycle == 4
        assert len(state.population) == cfg.population
        assert state.result() == result

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_text("NOT A CHECKPOINT\n{}")
        with pytest.raises(ValueError, match="SWAPCKPT"):
            resume_search(path)

    @pytest.mark.parametrize("every", [0, -3])
    def test_checkpoint_every_below_one_rejected(self, tmp_path, every):
        path = tmp_path / "s.ckpt"
        with pytest.raises(ValueError, match="checkpoint_every"):
            run_search(small_config(cycles=1), checkpoint_path=path, checkpoint_every=every)
        assert not path.exists()
        run_search(small_config(cycles=1), checkpoint_path=path)
        with pytest.raises(ValueError, match="checkpoint_every"):
            resume_search(path, checkpoint_every=every)

    @pytest.mark.parametrize("path", [None, ""])
    def test_checkpoint_every_without_a_checkpoint_path_rejected(self, path):
        with pytest.raises(ValueError, match="checkpoint_every=5 has no effect without a checkpoint_path"):
            run_search(small_config(cycles=1), checkpoint_path=path, checkpoint_every=5)
        assert run_search(small_config(cycles=1), checkpoint_path=path, checkpoint_every=1).evaluations > 0

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        cycles=st.integers(1, 4),
        reg=st.sampled_from(["auto", None, RegularisationParams(mu=0.0015, sigma=0.000002)]),
        data=st.data(),
    )
    def test_resume_from_any_cycle_equals_the_uninterrupted_run(self, seed, cycles, reg, data):
        cut = data.draw(st.integers(0, cycles), label="cut")
        cfg = small_config(
            population=4, cycles=cycles, mutation_times=2, seed=seed, reg=reg, batch="gauss:4x3x5x5"
        )
        with tempfile.TemporaryDirectory() as tmp:
            full_path, cut_path = Path(tmp) / "full.ckpt", Path(tmp) / "cut.ckpt"
            full = run_search(cfg, checkpoint_path=full_path)
            state = _SearchState(cfg)
            state.initialise()
            for _ in range(cut):
                state.run_cycle()
            save_checkpoint(cut_path, state)
            state.close_checkpoint()
            assert resume_search(cut_path) == full
            assert last_line(cut_path.read_bytes()) == last_line(full_path.read_bytes())


    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        cycles=st.integers(1, 6),
        reg=st.sampled_from(["auto", None, RegularisationParams(mu=0.0015, sigma=0.000002)]),
        crossover_prob=st.sampled_from([0.0, 0.5, 1.0]),
        data=st.data(),
    )
    def test_every_checkpoint_is_sorted_json_and_resume_rewrites_the_same_bytes(
        self, seed, cycles, reg, crossover_prob, data
    ):
        cut = data.draw(st.integers(0, cycles - 1), label="cut")
        cfg = small_config(
            population=4, cycles=cycles, mutation_times=2, crossover_prob=crossover_prob,
            seed=seed, reg=reg, batch="gauss:4x3x5x5",
        )
        with tempfile.TemporaryDirectory() as tmp:
            path, cut_path = Path(tmp) / "full.ckpt", Path(tmp) / "cut.ckpt"
            # Cycle 0's file, as run_search writes it before the first cycle.
            state = _SearchState(cfg)
            state.initialise()
            save_checkpoint(path, state)
            state.close_checkpoint()
            files = {0: path.read_bytes()}
            run_search(cfg, checkpoint_path=path, on_cycle=lambda c, *_: files.update({c: path.read_bytes()}))
            for cycle, raw in files.items():
                magic, *lines, end = raw.decode("ascii").split("\n")
                assert (magic, end) == (CHECKPOINT_MAGIC, "")
                assert len(lines) == cycle + 1
                crc, body = lines[-1].split(" ", 1)
                assert crc == f"{zlib.crc32(body.encode()):08x}"
                assert body == json.dumps(json.loads(body), sort_keys=True)
                assert json.loads(body)["cycle"] == cycle

            cut_path.write_bytes(files[cut])
            resumed = {}
            resume_search(cut_path, on_cycle=lambda c, *_: resumed.update({c: last_line(cut_path.read_bytes())}))
            assert resumed == {c: last_line(files[c]) for c in range(cut + 1, cycles + 1)}


@functools.cache
def checkpoint_log() -> tuple[bytes, tuple[bytes, ...]]:
    """The magic line and the eight lines of a seven-cycle search's checkpoint file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.ckpt"
        run_search(small_config(population=4, cycles=7, mutation_times=2, seed=5, batch="gauss:4x3x5x5"),
                   checkpoint_path=path)
        magic, *lines = path.read_bytes().splitlines(keepends=True)
    return magic, tuple(lines)


class TestCheckpointFile:
    """The one-file checkpoint log: its frames, its reader and its descriptor."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_a_cut_log_loads_its_last_complete_line(self, data):
        magic, lines = checkpoint_log()
        k = data.draw(st.integers(1, len(lines)), label="k")
        log = magic + b"".join(lines[:k])
        cut = data.draw(st.integers(len(magic) + len(lines[0]), len(log)), label="cut")
        complete = log[len(magic):cut].count(b"\n")
        with tempfile.TemporaryDirectory() as tmp:
            path, again = Path(tmp) / "cut.ckpt", Path(tmp) / "again.ckpt"
            path.write_bytes(log[:cut])
            state = load_checkpoint(path)
            assert state.cycle == complete - 1
            # Saving the loaded state writes back the very line it came from.
            save_checkpoint(again, state)
            state.close_checkpoint()
            assert again.read_bytes() == magic + lines[complete - 1]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_a_flipped_byte_names_the_path_and_its_line(self, data):
        magic, lines = checkpoint_log()
        k = data.draw(st.integers(1, len(lines)), label="k")
        j = data.draw(st.integers(0, k - 1), label="line")
        at = data.draw(st.integers(0, len(lines[j]) - 2), label="byte")  # not its newline
        xor = data.draw(st.integers(1, 255), label="xor")
        line = bytearray(lines[j])
        line[at] ^= xor
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "flipped.ckpt"
            path.write_bytes(magic + b"".join(lines[:j]) + bytes(line) + b"".join(lines[j + 1:k]))
            with pytest.raises(ValueError) as caught:
                load_checkpoint(path)
        assert str(caught.value).startswith(f"{path}: line {j + 2}: ")

    @pytest.mark.parametrize("tail", [b"", b"0123abcd {"])
    def test_a_file_without_a_complete_line_is_refused(self, tmp_path, tail):
        path = tmp_path / "empty.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC.encode() + b"\n" + tail)
        with pytest.raises(ValueError) as caught:
            load_checkpoint(path)
        assert str(caught.value) == f"{path}: checkpoint holds no complete line"

    def test_one_new_file_per_sixteen_saves_and_no_descriptor_left_open(self, tmp_path, monkeypatch):
        path = tmp_path / "search.ckpt"
        replaced, saves, opened = [], [], set()
        real_replace, real_close, real_save = os.replace, os.close, evolution.save_checkpoint
        real_replace_file = evolution.replace_file

        def spy_replace(src, dst):
            replaced.append(dst)
            real_replace(src, dst)

        def spy_replace_file(dst, data):
            fd = real_replace_file(dst, data)
            opened.add(fd)
            return fd

        def spy_close(fd):
            opened.discard(fd)
            real_close(fd)

        def spy_save(dst, state):
            before = len(replaced)
            real_save(dst, state)
            raw = path.read_bytes()
            saves.append((len(replaced) > before, os.stat(path).st_ino, raw.count(b"\n") - 1))

        monkeypatch.setattr(os, "replace", spy_replace)
        monkeypatch.setattr(os, "close", spy_close)
        monkeypatch.setattr(evolution, "replace_file", spy_replace_file)
        monkeypatch.setattr(evolution, "save_checkpoint", spy_save)
        cfg = small_config(population=4, cycles=40, mutation_times=2, batch="gauss:4x3x5x5")
        result = run_search(cfg, checkpoint_path=path, checkpoint_every=1)
        assert len(saves) == 41
        assert len(replaced) <= math.ceil(41 / evolution.CHECKPOINT_LINES)
        assert [k for k, (new, _, _) in enumerate(saves) if new] == [0, 16, 32]
        for (_, before, _), (new, inode, _) in zip(saves, saves[1:]):
            assert (inode != before) == new
        assert [n for _, _, n in saves] == [k % 16 + 1 for k in range(41)]
        assert opened == set()
        assert [p.name for p in tmp_path.iterdir()] == ["search.ckpt"]
        assert load_checkpoint(path).result() == result

        def stop_at(last):
            def stop(cycle, population, best):
                if cycle == last:
                    raise RuntimeError("stopped")

            return stop

        with pytest.raises(RuntimeError, match="stopped"):
            run_search(cfg, checkpoint_path=path, on_cycle=stop_at(20))
        assert opened == set()
        with pytest.raises(RuntimeError, match="stopped"):
            resume_search(path, on_cycle=stop_at(30))
        assert opened == set()
        assert load_checkpoint(path).cycle == 30
        assert [p.name for p in tmp_path.iterdir()] == ["search.ckpt"]

    def test_a_failed_append_is_followed_by_a_new_file(self, tmp_path, monkeypatch):
        path = tmp_path / "search.ckpt"
        state = _SearchState(small_config(population=4, batch="gauss:4x3x5x5"))
        state.initialise()
        save_checkpoint(path, state)
        state.run_cycle()

        def torn(fd, data):
            os.write(fd, data[: len(data) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(evolution, "write_all", torn)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, state)
        assert state.checkpoint_fd is None
        assert load_checkpoint(path).cycle == 0  # the torn tail is skipped
        monkeypatch.undo()
        save_checkpoint(path, state)
        state.close_checkpoint()
        assert path.read_bytes().count(b"\n") == 2
        assert load_checkpoint(path).cycle == 1

    def test_a_save_to_another_path_starts_a_file_there(self, tmp_path):
        first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
        state = _SearchState(small_config(population=4, batch="gauss:4x3x5x5"))
        state.initialise()
        save_checkpoint(first, state)
        save_checkpoint(second, state)
        state.close_checkpoint()
        assert first.read_bytes() == second.read_bytes()


positive = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)


@st.composite
def assemblies(draw):
    depth = draw(st.integers(1, 6))
    reductions = draw(st.lists(st.integers(0, depth - 1), unique=True).map(sorted))
    return AssemblyConfig(
        depth=depth,
        stem_channels=draw(st.integers(1, 64)),
        reductions=tuple(reductions),
        head=draw(st.booleans()),
        head_units=draw(st.integers(1, 100)),
        standardise=draw(st.booleans()),
    )


@st.composite
def search_configs(draw):
    population = draw(st.integers(2, 40))
    return SearchConfig(
        population=population,
        cycles=draw(st.integers(0, 500)),
        tournament=draw(st.none() | st.integers(1, population)),
        mutation_times=draw(st.integers(1, 20)),
        crossover_prob=draw(st.floats(0.0, 1.0)),
        reg=draw(
            st.just("auto")
            | st.none()
            | st.builds(RegularisationParams, mu=positive, sigma=positive)
        ),
        seed=draw(st.integers(0, 2**63)),
        batch=draw(st.sampled_from([SMALL_BATCH, "gauss:32x3x32x32", "batch.tensor"])),
        nodes=draw(st.integers(2, 8)),
        assembly=draw(assemblies()),
    )


@settings(max_examples=200, deadline=None)
@given(search_configs())
def test_config_round_trips_through_checkpoint_json(cfg):
    assert _config_from_dict(json.loads(json.dumps(asdict(cfg)))) == cfg
