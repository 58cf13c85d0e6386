"""Tests for the mutation operators, crossover and the search loop."""

import json
import shutil
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapnas import evolution
from swapnas.cells import AssemblyConfig, CellMatrix, random_cell, validate_cell
from swapnas.evolution import (
    NoEdgeError,
    SaturationError,
    SearchConfig,
    _config_from_dict,
    _SearchState,
    batch_for_config,
    crossover,
    mutate_connectivity,
    mutate_operation,
    resume_search,
    run_search,
    save_checkpoint,
)
from swapnas.metric import RegularisationParams
from swapnas.scoring import derive_seed, score_cell

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
            batch_for_config(cfg),
            derive_seed(cfg.seed, best.cell.stable_hash()),
            result.reg,
        )
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
            assert resume_search(cut_path) == full
            assert cut_path.read_bytes() == full_path.read_bytes()


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
