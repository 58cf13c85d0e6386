"""Acceptance suite: one test per numbered criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite stays inside the stated runtime budgets on a single
CPU.  Criterion 3's low-dimension clause is measured faithfully and is
expected to fail for independent continuous input batches; see the test
docstring for the mechanism.
"""

import itertools
import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from swapnas.cells import (
    AssemblyConfig,
    CellMatrix,
    count_parameters,
    nb201_like_assembly,
    params_to_megabytes,
    random_cell,
    validate_cell,
)
from swapnas.evaluation import estimate_mu_sigma, mu_sigma_sweep, spearman_rho
from swapnas.evolution import SearchConfig, run_search
from swapnas.metric import (
    ActivationCapture,
    RegularisationParams,
    regularisation_factor,
    regularised_swap_score,
    standard_pattern_cardinality,
    swap_score,
)
from swapnas.network import build_network, forward_capture, gaussian_batch
from swapnas.scoring import derive_seed, run_batch

from synth_fixtures import SIZE_BIASED_GRID, size_biased_records


def report(number: int, name: str) -> None:
    print(f"acceptance {number:02d} [{name}]: PASS")


def naive_counts(bits: np.ndarray) -> tuple[int, int]:
    columns = len({tuple(int(v) for v in col) for col in bits.T})
    rows = len({tuple(int(v) for v in row) for row in bits})
    return columns, rows


def test_criterion_01_bitpacked_counts_match_naive_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(1)
    for _ in range(500):
        v = int(rng.integers(1, 65))
        s = int(rng.integers(1, 17))
        bits = (rng.random((v, s)) < rng.uniform(0.05, 0.95)).astype(np.uint8)
        capture = ActivationCapture.from_bits(bits)
        want_columns, want_rows = naive_counts(bits)
        assert standard_pattern_cardinality(capture) == want_columns
        assert swap_score(capture) == want_rows
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"
    report(1, "bit-packed counts match the naive dedup oracle")


def test_criterion_02_bounds_and_transpose_duality():
    rng = np.random.default_rng(2)
    for _ in range(200):
        nodes = int(rng.integers(3, 6))
        cell = random_cell(nodes, rng)
        assembly = AssemblyConfig(
            depth=int(rng.integers(1, 3)),
            stem_channels=int(rng.integers(2, 7)),
        )
        s = int(rng.integers(1, 9))
        dims = (int(rng.integers(1, 4)), int(rng.integers(4, 9)), int(rng.integers(4, 9)))
        batch = gaussian_batch(s, dims, seed=int(rng.integers(1 << 30)))
        net = build_network(cell, assembly, int(rng.integers(1 << 30)), dims[0])
        capture = forward_capture(replace(net, standardise=bool(rng.integers(2))), batch)
        v = capture.n_values
        standard = standard_pattern_cardinality(capture)
        sample_wise = swap_score(capture)
        assert 1 <= standard <= min(s, 2**v)
        assert 1 <= sample_wise <= min(v, 2**s)
        assert sample_wise == standard_pattern_cardinality(capture.transpose())
        assert standard == swap_score(capture.transpose())
    report(2, "cardinality bounds and transpose duality on random networks")


@pytest.fixture(scope="module")
def saturation_measurements():
    assembly = nb201_like_assembly()
    rng = np.random.default_rng(0)
    cells = [random_cell(4, rng) for _ in range(100)]
    out = {}
    started = time.monotonic()
    for di, dims in enumerate([(3, 32, 32), (3, 3, 3)]):
        batch = gaussian_batch(32, dims, seed=1000 + di)
        standard_vals, swap_vals = [], []
        for cell in cells:
            net = build_network(cell, assembly, derive_seed(0, cell.stable_hash()), dims[0])
            capture = forward_capture(net, batch)
            standard_vals.append(standard_pattern_cardinality(capture))
            swap_vals.append(swap_score(capture))
        out[dims] = (np.asarray(standard_vals, float), np.asarray(swap_vals, float))
    out["elapsed"] = time.monotonic() - started
    return out


def test_criterion_03_saturation_at_native_resolution(saturation_measurements):
    standard, sample_wise = saturation_measurements[(3, 32, 32)]
    assert standard.mean() == 32.0
    assert standard.std() == 0.0
    assert sample_wise.std() > 100.0
    assert saturation_measurements["elapsed"] < 15 * 60
    report(3, "standard patterns saturate at native input size; sample-wise do not")


def test_criterion_03_low_dimension_discrimination_band(saturation_measurements):
    """Low-dimensional inputs are supposed to drop the standard count to ~16.

    With independent continuous Gaussian samples this cannot happen: the stem
    convolution alone separates any two distinct samples with probability
    about 1 - 2**-16, so the expected count stays within 0.2 of the batch
    size at every input dimensionality.  The drop requires clustered or
    quantised (image-like) batches, where downscaling produces genuinely
    duplicated inputs; demos/saturation_vs_input_size.py shows that route.
    """
    standard, _ = saturation_measurements[(3, 3, 3)]
    assert 12.0 <= standard.mean() <= 20.0, (
        f"standard-pattern mean at 3x3x3 inputs is {standard.mean():.2f} "
        f"(std {standard.std():.2f}); continuous independent batches keep "
        "all sample columns distinct"
    )
    assert standard.std() > 0.5
    report(3, "low-dimension discrimination band")


def test_criterion_04_regularisation_function_properties():
    params = RegularisationParams(mu=2.5, sigma=1.3)
    assert regularisation_factor(2.5, params) == 1.0
    distances = np.linspace(0.03, 3.0, 100)
    for d in distances:
        left = regularisation_factor(2.5 - d, params)
        right = regularisation_factor(2.5 + d, params)
        assert abs(left - right) <= 1e-12
    values = [regularisation_factor(2.5 + d, params) for d in distances]
    assert all(a > b for a, b in zip(values, values[1:]))
    for theta in (0.5, 2.0, 7.0):
        widths = np.linspace(0.2, 25.0, 60)
        curve = [
            regularisation_factor(theta, RegularisationParams(mu=2.5, sigma=w))
            for w in widths
        ]
        assert all(a <= b + 1e-12 for a, b in zip(curve, curve[1:]))
    rng = np.random.default_rng(4)
    for _ in range(200):
        p = RegularisationParams(mu=float(rng.uniform(0.1, 5)), sigma=float(rng.uniform(0.1, 5)))
        raw = int(rng.integers(0, 5000))
        theta = float(rng.uniform(0.01, 10))
        assert regularised_swap_score(raw, theta, p) == raw * regularisation_factor(theta, p)
    report(4, "regularisation factor shape and product identity")


def test_criterion_05_positive_scale_invariance():
    rng = np.random.default_rng(5)
    assembly = AssemblyConfig(depth=2, stem_channels=4, standardise=False)
    batch = gaussian_batch(8, (3, 8, 8), seed=50)
    for _ in range(50):
        cell = random_cell(4, rng)
        net = build_network(cell, assembly, int(rng.integers(1 << 30)), 3)
        stem = next(i for i, n in enumerate(net.nodes) if n.name == "stem")
        weights = list(net.weights)
        weights[stem] = weights[stem] * 10.0
        scaled = replace(net, weights=tuple(weights))
        plain_capture = forward_capture(net, batch)
        scaled_capture = forward_capture(scaled, batch)
        assert np.array_equal(plain_capture.packed_rows, scaled_capture.packed_rows)
        assert standard_pattern_cardinality(plain_capture) == standard_pattern_cardinality(
            scaled_capture
        )
        assert swap_score(plain_capture) == swap_score(scaled_capture)
    report(5, "positive weight scaling leaves captures unchanged")


def _three_node_cells():
    cells = []
    for e01, e02, e12 in itertools.product(range(5), repeat=3):
        cell = CellMatrix([[0, e01, e02], [0, 0, e12], [0, 0, 0]])
        if not validate_cell(cell):
            cells.append(cell)
    return cells


def test_criterion_06_evolution_correctness():
    started = time.monotonic()

    # (a) population size stays fixed, best score never drops: 20 seeds.
    for seed in range(20):
        sizes = []
        cfg = SearchConfig(
            population=8, cycles=50, mutation_times=2, seed=seed,
            batch="gauss:6x2x5x5", nodes=4,
            assembly=AssemblyConfig(depth=1, stem_channels=3),
        )
        result = run_search(cfg, on_cycle=lambda c, pop, best: sizes.append(len(pop)))
        assert sizes == [8] * 50
        assert all(a <= b for a, b in zip(result.trace, result.trace[1:]))
        assert len(result.trace) == 51

    # (b) identical config and seed reproduce the identical result.
    cfg = SearchConfig(
        population=8, cycles=20, mutation_times=3, seed=41,
        batch="gauss:6x2x5x5", nodes=4,
        assembly=AssemblyConfig(depth=1, stem_channels=3),
    )
    assert run_search(cfg) == run_search(cfg)

    # (c) exhaustive three-node space: the search finds the global optimum
    # (independent full enumeration) in at least 9 of 10 seeds.
    cells = _three_node_cells()
    assert len(cells) <= 125
    assembly = AssemblyConfig(depth=1, stem_channels=4)
    params = estimate_mu_sigma(
        [params_to_megabytes(count_parameters(c, assembly)) for c in cells]
    )
    hits = 0
    for seed in range(10):
        cfg = SearchConfig(
            population=10, cycles=40, mutation_times=4, reg=params, seed=seed,
            batch="gauss:16x3x6x6", nodes=3, assembly=assembly,
        )
        batch = run_batch(cfg.batch, cfg.seed)
        from swapnas.scoring import score_cell

        oracle_best = max(
            score_cell(c, assembly, batch, derive_seed(seed, c.stable_hash())).regularised(params).reg_swap
            for c in cells
        )
        result = run_search(cfg)
        hits += result.best.score == oracle_best
    assert hits >= 9, f"search reached the enumerated optimum in only {hits}/10 seeds"

    elapsed = time.monotonic() - started
    assert elapsed < 5 * 60, f"evolution suite took {elapsed:.0f}s"
    report(6, "evolution invariants, determinism and exhaustive-space optimality")


def test_criterion_07_rank_correlation_unit_values():
    assert spearman_rho([1, 2, 3], [10, 20, 30]) == 1.0
    assert spearman_rho([1, 2, 3], [3, 2, 1]) == -1.0
    assert abs(spearman_rho([1, 2, 3, 4], [1, 3, 2, 4]) - 0.8) < 1e-12
    # hand oracle for the tie case: ranks (1.5, 1.5, 3) against (1, 2, 3)
    rx = np.array([1.5, 1.5, 3.0])
    ry = np.array([1.0, 2.0, 3.0])
    rx -= rx.mean()
    ry -= ry.mean()
    by_hand = float(np.sum(rx * ry) / np.sqrt(np.sum(rx**2) * np.sum(ry**2)))
    assert abs(spearman_rho([1, 1, 2], [1, 2, 3]) - by_hand) < 1e-12
    assert abs(by_hand - math.sqrt(3) / 2) < 1e-12
    report(7, "rank correlation unit and tie-handling values")


def test_criterion_08_regularisation_sweep_qualitative():
    records, table = size_biased_records()
    block = [(v, v) for v in SIZE_BIASED_GRID]
    points = mu_sigma_sweep(records, table, block + [(31.0, 0.01 * 31.0)])
    block_rhos = [p.rho for p in points[1:-1]]
    # the mu = sigma = max grid point attains the block maximum
    assert block_rhos[-1] == max(block_rhos)
    assert block_rhos[0] < -0.5
    collapsed = points[-1].rho
    assert collapsed is None or abs(collapsed) < 0.2
    report(8, "bell-parameter sweep peaks at the size maximum and collapses under tiny sigma")


def test_criterion_09_external_benchmark_export():
    path = os.environ.get("SWAPNAS_NB201_EXPORT", "data/nb201_cifar100.csv")
    if not os.path.exists(path):
        pytest.skip(
            "optional data-dependent check: set SWAPNAS_NB201_EXPORT to an accuracy "
            "table of >= 1000 architectures to enable it"
        )
    from swapnas.evaluation import correlation_report, load_accuracy_table, score_table

    table = load_accuracy_table(path)
    assert len(table) >= 1000, "export must hold at least 1000 architectures"
    records = score_table(
        table, nb201_like_assembly(), "gauss:32x3x32x32", n_seeds=1, reg="auto"
    )
    report_data = correlation_report(records, table)
    assert report_data.mean["reg_swap"] >= 0.85
    report(9, "external benchmark correlation")


def test_criterion_10_full_scale_results_excluded():
    # End-to-end NAS training runs (final test errors, GPU-day budgets) are
    # out of desk scale by design; criteria 1-9 stand in for them.
    print("acceptance 10 [full-scale NAS training results]: EXCLUDED BY DESIGN")
