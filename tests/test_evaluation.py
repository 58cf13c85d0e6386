"""Tests for table ingestion, rank correlation, sweeps and histograms."""

import csv
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapnas import evaluation
from swapnas.cells import AssemblyConfig, CellMatrix, random_cell
from swapnas.evaluation import (
    BenchmarkEntry,
    BenchmarkTable,
    InsufficientDataError,
    TableError,
    UndefinedCorrelationError,
    atomic_write_text,
    ceil_to_significant,
    correlation_report,
    estimate_mu_sigma,
    input_dim_ablation,
    load_accuracy_table,
    mu_sigma_sweep,
    rank_average,
    read_score_records,
    score_table,
    size_histogram,
    spearman_rho,
    write_accuracy_table,
    write_plot_data,
    write_report_csv,
    write_score_records,
)
from swapnas.metric import RegularisationParams, ScoreRecord, regularised_swap_score
from swapnas.network import gaussian_batch
from swapnas.scoring import score_cell

CELL_A = CellMatrix([[0, 1, 4, 2], [0, 0, 3, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
CELL_B = CellMatrix([[0, 4, 0, 1], [0, 0, 1, 0], [0, 0, 0, 2], [0, 0, 0, 0]])
CELL_C = CellMatrix([[0, 2, 0, 0], [0, 0, 4, 0], [0, 0, 0, 3], [0, 0, 0, 0]])


def cell_field(cell: CellMatrix) -> str:
    return cell.encode().strip().replace("\n", ";")


def table_text(rows, header="arch_id,cell,accuracy"):
    return "\n".join([header] + rows) + "\n"


def record(arch_id, swap, size_mb, seed=0, reg_swap=None, flops=100):
    return ScoreRecord(
        arch_id=arch_id,
        swap=swap,
        reg_swap=float(swap) if reg_swap is None else reg_swap,
        size_mb=size_mb,
        flops=flops,
        seed=seed,
        batch="gauss:4x1x3x3",
    )


class TestLoadAccuracyTable:
    def test_well_formed_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            table_text(
                [
                    f"a,{cell_field(CELL_A)},0.91",
                    f"b,{cell_field(CELL_B)},0.85",
                    f"c,{cell_field(CELL_C)},0.10",
                ]
            )
        )
        table = load_accuracy_table(path)
        assert len(table) == 3
        assert table.entries[0].arch_id == "a"
        assert table.entries[0].cell == CELL_A
        assert table.entries[2].accuracy == 0.10

    def test_duplicate_id_names_line(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [f"x{i},{cell_field(CELL_A)},0.5" for i in range(3)]
        rows.append(f"x1,{cell_field(CELL_B)},0.6")
        path.write_text(table_text(rows))
        with pytest.raises(TableError, match="line 5"):
            load_accuracy_table(path)

    def test_crlf_and_lf_parse_identically(self, tmp_path):
        rows = [f"a,{cell_field(CELL_A)},0.75", f"b,{cell_field(CELL_B)},0.25"]
        lf = tmp_path / "lf.csv"
        crlf = tmp_path / "crlf.csv"
        lf.write_bytes(table_text(rows).encode())
        crlf.write_bytes(table_text(rows).replace("\n", "\r\n").encode())
        assert load_accuracy_table(lf) == load_accuracy_table(crlf)

    def test_accuracy_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(table_text([f"a,{cell_field(CELL_A)},1.5"]))
        with pytest.raises(TableError, match="outside"):
            load_accuracy_table(path)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("arch_id,accuracy\na,0.5\n")
        with pytest.raises(TableError, match="header"):
            load_accuracy_table(path)

    def test_optional_size_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            table_text(
                [f"a,{cell_field(CELL_A)},0.5,1.25", f"b,{cell_field(CELL_B)},0.6,"],
                header="arch_id,cell,accuracy,size_mb",
            )
        )
        table = load_accuracy_table(path)
        assert table.entries[0].size_mb == 1.25
        assert table.entries[1].size_mb is None

    @pytest.mark.parametrize(
        "sizes, line, bad",
        [
            (["nan", "1.0", "2.0"], 2, "nan"),
            (["1.0", "2.0", "nan"], 4, "nan"),
            (["1.0", "inf", "2.0"], 3, "inf"),
            (["1.0", "0", "2.0"], 3, "0.0"),
            (["1.0", "2.0", "-1"], 4, "-1.0"),
        ],
    )
    def test_size_that_is_not_positive_and_finite_rejected(self, tmp_path, sizes, line, bad):
        path = tmp_path / "t.csv"
        cells = (CELL_A, CELL_B, CELL_C)
        rows = [f"x{i},{cell_field(c)},0.5,{size}" for i, (c, size) in enumerate(zip(cells, sizes))]
        path.write_text(table_text(rows, header="arch_id,cell,accuracy,size_mb"))
        message = f"{path}: line {line}: size_mb {bad} is not a positive finite number"
        with pytest.raises(TableError) as exc:
            load_accuracy_table(path)
        assert str(exc.value) == message

    def test_write_read_round_trip(self, tmp_path):
        table = BenchmarkTable(
            (
                BenchmarkEntry("a", CELL_A, 0.75, 0.5),
                BenchmarkEntry("b", CELL_B, 0.5, 2.0),
            )
        )
        path = tmp_path / "t.csv"
        write_accuracy_table(path, table)
        assert load_accuracy_table(path) == table


class TestScoreRecordsIO:
    def test_round_trip(self, tmp_path):
        records = [record("a", 10, 0.5), record("b", 20, 1.5, seed=1, reg_swap=7.25)]
        path = tmp_path / "scores.csv"
        write_score_records(path, records)
        assert read_score_records(path) == records

    def test_fields_with_commas_and_quotes_round_trip(self, tmp_path):
        awkward = 'a,"b'
        records = [record(awkward, 10, 0.5), record("c", 20, 1.5, seed=1)]
        path = tmp_path / "scores.csv"
        write_score_records(path, records)
        assert read_score_records(path) == records
        table = BenchmarkTable((BenchmarkEntry(awkward, CELL_A, 0.75, None),))
        write_accuracy_table(path, table)
        assert load_accuracy_table(path) == table
        write_report_csv(path, [{"id": awkward, "rho": 0.5}])
        with path.open() as fh:
            assert list(csv.reader(fh)) == [["id", "rho"], [awkward, "0.5"]]
        write_plot_data(path, {awkward: [(1, 2.5)]})
        with path.open() as fh:
            assert list(csv.reader(fh)) == [["series", "x", "y"], [awkward, "1.0", "2.5"]]

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("nope\n")
        with pytest.raises(TableError):
            read_score_records(path)


TABLE_ROW = {"arch_id": "a", "cell": cell_field(CELL_A), "accuracy": "0.5", "size_mb": "1.25"}
SCORE_ROW = {"arch_id": "a", "seed": "0", "batch": "b", "swap": "6", "reg_swap": "6.0",
             "size_mb": "0.002", "flops": "900"}


def csv_text(*rows):
    """A header from the first row's keys, then each row's values (none holds a comma)."""
    return "".join(",".join(row) + "\n" for row in (rows[0].keys(), *(r.values() for r in rows)))


class TestColumnRules:
    """Both readers report a bad field as ``<path>: line N: <column> <value> <phrase>``."""

    @pytest.mark.parametrize(
        "fmt, column, bad, shown, phrase",
        [
            ("table", "arch_id", "   ", "''", "is empty"),
            ("table", "cell", "nodes = 3", "'nodes = 3'", "is not a cell document"),
            ("table", "cell", "nodes = 2;matrix = 0 0 0 0", "CellMatrix([0 0], [0 0])", "is not a cell document"),
            ("table", "cell", "nodes = 2;matrix = 0 5 0 0", "CellMatrix([0 5], [0 0])", "is not a cell document"),
            ("table", "accuracy", "high", "'high'", "outside [0, 1]"),
            ("table", "accuracy", "-0.5", "-0.5", "outside [0, 1]"),
            ("table", "accuracy", "nan", "nan", "outside [0, 1]"),
            ("table", "size_mb", "big", "'big'", "is not a positive finite number"),
            ("table", "size_mb", "-2", "-2.0", "is not a positive finite number"),
            ("scores", "arch_id", "", "''", "is empty"),
            ("scores", "arch_id", " ", "''", "is empty"),
            ("scores", "seed", "x", "'x'", "is not an integer"),
            ("scores", "seed", "1.5", "'1.5'", "is not an integer"),
            ("scores", "swap", "many", "'many'", "is not a non-negative integer"),
            ("scores", "swap", "-4", "-4", "is not a non-negative integer"),
            ("scores", "reg_swap", "x", "'x'", "is not a non-negative finite number"),
            ("scores", "reg_swap", "inf", "inf", "is not a non-negative finite number"),
            ("scores", "size_mb", "", "''", "is not a positive finite number"),
            ("scores", "size_mb", "0", "0.0", "is not a positive finite number"),
            ("scores", "flops", "1e3", "'1e3'", "is not a non-negative integer"),
            ("scores", "flops", "-1", "-1", "is not a non-negative integer"),
        ],
    )
    def test_bad_field_names_path_line_and_column(self, tmp_path, fmt, column, bad, shown, phrase):
        good, read = (TABLE_ROW, load_accuracy_table) if fmt == "table" else (SCORE_ROW, read_score_records)
        path = tmp_path / f"{fmt}.csv"
        path.write_text(csv_text(good, {**good, "arch_id": "b", column: bad}))
        with pytest.raises(TableError) as exc:
            read(path)
        assert str(exc.value) == f"{path}: line 3: {column} {shown} {phrase}"


    @pytest.mark.parametrize("fmt", ["table", "scores"])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty file"),
            ("{header}\n{row}\n{row},extra\n", "line 3: expected {n} columns, got {m}"),
            ("{header}\n{row}\n\nb\n", "line 4: expected {n} columns, got 1"),
        ],
        ids=["empty", "extra-column", "short-row"],
    )
    def test_bad_shape_names_path_and_line(self, tmp_path, fmt, text, message):
        good, read = (TABLE_ROW, load_accuracy_table) if fmt == "table" else (SCORE_ROW, read_score_records)
        n = len(good)
        path = tmp_path / f"{fmt}.csv"
        path.write_text(text.format(header=",".join(good), row=",".join(good.values())))
        with pytest.raises(TableError) as exc:
            read(path)
        assert str(exc.value) == f"{path}: " + message.format(n=n, m=n + 1)


# Ids a writer can hand back unchanged: printable ASCII, commas and quotes
# included, with no surrounding blanks.
ids = st.text(st.characters(min_codepoint=32, max_codepoint=126), min_size=1).filter(
    lambda s: s == s.strip()
)
finite = st.floats(min_value=0.0, max_value=1e12, allow_nan=False)
positive_finite = st.floats(min_value=1e-9, max_value=1e12, allow_nan=False)


@settings(max_examples=50, deadline=None)
@given(
    arch_ids=st.lists(ids, min_size=1, max_size=6, unique=True),
    accuracy=st.floats(min_value=0.0, max_value=1.0),
    size_mb=st.none() | positive_finite,
    seed=st.integers(-(2**63), 2**63),
    batch=st.text(st.characters(min_codepoint=32, max_codepoint=126)),
    swap=st.integers(0, 2**63),
    reg_swap=finite,
)
def test_both_formats_round_trip(arch_ids, accuracy, size_mb, seed, batch, swap, reg_swap):
    table = BenchmarkTable(
        tuple(BenchmarkEntry(a, random_cell(4, i), accuracy, size_mb) for i, a in enumerate(arch_ids))
    )
    records = [
        ScoreRecord(a, swap, reg_swap, size_mb or 1.0, swap + i, seed, batch) for i, a in enumerate(arch_ids)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        write_accuracy_table(Path(tmp) / "t.csv", table)
        assert load_accuracy_table(Path(tmp) / "t.csv") == table
        write_score_records(Path(tmp) / "s.csv", records)
        assert read_score_records(Path(tmp) / "s.csv") == records


class TestSpearman:
    def test_identical_order(self):
        assert spearman_rho([1, 2, 3], [10, 20, 30]) == 1.0

    def test_reversed_order(self):
        assert spearman_rho([1, 2, 3], [3, 2, 1]) == -1.0

    def test_single_swap(self):
        assert spearman_rho([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_tie_case_against_hand_ranks(self):
        # ranks of x: (1.5, 1.5, 3); plain Pearson of ranks gives sqrt(3)/2
        assert spearman_rho([1, 1, 2], [1, 2, 3]) == pytest.approx(
            math.sqrt(3) / 2, abs=1e-12
        )

    def test_rank_average_blocks(self):
        assert list(rank_average([10, 20, 20, 30])) == [1.0, 2.5, 2.5, 4.0]

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.sampled_from([-2.0, -0.0, 0.0, 1.0, 1.5]) | st.floats(allow_nan=False),
            max_size=60,
        )
    )
    def test_rank_average_matches_scipy_bytewise(self, values):
        # Tie-heavy draws, -0.0 tied with 0.0, and the empty input.
        from scipy import stats

        ours = rank_average(values)
        ref = stats.rankdata(np.asarray(values, dtype=np.float64), method="average")
        assert ours.dtype == ref.dtype == np.float64
        assert ours.tobytes() == ref.tobytes()

    def test_matches_scipy_on_random_data(self):
        from scipy import stats

        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(3, 40))
            x = rng.integers(0, 6, size=n).astype(float)  # plenty of ties
            y = rng.normal(size=n)
            if len(set(x)) < 2:
                continue
            ours = spearman_rho(x, y)
            ref = stats.spearmanr(x, y).statistic
            assert ours == pytest.approx(ref, abs=1e-12)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        base = spearman_rho(x, y)
        assert spearman_rho(np.exp(x), y) == pytest.approx(base, abs=1e-12)
        assert spearman_rho(x, 3 * y + 7) == pytest.approx(base, abs=1e-12)

    def test_symmetry_and_negation(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=25)
        y = rng.normal(size=25)
        assert spearman_rho(x, y) == pytest.approx(spearman_rho(y, x), abs=1e-15)
        assert spearman_rho(-np.asarray(x), y) == pytest.approx(-spearman_rho(x, y), abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            spearman_rho([1, 2], [1, 2, 3])

    def test_zero_rank_variance_rejected(self):
        with pytest.raises(UndefinedCorrelationError):
            spearman_rho([5, 5, 5], [1, 2, 3])

    @pytest.mark.parametrize(
        "x, y, message",
        [
            ([1.0], [2.0], "need at least two observations"),
            ([1.0, np.nan], [1.0, 2.0], "inputs must be finite"),
            ([1.0, 2.0], [np.inf, 2.0], "inputs must be finite"),
        ],
        ids=["one", "nan-x", "inf-y"],
    )
    def test_too_few_or_non_finite_observations_rejected(self, x, y, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            spearman_rho(x, y)


class TestEstimateMuSigma:
    def test_constant_sizes(self):
        params = estimate_mu_sigma([1.0, 1.0])
        assert params.mu == params.sigma == 1.0

    def test_uniform_sample_rounds_to_range_top(self):
        rng = np.random.default_rng(9)
        sizes = rng.uniform(0.1, 1.5, size=1000)
        params = estimate_mu_sigma(sizes)
        assert params.mu == params.sigma == pytest.approx(1.5)

    def test_ceil_to_two_significant_digits(self):
        assert ceil_to_significant(31.0) == 31.0
        assert ceil_to_significant(31.2) == 32.0
        assert ceil_to_significant(0.3456) == pytest.approx(0.35)
        assert ceil_to_significant(1.5) == 1.5

    @pytest.mark.parametrize("sizes", [[], [1.0]], ids=["none", "one"])
    def test_too_few_sizes_rejected(self, sizes):
        with pytest.raises(ValueError, match="^need at least two sizes to estimate the distribution$"):
            estimate_mu_sigma(sizes)

    @pytest.mark.parametrize("x", [0.0, -1.5, math.inf, math.nan])
    def test_ceil_rejects_values_that_are_not_positive_and_finite(self, x):
        with pytest.raises(ValueError, match="^value must be positive and finite$"):
            ceil_to_significant(x)

    def test_sizes_of_zero_rejected(self):
        with pytest.raises(ValueError, match="^value must be positive and finite$"):
            estimate_mu_sigma([0.0, 0.0])


from synth_fixtures import SIZE_BIASED_GRID, size_biased_records


class TestMuSigmaSweep:
    def test_equal_mu_sigma_block_rises_then_plateaus(self):
        records, table = size_biased_records()
        points = mu_sigma_sweep(records, table, [(v, v) for v in SIZE_BIASED_GRID])
        assert points[0].mu is None and points[0].rho is not None
        rhos = [p.rho for p in points[1:]]
        assert rhos[0] < -0.5  # tiny centre inverts the ranking
        assert all(a <= b + 1e-9 for a, b in zip(rhos[2:], rhos[3:]))  # rises, then flat
        assert rhos[-1] == max(rhos)
        assert rhos[-1] > points[0].rho - 0.05  # large bell keeps the signal

    def test_degenerate_sigma_collapses_correlation(self):
        records, table = size_biased_records()
        (point,) = mu_sigma_sweep(records, table, [(31.0, 0.31)])[1:]
        assert point.rho is None or abs(point.rho) < 0.2

    def test_consistent_with_correlation_report(self):
        records, table = size_biased_records()
        params = estimate_mu_sigma([r.size_mb for r in records])
        from swapnas.metric import regularised_swap_score

        rescored = [
            ScoreRecord(
                r.arch_id,
                r.swap,
                regularised_swap_score(r.swap, r.size_mb, params),
                r.size_mb,
                r.flops,
                r.seed,
                r.batch,
            )
            for r in records
        ]
        report = correlation_report(rescored, table)
        (point,) = mu_sigma_sweep(records, table, [(params.mu, params.sigma)])[1:]
        assert point.rho == report.per_seed[0][1]["reg_swap"]

    def test_empty_grid_rejected(self):
        records, table = size_biased_records()
        with pytest.raises(ValueError):
            mu_sigma_sweep(records, table, [])


class TestCorrelationReport:
    def test_perfect_alignment(self):
        records = [record(f"a{i}", swap=10 * (i + 1), size_mb=0.1 * (i + 1)) for i in range(5)]
        entries = tuple(
            BenchmarkEntry(f"a{i}", CELL_A, 0.1 * (i + 1)) for i in range(5)
        )
        report = correlation_report(records, BenchmarkTable(entries))
        assert report.mean["swap"] == 1.0
        assert report.mean["size_mb"] == 1.0

    def test_size_anti_alignment(self):
        records = [record(f"a{i}", swap=7, size_mb=float(i + 1)) for i in range(5)]
        entries = tuple(
            BenchmarkEntry(f"a{i}", CELL_A, 1.0 - 0.1 * i) for i in range(5)
        )
        report = correlation_report(records, BenchmarkTable(entries))
        assert report.mean["size_mb"] == -1.0
        assert report.mean["swap"] is None  # constant metric: undefined

    def test_mean_of_seeds_is_arithmetic_mean(self):
        rng = np.random.default_rng(11)
        records = []
        entries = []
        for i in range(30):
            entries.append(BenchmarkEntry(f"a{i}", CELL_A, float(rng.random())))
        for seed in range(5):
            for i in range(seed * 6, (seed + 1) * 6):
                records.append(record(f"a{i}", int(rng.integers(1, 100)), 0.5, seed=seed))
        report = correlation_report(records, BenchmarkTable(tuple(entries)))
        per_seed = [rhos["swap"] for _, rhos in report.per_seed]
        assert len(per_seed) == 5
        assert report.mean["swap"] == pytest.approx(np.mean(per_seed), abs=1e-15)

    def test_insufficient_matches_rejected(self):
        records = [record("only", 5, 0.5)]
        entries = (BenchmarkEntry("only", CELL_A, 0.5), BenchmarkEntry("other", CELL_B, 0.5))
        with pytest.raises(InsufficientDataError):
            correlation_report(records, BenchmarkTable(entries))

    def test_matches_split_over_seeds_rejected(self):
        # Two matched records, but each alone in its seed group.
        records = [record("a", 5, 0.5, seed=0), record("b", 7, 0.5, seed=1)]
        entries = (BenchmarkEntry("a", CELL_A, 0.4), BenchmarkEntry("b", CELL_B, 0.6))
        message = "^no seed group has two or more matched architectures$"
        with pytest.raises(InsufficientDataError, match=message):
            correlation_report(records, BenchmarkTable(entries))


class TestScoreTable:
    def test_seed_groups_are_disjoint_and_cover_table(self, tmp_path):
        entries = tuple(
            BenchmarkEntry(f"a{i}", (CELL_A, CELL_B, CELL_C)[i % 3], 0.5 + 0.01 * i)
            for i in range(9)
        )
        table = BenchmarkTable(entries)
        records = score_table(
            table,
            AssemblyConfig(depth=1, stem_channels=4),
            "gauss:4x3x5x5",
            n_seeds=3,
            reg="auto",
        )
        assert len(records) == 9
        assert {r.arch_id for r in records} == {e.arch_id for e in entries}
        by_seed = {}
        for r in records:
            by_seed.setdefault(r.seed, set()).add(r.arch_id)
        assert set(by_seed) == {0, 1, 2}
        assert all(len(group) == 3 for group in by_seed.values())

    def test_auto_bell_uses_the_batch_channel_count(self):
        # One-channel batch: the bell must come from the one-channel sizes the records carry.
        entries = tuple(BenchmarkEntry(f"a{i}", random_cell(4, i), 0.5) for i in range(6))
        records = score_table(
            BenchmarkTable(entries),
            AssemblyConfig(depth=1, stem_channels=4),
            "gauss:4x1x6x6",
            n_seeds=2,
            reg="auto",
        )
        bell = estimate_mu_sigma([r.size_mb for r in records])
        for r in records:
            assert r.reg_swap == regularised_swap_score(r.swap, r.size_mb, bell)

    def test_workers_do_not_change_records(self):
        entries = tuple(
            BenchmarkEntry(f"a{i}", (CELL_A, CELL_B, CELL_C)[i % 3], 0.5) for i in range(6)
        )
        table = BenchmarkTable(entries)
        kwargs = dict(n_seeds=2, reg=None)
        asm = AssemblyConfig(depth=1, stem_channels=4)
        seq = score_table(table, asm, "gauss:4x3x5x5", n_workers=1, **kwargs)
        par = score_table(table, asm, "gauss:4x3x5x5", n_workers=4, **kwargs)
        assert seq == par

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_fewer_than_one_worker(self, workers):
        table = BenchmarkTable((BenchmarkEntry("a", CELL_A, 0.5), BenchmarkEntry("b", CELL_B, 0.5)))
        with pytest.raises(ValueError, match=f"got {workers}"):
            score_table(table, AssemblyConfig(depth=1, stem_channels=4), "gauss:4x3x5x5", n_workers=workers)

    @pytest.mark.parametrize("seeds", [0, -1])
    def test_rejects_fewer_than_one_seed(self, seeds):
        table = BenchmarkTable((BenchmarkEntry("a", CELL_A, 0.5), BenchmarkEntry("b", CELL_B, 0.5)))
        with pytest.raises(ValueError, match="^need at least one seed$"):
            score_table(table, AssemblyConfig(depth=1, stem_channels=4), "gauss:4x3x5x5", n_seeds=seeds)


class TestSizeHistogram:
    def test_constant_list_occupies_one_bin(self):
        hist = size_histogram([2.5] * 10, 5)
        assert sum(hist.counts) == 10
        assert sum(1 for c in hist.counts if c) == 1

    def test_counts_sum_preserved(self):
        rng = np.random.default_rng(12)
        sizes = rng.uniform(0, 3, size=137)
        hist = size_histogram(sizes, 7)
        assert sum(hist.counts) == 137
        assert len(hist.edges) == 8

    def test_uniform_fill_is_even(self):
        rng = np.random.default_rng(13)
        hist = size_histogram(rng.uniform(0, 1, size=10_000), 10)
        for count in hist.counts:
            assert abs(count - 1000) <= 100

    @pytest.mark.parametrize(
        "sizes, bins, message",
        [([1.0, 2.0], 0, "need at least one bin"), ([], 3, "empty size sample")],
        ids=["no-bins", "no-sizes"],
    )
    def test_rejects_no_bins_and_no_sizes(self, sizes, bins, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            size_histogram(sizes, bins)


class TestInputDimAblation:
    def test_single_sample_bounds_swap_by_two(self):
        rng = np.random.default_rng(14)
        cells = [random_cell(4, rng) for _ in range(5)]
        rows = input_dim_ablation(
            cells,
            [(3, 4, 4), (3, 8, 8)],
            batch_size=1,
            assembly=AssemblyConfig(depth=1, stem_channels=4),
        )
        for row in rows:
            assert row.swap_mean <= 2.0
            assert row.standard_mean == 1.0

    def test_correlations_reported_when_accuracies_given(self):
        rng = np.random.default_rng(15)
        cells = [random_cell(4, rng) for _ in range(6)]
        rows = input_dim_ablation(
            cells,
            [(3, 6, 6)],
            batch_size=8,
            assembly=AssemblyConfig(depth=1, stem_channels=4),
            accuracies=np.linspace(0.1, 0.9, 6),
        )
        (row,) = rows
        assert row.rho_swap is None or -1.0 <= row.rho_swap <= 1.0
        # saturated standard counts have no rank variance
        if row.standard_std == 0.0:
            assert row.rho_standard is None

    def test_one_cell_has_no_correlation(self):
        # A single cell with an explicit bell scores fine; no correlation is defined.
        (row,) = input_dim_ablation(
            [CELL_A],
            [(3, 4, 4)],
            4,
            assembly=AssemblyConfig(depth=1, stem_channels=4),
            reg=RegularisationParams(1.0, 1.0),
            accuracies=[0.5],
        )
        assert (row.rho_standard, row.rho_swap, row.rho_reg_swap) == (None, None, None)
        assert row.swap_std == 0.0

    def test_auto_bell_uses_the_first_dims_sizes(self):
        # Sizes depend on the channel count, so the first row's one-channel sizes set the bell.
        cells = [random_cell(4, i) for i in range(5)]
        asm = AssemblyConfig(depth=1, stem_channels=4)
        dims = [(1, 5, 5), (3, 4, 4)]

        def bell(channels):
            batch = gaussian_batch(6, (channels, 4, 4), seed=0)
            return estimate_mu_sigma([score_cell(c, asm, batch, 0).size_mb for c in cells])

        assert bell(1) != bell(3)
        auto = input_dim_ablation(cells, dims, 6, assembly=asm, seed=2, reg="auto")
        assert auto == input_dim_ablation(cells, dims, 6, assembly=asm, seed=2, reg=bell(1))

    def test_each_capture_is_counted_before_the_next_cell_is_scored(self, monkeypatch):
        # So a row never holds all of its cells' captures at once.
        events = []
        score, count = evaluation.score_and_capture, evaluation.standard_pattern_cardinality
        monkeypatch.setattr(evaluation, "score_and_capture", lambda *a: events.append("score") or score(*a))
        monkeypatch.setattr(
            evaluation, "standard_pattern_cardinality", lambda c: events.append("count") or count(c)
        )
        asm = AssemblyConfig(depth=1, stem_channels=4)
        input_dim_ablation([CELL_A, CELL_B, CELL_A], [(3, 4, 4), (2, 3, 3)], 2, assembly=asm)
        assert events == ["score", "count"] * 6

    @pytest.mark.parametrize(
        "cells, dims, accuracies, message",
        [
            ([], [(3, 4, 4)], None, "empty cell list"),
            ([CELL_A], [], None, "empty dims list"),
            ([CELL_A, CELL_B], [(3, 4, 4)], [0.5], "need exactly one accuracy per cell"),
        ],
        ids=["no-cells", "no-dims", "accuracy-count"],
    )
    def test_rejects_empty_inputs_and_unmatched_accuracies(self, cells, dims, accuracies, message):
        asm = AssemblyConfig(depth=1, stem_channels=4)
        with pytest.raises(ValueError, match=f"^{message}$"):
            input_dim_ablation(cells, dims, 2, assembly=asm, accuracies=accuracies)


class TestAtomicWriteText:
    TEXT = "SWAPCKPT 3\n{\"a\": [1.5, 2]}\r\nlast line without a newline"

    def test_writes_the_exact_bytes_with_mode_0600(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, self.TEXT)
        assert path.read_bytes() == self.TEXT.encode("ascii")
        assert os.stat(path).st_mode & 0o777 == 0o600
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_replaces_an_existing_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("x" * 10_000)
        atomic_write_text(path, "short\n")
        assert path.read_bytes() == b"short\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_short_writes_are_continued(self, tmp_path, monkeypatch):
        real_write = os.write
        monkeypatch.setattr(evaluation.os, "write", lambda fd, data: real_write(fd, data[:3]))
        path = tmp_path / "out.txt"
        atomic_write_text(path, self.TEXT)
        assert path.read_bytes() == self.TEXT.encode("ascii")

    @pytest.mark.parametrize("step", ["write", "replace"])
    def test_a_failing_step_keeps_the_old_file_and_leaves_no_temp_file(self, tmp_path, monkeypatch, step):
        def refuse(*args):
            raise OSError(f"{step} refused")

        path = tmp_path / "out.txt"
        path.write_text("old\n")
        monkeypatch.setattr(evaluation.os, step, refuse)
        with pytest.raises(OSError, match=f"^{step} refused$"):
            atomic_write_text(path, self.TEXT)
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_a_missing_directory_is_named_by_the_path_not_a_temp_file(self, tmp_path):
        path = tmp_path / "absent" / "out.txt"
        with pytest.raises(FileNotFoundError) as caught:
            atomic_write_text(path, self.TEXT)
        assert str(caught.value) == f"[Errno 2] No such file or directory: '{path}'"

    def test_a_directory_in_the_way_is_named_by_the_path_not_a_temp_file(self, tmp_path):
        path = tmp_path / "out"
        path.mkdir()
        with pytest.raises(IsADirectoryError) as caught:
            atomic_write_text(path, self.TEXT)
        assert caught.value.filename == str(path) and caught.value.filename2 is None
        assert ".tmp-" not in str(caught.value)
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert list(path.iterdir()) == []

    def test_non_ascii_text_is_rejected_and_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(path, "caf\u00e9\n")
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class TestWriteReportCsv:
    @pytest.mark.parametrize(
        "rows, message",
        [
            ([], "no rows to write"),
            ([{"a": 1, "b": 2}, {"b": 2, "a": 1}], "report rows must share one column set"),
        ],
        ids=["empty", "reordered-columns"],
    )
    def test_rejects_no_rows_and_ragged_rows(self, tmp_path, rows, message):
        path = tmp_path / "report.csv"
        with pytest.raises(ValueError, match=f"^{message}$"):
            write_report_csv(path, rows)
        assert not path.exists()

    def test_failed_write_leaves_no_file_behind(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(evaluation.os, "replace", refuse)
        with pytest.raises(OSError, match="^rename refused$"):
            write_report_csv(tmp_path / "report.csv", [{"a": 1}])
        assert list(tmp_path.iterdir()) == []
