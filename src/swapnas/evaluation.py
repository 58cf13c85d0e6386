"""Benchmark ingestion, rank correlation and the ablation harnesses.

Ground-truth accuracies arrive as CSV tables mapping architecture ids to
cell encodings and accuracies.  Everything downstream is rank-based:
Spearman correlation with average-rank tie handling, bell-parameter
sweeps, per-seed correlation reports, size histograms and the
input-dimension ablation.
"""

from __future__ import annotations

import csv
import io
import math
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .cells import AssemblyConfig, CellMatrix, validate_cell
from .metric import (
    RegularisationParams,
    ScoreRecord,
    regularised_swap_score,
    standard_pattern_cardinality,
)
from .network import gaussian_batch
from .scoring import BATCH_SALT, cell_seed, derive_seed, run_batch, score_and_capture, score_cell

TABLE_COLUMNS = ("arch_id", "cell", "accuracy")
SCORE_COLUMNS = ("arch_id", "seed", "batch", "swap", "reg_swap", "size_mb", "flops")


class TableError(ValueError):
    """An accuracy table or score file fails schema or value validation."""


# Every column of the accuracy table and the score file: its parser, the
# rule its parsed value must hold, and the phrase reporting a value that
# fails either.
_COLUMNS = {
    "arch_id": (str.strip, bool, "is empty"),
    "cell": (CellMatrix.decode, lambda v: not validate_cell(v), "is not a cell document"),
    "accuracy": (float, lambda v: 0.0 <= v <= 1.0, "outside [0, 1]"),
    "size_mb": (float, lambda v: math.isfinite(v) and v > 0.0, "is not a positive finite number"),
    "seed": (int, lambda v: True, "is not an integer"),
    "batch": (str, lambda v: True, "is not text"),
    "swap": (int, lambda v: v >= 0, "is not a non-negative integer"),
    "reg_swap": (float, lambda v: math.isfinite(v) and v >= 0.0, "is not a non-negative finite number"),
    "flops": (int, lambda v: v >= 0, "is not a non-negative integer"),
}


def _read_rows(path, columns: tuple[str, ...], optional: str | None = None):
    """Yield ``(line, {column: value})`` for each non-blank row of a CSV file.

    The header lists ``columns``, then ``optional`` if the file has it; a
    blank ``optional`` field is omitted from its row.  Every other field is
    parsed and checked by its ``_COLUMNS`` entry, and a failure names the
    file, line, column and value.  CRLF and LF files parse identically.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise TableError(f"{path}: empty file")
        header = tuple(h.strip() for h in header)
        if header not in (columns, columns + (optional,)):
            spec = ",".join(columns) + (f"[,{optional}]" if optional else "")
            raise TableError(f"{path}: line 1: expected header {spec}, got {','.join(header)}")
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != len(header):
                raise TableError(f"{path}: line {line}: expected {len(header)} columns, got {len(row)}")
            values = {}
            for name, text in zip(header, row):
                if name == optional and not text.strip():
                    continue
                parse, holds, phrase = _COLUMNS[name]
                try:
                    value = parse(text)
                    ok = holds(value)
                except ValueError:
                    value, ok = text, False
                if not ok:
                    raise TableError(f"{path}: line {line}: {name} {value!r} {phrase}")
                values[name] = value
            yield line, values


class UndefinedCorrelationError(ValueError):
    """Rank correlation is undefined (zero rank variance)."""


class InsufficientDataError(ValueError):
    """Fewer than two matched observations."""


def write_all(fd: int, data: bytes) -> None:
    """``os.write`` until every byte of ``data`` is out."""
    data = memoryview(data)
    while data:
        data = data[os.write(fd, data):]


def replace_file(path, data: bytes) -> int:
    """Write ``data`` to a sibling temp file, rename it over ``path`` and return it open.

    Readers of ``path`` see the old file or all of ``data``, never a partial
    file.  The temp file is unique (``mkstemp``, mode 0600), so two writers
    to one path never rename each other's partial file.  The caller owns the
    returned descriptor, whose offset is at the end of ``data``.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    except OSError as exc:  # name the file asked for, not the temp file
        raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        write_all(fd, data)
        os.replace(tmp, path)
    except BaseException as exc:
        os.close(fd)
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:  # the rename: name the path
            raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None
        raise
    return fd


def atomic_write_text(path, text: str) -> None:
    """Write ASCII text via a sibling temp file and rename (:func:`replace_file`).

    Non-ASCII text raises ``UnicodeEncodeError`` before any file is made.
    """
    os.close(replace_file(path, text.encode("ascii")))


@dataclass(frozen=True)
class BenchmarkEntry:
    arch_id: str
    cell: CellMatrix
    accuracy: float
    size_mb: float | None = None


@dataclass(frozen=True)
class BenchmarkTable:
    """Ground-truth accuracies for a set of architectures, in file order."""

    entries: tuple[BenchmarkEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def accuracy_by_id(self) -> dict[str, float]:
        return {e.arch_id: e.accuracy for e in self.entries}


def load_accuracy_table(path) -> BenchmarkTable:
    """Parse an accuracy CSV: header ``arch_id,cell,accuracy[,size_mb]``.

    The ``cell`` column holds a cell document on one line
    (:meth:`CellMatrix.encode_line`).  Besides the column rules of
    ``_COLUMNS``, ids must be unique.
    """
    entries: list[BenchmarkEntry] = []
    seen: dict[str, int] = {}
    for line, values in _read_rows(path, TABLE_COLUMNS, "size_mb"):
        arch_id = values["arch_id"]
        if arch_id in seen:
            raise TableError(
                f"{path}: line {line}: duplicate arch_id {arch_id!r} (first seen on line {seen[arch_id]})"
            )
        seen[arch_id] = line
        entries.append(BenchmarkEntry(**values))
    return BenchmarkTable(tuple(entries))


def write_accuracy_table(path, table: BenchmarkTable) -> None:
    header = list(TABLE_COLUMNS)
    has_size = any(e.size_mb is not None for e in table.entries)
    if has_size:
        header.append("size_mb")
    rows = []
    for e in table.entries:
        row = [e.arch_id, e.cell.encode_line(), float(e.accuracy)]
        if has_size:
            row.append(None if e.size_mb is None else float(e.size_mb))
        rows.append(row)
    _write_csv(path, header, rows)


def write_score_records(path, records) -> None:
    rows = [
        (r.arch_id, r.seed, r.batch, r.swap, float(r.reg_swap), float(r.size_mb), r.flops)
        for r in records
    ]
    _write_csv(path, SCORE_COLUMNS, rows)


def read_score_records(path) -> list[ScoreRecord]:
    """Parse a score CSV written by :func:`write_score_records`."""
    return [ScoreRecord(**values) for _, values in _read_rows(path, SCORE_COLUMNS)]


def rank_average(values) -> np.ndarray:
    """1-based ranks with ties replaced by the mean rank of the tied block."""
    a = np.asarray(values, dtype=np.float64).ravel()
    _, inverse, counts = np.unique(a, return_inverse=True, return_counts=True)
    # A tie block at sorted positions i..j ends at rank j + 1 and holds
    # j - i + 1 values, so its mean rank (i + j) / 2 + 1 is this, exactly.
    ends = np.cumsum(counts)
    return (ends - 0.5 * (counts - 1))[inverse]


def spearman_rho(x, y) -> float:
    """Rank correlation: Pearson correlation of average-tie ranks.

    Raises :class:`UndefinedCorrelationError` when either argument has no
    rank variance (all values tied), since ranking then carries no signal.
    """
    xa = np.asarray(x, dtype=np.float64).ravel()
    ya = np.asarray(y, dtype=np.float64).ravel()
    if xa.size != ya.size:
        raise ValueError(f"length mismatch: {xa.size} vs {ya.size}")
    if xa.size < 2:
        raise ValueError("need at least two observations")
    if not (np.isfinite(xa).all() and np.isfinite(ya).all()):
        raise ValueError("inputs must be finite")
    rx = rank_average(xa) - (xa.size + 1) / 2.0
    ry = rank_average(ya) - (ya.size + 1) / 2.0
    denom = math.sqrt(float(np.sum(rx * rx)) * float(np.sum(ry * ry)))
    if denom == 0.0:
        raise UndefinedCorrelationError("zero rank variance")
    return float(np.sum(rx * ry) / denom)


def ceil_to_significant(x: float, digits: int = 2) -> float:
    """Round up at the given significant digit (1.23 -> 1.3 at two digits)."""
    if not (math.isfinite(x) and x > 0):
        raise ValueError("value must be positive and finite")
    scale = 10.0 ** (math.floor(math.log10(x)) - digits + 1)
    # The epsilon keeps exactly representable inputs (1.5, 31.0) fixed points.
    return math.ceil(x / scale - 1e-9) * scale


def estimate_mu_sigma(sizes) -> RegularisationParams:
    """Default bell parameters from a size sample: both set to the rounded-up max.

    Placing the bell centre at the top of the observed size range keeps the
    factor monotone over the sample while leaving the largest models
    essentially unpenalised, which is the recommended setting when the goal
    is top accuracy rather than a size budget.
    """
    sizes = [float(s) for s in sizes]
    if len(sizes) < 2:
        raise ValueError("need at least two sizes to estimate the distribution")
    top = ceil_to_significant(max(sizes), 2)
    return RegularisationParams(mu=top, sigma=top)


@dataclass(frozen=True)
class SweepPoint:
    """One grid entry of the bell-parameter sweep; mu=sigma=None is unregularised."""

    mu: float | None
    sigma: float | None
    rho: float | None
    n_matched: int


def _matched_pairs(records, table: BenchmarkTable):
    accuracy = table.accuracy_by_id()
    pairs = [(r, accuracy[r.arch_id]) for r in records if r.arch_id in accuracy]
    if len(pairs) < 2:
        raise InsufficientDataError(
            f"only {len(pairs)} records match the table; need at least 2"
        )
    return pairs


def _safe_rho(x, y) -> float | None:
    try:
        return spearman_rho(x, y)
    except UndefinedCorrelationError:
        return None


def mu_sigma_sweep(records, table: BenchmarkTable, grid) -> list[SweepPoint]:
    """Correlation of the regularised score with accuracy over a (mu, sigma) grid.

    The first row reports the unregularised score, mirroring the N/A rows
    of the sweep tables this feeds.
    """
    grid = [(float(m), float(s)) for m, s in grid]
    if not grid:
        raise ValueError("empty parameter grid")
    pairs = _matched_pairs(records, table)
    accs = [acc for _, acc in pairs]
    raw = [r.swap for r, _ in pairs]
    points = [SweepPoint(None, None, _safe_rho(raw, accs), len(pairs))]
    for mu, sigma in grid:
        params = RegularisationParams(mu=mu, sigma=sigma)
        scores = [regularised_swap_score(r.swap, r.size_mb, params) for r, _ in pairs]
        points.append(SweepPoint(mu, sigma, _safe_rho(scores, accs), len(pairs)))
    return points


REPORT_METRICS = ("swap", "reg_swap", "size_mb", "flops")


@dataclass(frozen=True)
class CorrelationReport:
    """Spearman correlations per metric: per seed and averaged over seeds."""

    per_seed: tuple[tuple[int, dict[str, float | None]], ...]
    mean: dict[str, float | None]
    n_matched: int


def correlation_report(records, table: BenchmarkTable) -> CorrelationReport:
    """Correlate each scored metric against ground-truth accuracy.

    Records are grouped by their evaluation seed; the headline figure per
    metric is the arithmetic mean over seed groups with at least two
    matched architectures.  Undefined correlations propagate as None.
    """
    pairs = _matched_pairs(records, table)
    by_seed: dict[int, list[tuple[ScoreRecord, float]]] = {}
    for record, acc in pairs:
        by_seed.setdefault(record.seed, []).append((record, acc))
    per_seed: list[tuple[int, dict[str, float | None]]] = []
    for seed in sorted(by_seed):
        group = by_seed[seed]
        if len(group) < 2:
            continue
        accs = [acc for _, acc in group]
        rhos: dict[str, float | None] = {}
        for metric in REPORT_METRICS:
            vals = [getattr(r, metric) for r, _ in group]
            rhos[metric] = _safe_rho(vals, accs)
        per_seed.append((seed, rhos))
    if not per_seed:
        raise InsufficientDataError("no seed group has two or more matched architectures")
    mean: dict[str, float | None] = {}
    for metric in REPORT_METRICS:
        vals = [rhos[metric] for _, rhos in per_seed if rhos[metric] is not None]
        mean[metric] = sum(vals) / len(vals) if vals else None
    return CorrelationReport(tuple(per_seed), mean, len(pairs))


def score_table(
    table: BenchmarkTable,
    assembly: AssemblyConfig,
    batch_spec: str,
    *,
    n_seeds: int = 5,
    reg: RegularisationParams | str | None = "auto",
    n_workers: int = 1,
) -> list[ScoreRecord]:
    """Score a table's architectures under the multi-seed protocol.

    The entries are split into ``n_seeds`` disjoint strided groups; group k
    is scored with seed k (fresh batch, fresh weights).  Every entry is
    scored raw, on ``n_workers`` threads; the records do not depend on the
    schedule.  ``reg="auto"`` then estimates the bell parameters once from
    the whole table's sizes, taking each entry's reported size and else
    the size its record was scored with.
    """
    if n_seeds < 1:
        raise ValueError("need at least one seed")
    if n_workers < 1:
        raise ValueError(f"need at least one worker, got {n_workers}")
    jobs = []
    for seed in range(n_seeds):
        group = table.entries[seed::n_seeds]
        if group:
            batch = run_batch(batch_spec, seed)
            jobs.extend((entry, seed, batch) for entry in group)

    def score(job) -> ScoreRecord:
        entry, seed, batch = job
        record = score_cell(entry.cell, assembly, batch, cell_seed(seed, entry.cell))
        # The record carries the derived weight seed; reports group by protocol seed.
        return replace(record, arch_id=entry.arch_id, seed=seed, batch=batch_spec)

    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        records = list(pool.map(score, jobs))
    if reg == "auto" and records:
        reg = estimate_mu_sigma(
            r.size_mb if e.size_mb is None else e.size_mb for (e, _, _), r in zip(jobs, records)
        )
    return [r.regularised(reg) for r in records]


@dataclass(frozen=True)
class Histogram:
    counts: tuple[int, ...]
    edges: tuple[float, ...]


def size_histogram(sizes, n_bins: int) -> Histogram:
    """Equal-width histogram over [min, max]; counts always sum to len(sizes)."""
    if n_bins < 1:
        raise ValueError("need at least one bin")
    arr = np.asarray(list(sizes), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("empty size sample")
    counts, edges = np.histogram(arr, bins=n_bins)
    return Histogram(tuple(int(c) for c in counts), tuple(float(e) for e in edges))


@dataclass(frozen=True)
class AblationRow:
    """Metric statistics for one input dimensionality."""

    dims: tuple[int, int, int]
    standard_mean: float
    standard_std: float
    swap_mean: float
    swap_std: float
    reg_swap_mean: float
    reg_swap_std: float
    rho_standard: float | None = None
    rho_swap: float | None = None
    rho_reg_swap: float | None = None


def input_dim_ablation(
    cells,
    dims_list,
    batch_size: int,
    *,
    assembly: AssemblyConfig,
    seed: int = 0,
    reg: RegularisationParams | str | None = "auto",
    accuracies=None,
) -> list[AblationRow]:
    """Compare pattern cardinalities across input dimensionalities.

    For every (C, W, H) in ``dims_list`` a fresh synthetic Gaussian batch
    of ``batch_size`` samples is scored against every cell; the row
    reports mean and standard deviation of the standard cardinality, the
    sample-wise score and its regularised variant, plus rank correlations
    against ``accuracies`` when given (None where undefined: for a single
    cell or under full saturation).  ``reg="auto"`` estimates one bell for
    every row from the sizes the cells score with in the first
    ``dims_list`` entry.
    """
    cells = list(cells)
    if not cells:
        raise ValueError("empty cell list")
    dims_list = [tuple(int(d) for d in dims) for dims in dims_list]
    if not dims_list:
        raise ValueError("empty dims list")
    if accuracies is not None:
        accuracies = [float(a) for a in accuracies]
        if len(accuracies) != len(cells):
            raise ValueError("need exactly one accuracy per cell")
    rows: list[AblationRow] = []
    for di, dims in enumerate(dims_list):
        batch = gaussian_batch(batch_size, dims, derive_seed(seed, BATCH_SALT + di))
        records: list[ScoreRecord] = []
        standard: list[float] = []
        for cell in cells:
            record, capture = score_and_capture(cell, assembly, batch, cell_seed(seed, cell))
            records.append(record)
            # Counted at once, so a row never holds all of its cells' captures.
            standard.append(float(standard_pattern_cardinality(capture)))
        if reg == "auto":
            reg = estimate_mu_sigma([r.size_mb for r in records])
        values = {
            "standard": standard,
            "swap": [float(r.swap) for r in records],
            "reg_swap": [r.regularised(reg).reg_swap for r in records],
        }
        stats = {}
        for metric, vals in values.items():
            stats[f"{metric}_mean"], stats[f"{metric}_std"] = float(np.mean(vals)), float(np.std(vals))
            if accuracies is not None and len(cells) > 1:
                stats[f"rho_{metric}"] = _safe_rho(vals, accuracies)
        rows.append(AblationRow(dims, **stats))
    return rows


def _format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_csv(path, header, rows) -> None:
    """Write a CSV file; fields holding a comma, quote or newline are quoted."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_format_value(v) for v in row] for row in rows)
    atomic_write_text(path, buf.getvalue())


def write_report_csv(path, rows: list[dict]) -> None:
    """Write homogeneous report rows as CSV; None becomes an empty field."""
    if not rows:
        raise ValueError("no rows to write")
    header = list(rows[0].keys())
    if any(list(row.keys()) != header for row in rows):
        raise ValueError("report rows must share one column set")
    _write_csv(path, header, [row.values() for row in rows])


def write_plot_data(path, series: dict) -> None:
    """Write (series, x, y) triples for external plotting, one row per point."""
    rows = [(name, float(x), float(y)) for name, points in series.items() for x, y in points]
    _write_csv(path, ("series", "x", "y"), rows)
