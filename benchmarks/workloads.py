"""The benchmark's three workloads: inputs made from a seed, one operation, output checks.

Each workload is a closed loop with one caller: ``op(i)`` runs operation
``i`` through the public ``swapnas`` API and returns its output, and the
loop in ``run.py`` starts the next operation only after it returns.  Every
call goes through the ``swapnas`` package namespace at call time, so a
traced run sees it after ``tracing.Tracer.install``.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import time

import numpy as np

import swapnas
from swapnas.cells import trace_shapes

NB201_BATCH = "gauss:32x3x32x32"
SEARCH_BATCH = "gauss:16x3x8x8"
SEARCH_DIMS = (3, 8, 8)
ABLATION_DIMS = ((3, 32, 32), (3, 16, 16), (3, 8, 8), (3, 3, 3))
ABLATION_BATCH = 32

# Relative score_cell cost of one cell edge, by op code (none, 3x3 conv,
# 1x1 conv, 3x3 avg-pool, skip), fitted on 80 cells of the space at the
# commit that added the benchmark.  It only orders cells into cost strata,
# so a stale value makes runs noisier, never biased.
EDGE_COST = np.array([0, 7, 2, 6, 0])
N_STRATA = 32
_SLOTS = [(i, j) for i in range(4) for j in range(i + 1, 4)]


def valid_cell_codes() -> np.ndarray:
    """Every valid 4-node cell of the search space, as an (n, 4, 4) code array.

    Validity follows ``swapnas.validate_cell``: the source has an outgoing
    edge, the sink an incoming one, and an interior node has both or none.
    The library validates each cell again when it assembles it.
    """
    combos = np.array(list(itertools.product(range(5), repeat=len(_SLOTS))), dtype=np.int64)
    codes = np.zeros((len(combos), 4, 4), dtype=np.int64)
    rows, cols = zip(*_SLOTS)
    codes[:, rows, cols] = combos
    edge = codes > 0
    out_deg, in_deg = edge.sum(axis=2), edge.sum(axis=1)
    ok = (out_deg[:, 0] > 0) & (in_deg[:, 3] > 0)
    for v in (1, 2):
        ok &= (out_deg[:, v] > 0) == (in_deg[:, v] > 0)
    return codes[ok]


def cell_sequence(seed: int) -> np.ndarray:
    """Distinct cells in a seeded order, stratified by estimated cost.

    The valid space is sorted by ``EDGE_COST`` and cut into ``N_STRATA``
    equal strata.  Block b of the sequence holds the b-th cell of each
    stratum's seeded permutation, so every block is a uniform sample of the
    space with the same cost mix and no cell repeats.  Within a block the
    strata come in bit-reversed order (0, 16, 8, 24, ...), so a run that
    stops part-way through a block still has an even spread of costs.
    """
    codes = valid_cell_codes()
    cost = EDGE_COST[codes].sum(axis=(1, 2))
    order = np.lexsort((np.arange(len(codes)), cost))
    rng = np.random.default_rng(seed)
    strata = [rng.permutation(s) for s in np.array_split(order, N_STRATA)]
    bits = N_STRATA.bit_length() - 1
    in_block = [int(format(k, f"0{bits}b")[::-1], 2) for k in range(N_STRATA)]
    depth = min(len(s) for s in strata)
    blocks = np.stack([strata[k][:depth] for k in in_block], axis=1)
    return codes[blocks.ravel()]


def n_values(cell, assembly, dims) -> int:
    """V, the number of values that feed a ReLU, from the assembled graph."""
    nodes = swapnas.assemble_descriptor(cell, assembly, dims[0])
    total = 0
    for node, (c, w, h) in zip(nodes, trace_shapes(nodes, dims)):
        if node.scored:
            total += c * w * h if node.kind == "conv" else node.units
    return total


def warmup_index(cells: np.ndarray) -> int:
    """The costliest cell of the last block, which the timed loop never reaches.

    Without one heavy operation before timing, the first operations of a
    process run 10-15% slower than the same operations repeated later.
    """
    last = EDGE_COST[cells[-N_STRATA:]].sum(axis=(1, 2))
    return len(cells) - N_STRATA + int(np.argmax(last))


class Nb201Score:
    """Score distinct cells one at a time at NB201 scale; no work repeats."""

    name = "nb201-score"
    tail_pct = 80

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.assembly = swapnas.nb201_like_assembly()
        self.batch = swapnas.make_batch(NB201_BATCH, seed)
        self.cells = cell_sequence(seed)
        self.capacity = len(self.cells) - N_STRATA

    def op(self, i: int):
        cell = swapnas.CellMatrix(self.cells[i])
        seed = swapnas.derive_seed(self.seed, cell.stable_hash())
        return swapnas.score_cell(cell, self.assembly, self.batch, seed), None

    def warmup(self) -> None:
        self.op(warmup_index(self.cells))

    def passes(self, record) -> int:
        return 1

    def canonical(self, record) -> str:
        return f"{record.swap}|{record.size_mb!r}|{record.flops}"

    def check(self, i: int, record) -> str | None:
        cell = swapnas.CellMatrix(self.cells[i])
        v = n_values(cell, self.assembly, self.batch.dims)
        if not 1 <= record.swap <= v:
            return f"swap {record.swap} outside [1, V={v}]"
        if record.size_mb <= 0 or record.flops <= 0:
            return f"non-positive size {record.size_mb} or flops {record.flops}"
        return None


class SearchSmall:
    """Repeat the ROADMAP search configuration, one sub-seed per search."""

    name = "search-small"
    tail_pct = 90
    capacity = 256

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.seeds = [int(s) for s in rng.integers(0, 2**63, size=self.capacity + 1)]
        self.assembly = swapnas.AssemblyConfig(depth=1, stem_channels=8)
        self.checkpoint = f"{workdir}/search.ckpt"

    def config(self, i: int):
        return swapnas.SearchConfig(
            population=16,
            cycles=100,
            mutation_times=8,
            reg="auto",
            seed=self.seeds[i],
            batch=SEARCH_BATCH,
            nodes=4,
            assembly=self.assembly,
        )

    def op(self, i: int):
        """One full search; its steps are runs of five cycles after the first.

        Half the cycles run a crossover, which adds two evaluations, so the
        time of single cycles splits into two modes and their median jumps
        between them.  Five-cycle steps have one central mode, and a short
        stall on the machine moves fewer of them into the tail.
        """
        stamps: list[float] = []
        result = swapnas.run_search(
            self.config(i),
            checkpoint_path=self.checkpoint,
            checkpoint_every=1,
            on_cycle=lambda *_: stamps.append(time.perf_counter()),
        )
        return result, list(np.diff(stamps[::5]))

    def warmup(self) -> None:
        """A short search on a sub-seed the timed loop never reaches."""
        cfg = dataclasses.replace(self.config(self.capacity), cycles=10)
        swapnas.run_search(cfg, checkpoint_path=self.checkpoint)

    def passes(self, result) -> int:
        return result.evaluations

    def canonical(self, result) -> str:
        best = result.best
        return json.dumps(
            [best.cell.encode(), repr(best.score), [repr(t) for t in result.trace], result.evaluations]
        )

    def check(self, i: int, result) -> str | None:
        cfg = self.config(i)
        least = cfg.population + cfg.cycles * cfg.mutation_times
        most = least + 2 * cfg.cycles  # a crossover adds two evaluations
        if not least <= result.evaluations <= most:
            return f"{result.evaluations} evaluations outside [{least}, {most}]"
        if any(b < a for a, b in zip(result.trace, result.trace[1:])):
            return "best score decreased under elitist removal"
        best = result.best
        v = n_values(best.cell, self.assembly, SEARCH_DIMS)
        if not 1 <= best.swap <= v:
            return f"best swap {best.swap} outside [1, V={v}]"
        if not 0 <= best.score <= best.swap:
            return f"best regularised score {best.score} outside [0, swap={best.swap}]"
        return None


class AblateDims:
    """Ablate one cell at a time over four input sizes, the per-sample count's route."""

    name = "ablate-dims"
    tail_pct = 70

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.assembly = swapnas.nb201_like_assembly()
        self.cells = cell_sequence(seed)
        self.capacity = len(self.cells) - N_STRATA
        # One cell per call cannot estimate the bell, so fix it from the first block.
        sizes = [
            swapnas.params_to_megabytes(
                swapnas.count_parameters(swapnas.CellMatrix(c), self.assembly, 3)
            )
            for c in self.cells[:N_STRATA]
        ]
        self.reg = swapnas.estimate_mu_sigma(sizes)

    def op(self, i: int):
        rows = swapnas.input_dim_ablation(
            [swapnas.CellMatrix(self.cells[i])],
            ABLATION_DIMS,
            ABLATION_BATCH,
            assembly=self.assembly,
            seed=self.seed,
            reg=self.reg,
        )
        return rows, None

    def warmup(self) -> None:
        self.op(warmup_index(self.cells))

    def passes(self, rows) -> int:
        return len(rows)

    def canonical(self, rows) -> str:
        return ";".join(
            f"{r.dims}|{r.standard_mean!r}|{r.swap_mean!r}|{r.reg_swap_mean!r}" for r in rows
        )

    def check(self, i: int, rows) -> str | None:
        if [r.dims for r in rows] != list(ABLATION_DIMS):
            return f"rows cover dims {[r.dims for r in rows]}"
        cell = swapnas.CellMatrix(self.cells[i])
        for r in rows:
            v = n_values(cell, self.assembly, r.dims)
            if not 1 <= r.standard_mean <= ABLATION_BATCH:
                return f"per-sample count {r.standard_mean} outside [1, S={ABLATION_BATCH}] at {r.dims}"
            if not 1 <= r.swap_mean <= v:
                return f"swap {r.swap_mean} outside [1, V={v}] at {r.dims}"
            if not 0 <= r.reg_swap_mean <= r.swap_mean:
                return f"regularised swap {r.reg_swap_mean} above swap {r.swap_mean} at {r.dims}"
        return None


WORKLOADS = {w.name: w for w in (Nb201Score, SearchSmall, AblateDims)}
