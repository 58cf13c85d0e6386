"""Evolutionary cell search driven by the regularised activation score.

Each cycle samples a tournament from the population, takes the best
sampled individual (or, with the configured probability, the better child
of a crossover between the best and second best), generates a fixed
number of mutants from it, adds the best-scoring mutant to the population
and removes the worst individual.  Removal is elitist, so the best score
in the population never decreases.  All randomness flows through one
seeded generator and every candidate's weights are seeded from the global
seed XOR its cell digest, which makes whole runs reproducible and
individual scores recomputable.

Because a score is recomputable from the cell and the run's constants
(seed, batch, and the assembly, which also holds the standardisation
switch), a run scores each distinct cell once and answers every repeat
from an in-memory memo of raw records.  The memo is not checkpointed: a
resumed run rebuilds it, which changes how often cells are scored but no
result.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .cells import OP_CODES, OP_NONE, AssemblyConfig, CellMatrix, random_cell, validate_cell, validate_rows
from .evaluation import estimate_mu_sigma, replace_file, write_all
from .metric import RegularisationParams, ScoreRecord, regularised_swap_score
from .scoring import DEFAULT_BATCH, cell_seed, run_batch, score_cell

CHECKPOINT_MAGIC = "SWAPCKPT 4"
# A save that finds this many checkpoint lines in the run's file starts a new file.
CHECKPOINT_LINES = 16

# ``json.dumps(obj, sort_keys=True)`` without building an encoder per call.
_encode = json.JSONEncoder(sort_keys=True).encode


class NoEdgeError(ValueError):
    """The cell has no connection to mutate."""


class SaturationError(ValueError):
    """No legal connectivity change exists for this cell."""


def mutate_operation(cell: CellMatrix, rng) -> CellMatrix:
    """Replace one connection's op code with a different uniformly drawn one."""
    rng = np.random.default_rng(rng)
    edges = cell.edges()
    if not edges:
        raise NoEdgeError("cell has no connection to mutate")
    i, j, code = edges[rng.integers(len(edges))]
    choices = [c for c in OP_CODES if c != code]
    return cell.replace(i, j, choices[rng.integers(len(choices))])


def mutate_connectivity(cell: CellMatrix, rng) -> CellMatrix:
    """Move one connection to an empty slot, keeping its op code.

    Candidate (edge, slot) moves are tried in random order until one yields
    a valid cell, so the connection count is always preserved.  If no move
    is legal the cell's wiring is saturated and an error is raised.  Moves
    are tried on the cell's row lists; only the returned cell is built.
    """
    rng = np.random.default_rng(rng)
    edges = cell.edges()
    if not edges:
        raise NoEdgeError("cell has no connection to mutate")
    n = cell.n_nodes
    if len(edges) == n * (n - 1) // 2:
        raise SaturationError("cell has no empty slot to move a connection into")
    rows = cell.rows()
    holes = [(i, j) for i in range(n) for j in range(i + 1, n) if rows[i][j] == OP_NONE]
    # Move number m takes edge m // len(holes) to hole m % len(holes).
    for move in rng.permutation(len(edges) * len(holes)).tolist():
        (i, j, code), (ti, tj) = edges[move // len(holes)], holes[move % len(holes)]
        rows[i][j], rows[ti][tj] = OP_NONE, code
        if not validate_rows(rows):
            return CellMatrix._from_rows(rows)
        rows[i][j], rows[ti][tj] = code, OP_NONE
    raise SaturationError("every connection move breaks the cell invariants")


def crossover(a: CellMatrix, b: CellMatrix, rng) -> tuple[CellMatrix, CellMatrix]:
    """Exchange all incoming connections of one randomly chosen node.

    Target columns are tried in random order until the exchange leaves both
    children valid; identical parents therefore reproduce themselves.  If
    every exchange breaks an invariant the parents are returned unchanged.
    Exchanges are tried on the parents' row lists; only returned children
    are built.
    """
    if a.n_nodes != b.n_nodes:
        raise ValueError(f"node-count mismatch: {a.n_nodes} vs {b.n_nodes}")
    rng = np.random.default_rng(rng)
    rows_a, rows_b = a.rows(), b.rows()

    def exchange(j: int) -> None:
        for i in range(j):
            rows_a[i][j], rows_b[i][j] = rows_b[i][j], rows_a[i][j]

    for j in rng.permutation(np.arange(1, a.n_nodes)).tolist():
        exchange(j)
        if not validate_rows(rows_a) and not validate_rows(rows_b):
            return CellMatrix._from_rows(rows_a), CellMatrix._from_rows(rows_b)
        exchange(j)  # an exchange is its own inverse
    return a, b


@dataclass(frozen=True)
class SearchConfig:
    """Evolution hyperparameters plus the scoring context shared by all candidates.

    ``tournament`` defaults to half the population (rounded up).  ``reg``
    accepts explicit parameters, "auto" (estimated from the sizes the
    initial population scored with) or None (raw score, no size bias
    correction).
    """

    population: int = 16
    cycles: int = 100
    tournament: int | None = None
    mutation_times: int = 8
    crossover_prob: float = 0.5
    reg: RegularisationParams | str | None = "auto"
    seed: int = 0
    batch: str = DEFAULT_BATCH
    nodes: int = 4
    assembly: AssemblyConfig = field(default_factory=AssemblyConfig)

    def __post_init__(self) -> None:
        if self.population < 2:
            raise ValueError("population must be at least 2")
        if self.cycles < 0:
            raise ValueError("cycles must be non-negative")
        if self.mutation_times < 1:
            raise ValueError("mutation_times must be at least 1")
        if not 0.0 <= self.crossover_prob <= 1.0:
            raise ValueError("crossover_prob must lie in [0, 1]")
        if self.tournament is not None and not (1 <= self.tournament <= self.population):
            raise ValueError("tournament size must lie in [1, population]")
        if isinstance(self.reg, str) and self.reg != "auto":
            raise ValueError('reg must be RegularisationParams, "auto" or None')
        if self.nodes < 2:
            raise ValueError("cells need at least two nodes")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    @property
    def tournament_size(self) -> int:
        if self.tournament is not None:
            return self.tournament
        return (self.population + 1) // 2


@dataclass(frozen=True)
class Individual:
    """A scored population member; ``birth`` orders insertions for tie-breaks."""

    cell: CellMatrix
    score: float
    swap: int
    size_mb: float
    seed: int
    birth: int

    @cached_property
    def checkpoint_json(self) -> str:
        """This member's checkpoint JSON object, encoded on first use.

        ``vars`` holds only the dataclass fields until the cache stores this value.
        """
        return _encode({**vars(self), "cell": self.cell.encode_line()})


@dataclass(frozen=True)
class SearchResult:
    best: Individual
    trace: tuple[float, ...]
    evaluations: int
    reg: RegularisationParams | None


class _SearchState:
    """Mutable run state; checkpointable between cycles."""

    def __init__(self, cfg: SearchConfig):
        self.cfg = cfg
        self.rng = np.random.default_rng(cfg.seed)
        self.population: list[Individual] = []
        self.trace: list[float] = []
        self.cycle = 0
        self.evaluations = 0
        self.next_birth = 0
        self.reg: RegularisationParams | None = None
        self.batch = run_batch(cfg.batch, cfg.seed)
        # The config never changes during a run; checkpoints splice in its JSON.
        self.config_json = json.dumps(asdict(cfg), sort_keys=True)
        # Keyed on the cell itself, not its 64-bit digest, so a hit is exact.
        # A hit returns the cell object first stored, whose encoding is cached.
        self.scored: dict[CellMatrix, tuple[CellMatrix, ScoreRecord]] = {}
        # Each trace entry's checkpoint JSON, in order, encoded the first time
        # it is written.  It is not checkpointed; a resumed run rebuilds it.
        self.trace_json: list[str] = []
        # The checkpoint file this state appends to: its path, its open
        # descriptor and the checkpoint lines it holds (see save_checkpoint).
        self.checkpoint_path = None
        self.checkpoint_fd: int | None = None
        self.checkpoint_lines = 0

    def close_checkpoint(self) -> None:
        """Close the checkpoint descriptor, if open; the next save starts a new file."""
        fd, self.checkpoint_fd = self.checkpoint_fd, None
        if fd is not None:
            os.close(fd)

    def initialise(self) -> None:
        cells = [random_cell(self.cfg.nodes, self.rng) for _ in range(self.cfg.population)]
        scored = [self.score(cell) for cell in cells]
        self.reg = estimate_mu_sigma([r.size_mb for _, r in scored]) if self.cfg.reg == "auto" else self.cfg.reg
        self.population = [
            Individual(cell, self.regularised(record), record.swap, record.size_mb, record.seed, birth)
            for birth, (cell, record) in enumerate(scored, start=self.next_birth)
        ]
        self.next_birth += len(scored)
        self.trace.append(self.best().score)

    def score(self, cell: CellMatrix) -> tuple[CellMatrix, ScoreRecord]:
        """One evaluation: the memo's copy of ``cell`` and its raw record.

        A cell already scored is not scored again.
        """
        self.evaluations += 1
        hit = self.scored.get(cell)
        if hit is None:
            seed = cell_seed(self.cfg.seed, cell)
            hit = self.scored[cell] = (cell, score_cell(cell, self.cfg.assembly, self.batch, seed))
        return hit

    def regularised(self, record: ScoreRecord) -> float:
        """``record.regularised(self.reg).reg_swap``, computed without copying the record."""
        if self.reg is None:
            return float(record.swap)
        return regularised_swap_score(record.swap, record.size_mb, self.reg)

    def best_of(self, cells) -> tuple[CellMatrix, ScoreRecord, float, int]:
        """Score ``cells`` in turn, each using up the next birth, and keep the best.

        The best has the highest score, then the first encoding, then the
        earliest birth.  It is returned as ``(cell, record, score, birth)``;
        no ``Individual`` is built.
        """
        best = best_key = None
        for cell in cells:
            cell, record = self.score(cell)
            score = self.regularised(record)
            key = (-score, cell.encode(), self.next_birth)
            if best is None or key < best_key:
                best, best_key = (cell, record, score, self.next_birth), key
            self.next_birth += 1
        return best

    def best(self) -> Individual:
        return max(self.population, key=lambda ind: (ind.score, -ind.birth))

    def _mutate(self, parent: CellMatrix) -> CellMatrix:
        # Uniform coin between the two mutation kinds; fall back to the op
        # mutation when no connectivity move is legal.
        if self.rng.random() < 0.5:
            return mutate_operation(parent, self.rng)
        try:
            return mutate_connectivity(parent, self.rng)
        except SaturationError:
            return mutate_operation(parent, self.rng)

    def run_cycle(self) -> None:
        cfg = self.cfg
        idx = self.rng.choice(len(self.population), size=cfg.tournament_size, replace=False)
        candidates = sorted(
            (self.population[i] for i in idx.tolist()),
            key=lambda ind: (-ind.score, ind.cell.encode()),
        )
        parent = candidates[0].cell
        if len(candidates) >= 2 and self.rng.random() < cfg.crossover_prob:
            parent = self.best_of(crossover(candidates[0].cell, candidates[1].cell, self.rng))[0]
        cell, record, score, birth = self.best_of(self._mutate(parent) for _ in range(cfg.mutation_times))
        population = self.population
        population.append(Individual(cell, score, record.swap, record.size_mb, record.seed, birth))
        worst = min(range(len(population)), key=lambda k: (population[k].score, population[k].birth))
        del population[worst]
        self.cycle += 1
        self.trace.append(self.best().score)

    def result(self) -> SearchResult:
        return SearchResult(self.best(), tuple(self.trace), self.evaluations, self.reg)


def _config_from_dict(data: dict) -> SearchConfig:
    reg = data["reg"]
    if isinstance(reg, dict):
        reg = RegularisationParams(**reg)
    return SearchConfig(**{**data, "reg": reg, "assembly": AssemblyConfig(**data["assembly"])})


def config_differences(a: SearchConfig, b: SearchConfig) -> list[str]:
    """Config keys, with the assembly's keys flattened, on which two configs differ."""

    def flat(cfg: SearchConfig) -> dict:
        data = asdict(cfg)
        assembly = data.pop("assembly")
        return {**data, **assembly}

    fa, fb = flat(a), flat(b)
    return sorted(key for key in fa if fa[key] != fb[key])


def save_checkpoint(path, state: _SearchState) -> None:
    """Append a snapshot enabling an exact resume to the run's checkpoint file.

    The file is a ``CHECKPOINT_MAGIC`` line and then one line per save,
    ``<crc32 of body as 8 hex digits> <body>``.  The body is
    ``json.dumps(body, sort_keys=True)`` of the keys below.  It is joined
    from JSON pieces in sorted-key order: the config's JSON is encoded once
    per run, each member's and each trace entry's once per run, and the
    counters and the bell with the generator state as two objects per call,
    whose members are spliced in without their braces.

    The line is appended to the descriptor ``state`` keeps open.  The first
    save of a state (which drops a resumed file's torn tail), a save to
    another path and a save that finds ``CHECKPOINT_LINES`` lines write a
    new one-line file with :func:`replace_file` instead and keep it open.
    A failed append closes the descriptor, so nothing is appended after a
    torn line.
    """
    state.trace_json += [_encode(score) for score in state.trace[len(state.trace_json):]]
    counters = _encode(
        {"cycle": state.cycle, "evaluations": state.evaluations, "next_birth": state.next_birth}
    )
    generator = _encode({
        "reg": None if state.reg is None else vars(state.reg),
        "rng_state": state.rng.bit_generator.state,
    })
    population = ", ".join(ind.checkpoint_json for ind in state.population)
    body = (
        f'{{"config": {state.config_json}, {counters[1:-1]}, "population": [{population}], '
        f'{generator[1:-1]}, "trace": [{", ".join(state.trace_json)}]}}'
    )
    data = body.encode("ascii")
    line = b"%08x %s\n" % (zlib.crc32(data), data)
    opened = state.checkpoint_fd is not None and path == state.checkpoint_path
    if not opened or state.checkpoint_lines >= CHECKPOINT_LINES:
        state.close_checkpoint()
        state.checkpoint_fd = replace_file(path, CHECKPOINT_MAGIC.encode("ascii") + b"\n" + line)
        state.checkpoint_path, state.checkpoint_lines = path, 1
        return
    try:
        write_all(state.checkpoint_fd, line)
    except BaseException:
        state.close_checkpoint()
        raise
    state.checkpoint_lines += 1


def _count(value) -> int:
    if type(value) is not int or value < 0:
        raise ValueError(f"expected a non-negative integer, got {value!r}")
    return value


def _finite(value, positive: bool = False) -> float:
    """A finite number of at least 0, or above 0 when ``positive``."""
    if type(value) not in (int, float) or not math.isfinite(value) or value < 0 or (positive and value == 0):
        raise ValueError(f"expected a finite number {'>' if positive else '>='} 0, got {value!r}")
    return value


# The check of each number a checkpointed individual carries.
_INDIVIDUAL_NUMBERS = {
    "score": _finite,
    "swap": _count,
    "size_mb": lambda v: _finite(v, positive=True),
    "seed": _count,
    "birth": _count,
}


def _trace(value) -> list:
    if not isinstance(value, list) or not all(type(v) in (int, float) for v in value):
        raise ValueError("expected a list of numbers")
    return list(value)


def _population(value, cfg: SearchConfig) -> list[Individual]:
    if not isinstance(value, list) or len(value) != cfg.population:
        raise ValueError(f"expected a list of {cfg.population} individuals")
    population = []
    for k, item in enumerate(value):
        if not isinstance(item, dict) or not isinstance(item.get("cell"), str):
            raise ValueError(f"individual {k} is not an object with a cell string")
        cell = CellMatrix.decode(item["cell"])
        violations = validate_cell(cell)
        if cell.n_nodes != cfg.nodes:
            violations.insert(0, f"{cell.n_nodes} nodes, expected {cfg.nodes}")
        if violations:
            raise ValueError(f"individual {k} has an invalid cell: {'; '.join(violations)}")
        for key, check in _INDIVIDUAL_NUMBERS.items():
            try:
                check(item[key])
            except ValueError as exc:
                raise ValueError(f"individual {k} {key}: {exc}") from None
        population.append(Individual(**{**item, "cell": cell}))
    return population


def _read_line(line: bytes, where: str) -> tuple[SearchConfig, dict]:
    """One checkpoint line's config and the state attributes it restores.

    A fault raises ``ValueError`` starting with ``where`` and naming the key.
    """
    data = line[9:]
    if line[8:9] != b" " or line[:8] != b"%08x" % zlib.crc32(data):
        raise ValueError(f"{where}: checksum does not match the checkpoint body")
    try:
        body = json.loads(data.decode("ascii"))
    except ValueError as exc:
        raise ValueError(f"{where}: checkpoint body is not JSON: {exc}") from None
    if not isinstance(body, dict):
        raise ValueError(f"{where}: checkpoint body is not a JSON object")

    def field(key, parse):
        if key not in body:
            raise ValueError(f"{where}: checkpoint {key} missing")
        try:
            return parse(body[key])
        except KeyError as exc:
            raise ValueError(f"{where}: checkpoint {key} invalid: missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{where}: checkpoint {key} invalid: {exc}") from None

    cfg = field("config", _config_from_dict)
    rng = np.random.default_rng(cfg.seed)
    restored = {
        "cycle": field("cycle", _count),
        "evaluations": field("evaluations", _count),
        "next_birth": field("next_birth", _count),
        "trace": field("trace", _trace),
        "reg": field("reg", lambda reg: None if reg is None else RegularisationParams(**reg)),
        "population": field("population", lambda items: _population(items, cfg)),
        "rng": rng,
    }
    field("rng_state", lambda rng_state: setattr(rng.bit_generator, "state", rng_state))
    return cfg, restored


def load_checkpoint(path) -> _SearchState:
    """Read back the state of the last complete line of a checkpoint file.

    A final line without its newline is a torn append and is skipped.  Every
    complete line is checked, so a malformed one raises ``ValueError``
    naming the path, the line number and the fault.
    """
    with open(path, "rb") as fh:
        magic = fh.readline().rstrip(b"\n").decode("ascii", "backslashreplace")
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a {CHECKPOINT_MAGIC} checkpoint: {magic!r}")
        *lines, _torn = fh.read().split(b"\n")
    if not lines:
        raise ValueError(f"{path}: checkpoint holds no complete line")
    for number, line in enumerate(lines, start=2):
        cfg, restored = _read_line(line, f"{path}: line {number}")
    state = _SearchState(cfg)
    for key, value in restored.items():
        setattr(state, key, value)
    return state


def _drive(state: _SearchState, checkpoint_path, checkpoint_every: int, on_cycle) -> SearchResult:
    """The search loop of a fresh state (no population yet) or a resumed one.

    A fresh state is initialised and checkpointed as cycle 0 first.  The
    checkpoint descriptor is closed however the loop ends.
    """
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be at least 1, got {checkpoint_every}")
    if checkpoint_every != 1 and not checkpoint_path:
        raise ValueError(f"checkpoint_every={checkpoint_every} has no effect without a checkpoint_path")
    try:
        if not state.population:
            state.initialise()
            if checkpoint_path:
                save_checkpoint(checkpoint_path, state)
        while state.cycle < state.cfg.cycles:
            state.run_cycle()
            if checkpoint_path and (
                state.cycle % checkpoint_every == 0 or state.cycle == state.cfg.cycles
            ):
                save_checkpoint(checkpoint_path, state)
            if on_cycle is not None:
                on_cycle(state.cycle, tuple(state.population), state.best())
        return state.result()
    finally:
        state.close_checkpoint()


def run_search(
    cfg: SearchConfig,
    *,
    checkpoint_path=None,
    checkpoint_every: int = 1,
    on_cycle=None,
) -> SearchResult:
    """Run the full search loop; identical config and seed give identical results."""
    return _drive(_SearchState(cfg), checkpoint_path, checkpoint_every, on_cycle)


def resume_search(
    checkpoint_path,
    *,
    checkpoint_every: int = 1,
    on_cycle=None,
) -> SearchResult:
    """Continue a checkpointed run to its configured cycle count.

    A run interrupted and resumed produces exactly the result of the
    uninterrupted run because the generator state travels with the
    checkpoint.
    """
    return _drive(load_checkpoint(checkpoint_path), checkpoint_path, checkpoint_every, on_cycle)
