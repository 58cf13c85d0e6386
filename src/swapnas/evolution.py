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

from .cells import OP_CODES, OP_NONE, AssemblyConfig, CellMatrix, random_cell, validate_cell
from .evaluation import estimate_mu_sigma, replace_file, write_all
from .metric import RegularisationParams, ScoreRecord, regularised_swap_score
from .scoring import BATCH_SALT, DEFAULT_BATCH, derive_seed, make_batch, score_cell

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
    is legal the cell's wiring is saturated and an error is raised.
    """
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
        moved = cell.replace(i, j, OP_NONE).replace(ti, tj, code)
        if not validate_cell(moved):
            return moved
    raise SaturationError("every connection move breaks the cell invariants")


def crossover(a: CellMatrix, b: CellMatrix, rng) -> tuple[CellMatrix, CellMatrix]:
    """Exchange all incoming connections of one randomly chosen node.

    Target columns are tried in random order until the exchange leaves both
    children valid; identical parents therefore reproduce themselves.  If
    every exchange breaks an invariant the parents are returned unchanged.
    """
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


def batch_for_config(cfg: SearchConfig):
    """The one input batch shared by every evaluation of a run."""
    return make_batch(cfg.batch, derive_seed(cfg.seed, BATCH_SALT))


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
        self.batch = batch_for_config(cfg)
        # The config never changes during a run; checkpoints splice in its JSON.
        self.config_json = json.dumps(asdict(cfg), sort_keys=True)
        # Keyed on the cell itself, not its 64-bit digest, so a hit is exact.
        self.scored: dict[CellMatrix, ScoreRecord] = {}
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
        records = [self.score(cell) for cell in cells]
        self.reg = estimate_mu_sigma([r.size_mb for r in records]) if self.cfg.reg == "auto" else self.cfg.reg
        self.population = [self.individual(c, r) for c, r in zip(cells, records)]
        self.trace.append(self.best().score)

    def score(self, cell: CellMatrix) -> ScoreRecord:
        """The raw record of one evaluation; a cell already scored is not scored again."""
        self.evaluations += 1
        record = self.scored.get(cell)
        if record is None:
            seed = derive_seed(self.cfg.seed, cell.stable_hash())
            record = self.scored[cell] = score_cell(cell, self.cfg.assembly, self.batch, seed)
        return record

    def individual(self, cell: CellMatrix, record: ScoreRecord) -> Individual:
        """Apply the run's bell to a raw record and give it the next birth.

        The score is ``record.regularised(self.reg).reg_swap``, computed
        without copying the record.
        """
        if self.reg is None:
            score = float(record.swap)
        else:
            score = regularised_swap_score(record.swap, record.size_mb, self.reg)
        birth = self.next_birth
        self.next_birth += 1
        return Individual(cell, score, record.swap, record.size_mb, record.seed, birth)

    def evaluate(self, cell: CellMatrix) -> Individual:
        return self.individual(cell, self.score(cell))

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
        sample_size = min(cfg.tournament_size, len(self.population))
        idx = self.rng.choice(len(self.population), size=sample_size, replace=False)
        candidates = sorted(
            (self.population[i] for i in idx),
            key=lambda ind: (-ind.score, ind.cell.encode()),
        )
        parent = candidates[0].cell
        if len(candidates) >= 2 and self.rng.random() < cfg.crossover_prob:
            child_a, child_b = crossover(candidates[0].cell, candidates[1].cell, self.rng)
            ind_a = self.evaluate(child_a)
            ind_b = self.evaluate(child_b)
            winner = min((ind_a, ind_b), key=lambda ind: (-ind.score, ind.cell.encode()))
            parent = winner.cell
        children = [self.evaluate(self._mutate(parent)) for _ in range(cfg.mutation_times)]
        best_child = min(children, key=lambda ind: (-ind.score, ind.cell.encode()))
        self.population.append(best_child)
        worst = min(self.population, key=lambda ind: (ind.score, ind.birth))
        self.population.remove(worst)
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
    from per-key JSON in sorted-key order: the config's JSON is encoded once
    per run, each member's and each trace entry's once per run, and only the
    counters, the bell and the generator state per call.

    The line is appended to the descriptor ``state`` keeps open.  The first
    save of a state (which drops a resumed file's torn tail), a save to
    another path and a save that finds ``CHECKPOINT_LINES`` lines write a
    new one-line file with :func:`replace_file` instead and keep it open.
    A failed append closes the descriptor, so nothing is appended after a
    torn line.
    """
    state.trace_json += [_encode(score) for score in state.trace[len(state.trace_json):]]
    pieces = {
        "config": state.config_json,
        "cycle": _encode(state.cycle),
        "evaluations": _encode(state.evaluations),
        "next_birth": _encode(state.next_birth),
        "population": "[" + ", ".join(ind.checkpoint_json for ind in state.population) + "]",
        "reg": _encode(None if state.reg is None else vars(state.reg)),
        "rng_state": _encode(state.rng.bit_generator.state),
        "trace": "[" + ", ".join(state.trace_json) + "]",
    }
    # Every key is a plain identifier, so its JSON is the key in quotes.
    body = "{" + ", ".join(f'"{key}": {pieces[key]}' for key in sorted(pieces)) + "}"
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


def _check_every(checkpoint_every: int) -> None:
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be at least 1, got {checkpoint_every}")


def _drive(state: _SearchState, checkpoint_path, checkpoint_every, on_cycle) -> SearchResult:
    while state.cycle < state.cfg.cycles:
        state.run_cycle()
        if checkpoint_path and (
            state.cycle % checkpoint_every == 0 or state.cycle == state.cfg.cycles
        ):
            save_checkpoint(checkpoint_path, state)
        if on_cycle is not None:
            on_cycle(state.cycle, tuple(state.population), state.best())
    return state.result()


def run_search(
    cfg: SearchConfig,
    *,
    checkpoint_path=None,
    checkpoint_every: int = 1,
    on_cycle=None,
) -> SearchResult:
    """Run the full search loop; identical config and seed give identical results."""
    _check_every(checkpoint_every)
    state = _SearchState(cfg)
    try:
        state.initialise()
        if checkpoint_path:
            save_checkpoint(checkpoint_path, state)
        return _drive(state, checkpoint_path, checkpoint_every, on_cycle)
    finally:
        state.close_checkpoint()


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
    _check_every(checkpoint_every)
    state = load_checkpoint(checkpoint_path)
    try:
        return _drive(state, checkpoint_path, checkpoint_every, on_cycle)
    finally:
        state.close_checkpoint()
