"""Command-line front end binding the library into reproducible runs.

Every command takes an explicit seed and never reads wall-clock time or
environment entropy, so reruns with the same arguments produce identical
output files.  Files are written atomically.  Exit codes: 0 success,
1 validation error (bad flags, malformed or missing inputs), 2 runtime
error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from .cells import AssemblyConfig, parse_key_values, random_cell, read_cell_file
from .evaluation import (
    atomic_write_text,
    correlation_report,
    input_dim_ablation,
    load_accuracy_table,
    mu_sigma_sweep,
    read_score_records,
    score_table,
    size_histogram,
    write_plot_data,
    write_report_csv,
    write_score_records,
)
from .evolution import SearchConfig, _drive, _SearchState, config_differences, load_checkpoint
from .metric import RegularisationParams
from .scoring import DEFAULT_BATCH, cell_seed, run_batch, score_and_capture

# Every validation error of the library, and UsageError below, is a ValueError.
_VALIDATION_ERRORS = (FileNotFoundError, IsADirectoryError, ValueError)


class UsageError(ValueError):
    pass


def _noting_given(action: type[argparse.Action]) -> type[argparse.Action]:
    """``action`` that also adds its dest to ``namespace.given``."""

    class NotingGiven(action):
        def __call__(self, parser, namespace, values, option_string=None):
            super().__call__(parser, namespace, values, option_string)
            namespace.given = namespace.given | {self.dest}

    return NotingGiven


class _Parser(argparse.ArgumentParser):
    """Parser whose ``args.given`` holds the dest of every option on the command line.

    An option given at its default value still counts as given.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.set_defaults(given=frozenset())
        for name in (None, "store", "store_true", "store_false"):
            self.register("action", name, _noting_given(self._registry_get("action", name)))

    def error(self, message):  # exit code 1 instead of argparse's default 2
        raise UsageError(message)


def _fmt(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_indices(text: str) -> tuple[int, ...]:
    return tuple(int(r) for r in text.split(",") if r.strip() != "")


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "yes", "1"):
        return True
    if text.lower() in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_reg(text: str):
    if text.lower() == "auto":
        return "auto"
    if text.lower() in ("none", "off"):
        return None
    raise ValueError(f"expected auto or none, got {text!r}")


# Config-file parser of each field, keyed by field name; a key missing from
# the file takes the dataclass default.
_ASSEMBLY_FIELDS = {
    "depth": int,
    "stem_channels": int,
    "reductions": _parse_indices,
    "head": _parse_bool,
    "head_units": int,
    "standardise": _parse_bool,
}
_SEARCH_FIELDS = {
    "population": int,
    "cycles": int,
    "tournament": int,
    "mutation_times": int,
    "crossover_prob": float,
    "reg": _parse_reg,
    "seed": int,
    "batch": str,
    "nodes": int,
}
# Explicit bell parameters; together they override ``reg``.
_REG_FIELDS = {"mu": float, "sigma": float}
_OUTPUT_KEYS = {
    "out_cell": str,
    "out_trace": str,
    "out_summary": str,
    "checkpoint": str,
    "checkpoint_every": int,
    "resume": _parse_bool,
}
_SEARCH_KEYS = {*_ASSEMBLY_FIELDS, *_SEARCH_FIELDS, *_REG_FIELDS, *_OUTPUT_KEYS}
# The output keys that name a file the search writes.
_OUTPUT_PATHS = ("out_cell", "out_trace", "out_summary", "checkpoint")
# The flags, by dest, that name a file a command writes.
_OUTPUT_FLAGS = {"out": "--out", "plot": "--plot", "save_scores": "--save-scores"}


def _add_assembly_flags(p: argparse.ArgumentParser) -> list[argparse.Action]:
    """One flag per ``AssemblyConfig`` field, defaulting to the field's default.

    ``standardise`` is the exception: its flag is the scoring flag ``--no-standardise``.
    """
    defaults = AssemblyConfig
    return [
        p.add_argument("--depth", type=int, default=defaults.depth, help="number of stacked cell copies"),
        p.add_argument("--stem-channels", type=int, default=defaults.stem_channels, help="channels after the stem conv"),
        p.add_argument(
            "--reductions", type=_parse_indices, default=defaults.reductions,
            help="comma-separated cell indices preceded by a stride-2 reduction",
        ),
        p.add_argument("--head", action="store_true", default=defaults.head, help="append a global-pool + linear head"),
        p.add_argument("--head-units", type=int, default=defaults.head_units, help="output units of the head"),
    ]


def _assembly_from_args(args) -> AssemblyConfig:
    if not args.head and "head_units" in args.given:
        raise UsageError("--head-units has no effect without --head")
    return AssemblyConfig(**{name: getattr(args, name) for name in _ASSEMBLY_FIELDS})


_SCORING_FLAGS = {
    "--batch": dict(default=DEFAULT_BATCH, help="batch spec: gauss:SxCxWxH or a tensor file path"),
    "--seed": dict(type=int, default=0, help="global random seed"),
    "--mu": dict(type=float, default=None, help="regularisation centre (model size)"),
    "--sigma": dict(type=float, default=None, help="regularisation width"),
    "--no-standardise": dict(
        action="store_false", dest="standardise", help="disable per-channel pre-activation standardisation"
    ),
    "--threads": dict(type=int, default=1, help="worker cap for per-architecture scoring"),
}


def _add_scoring_flags(p: argparse.ArgumentParser, *flags: str) -> list[argparse.Action]:
    """Add the named scoring flags (in ``_SCORING_FLAGS`` order) and the assembly flags."""
    added = [p.add_argument(flag, **kwargs) for flag, kwargs in _SCORING_FLAGS.items() if flag in flags]
    return added + _add_assembly_flags(p)


def _set_replaced_defaults(p: argparse.ArgumentParser, *actions: argparse.Action) -> None:
    """Keep in ``args.replaced`` the flag of each option an input option makes moot.

    When that input option is given, none of these options may be given
    (see ``_reject_replaced``).
    """
    p.set_defaults(replaced={a.dest: a.option_strings[0] for a in actions})


def _reject_replaced(args, source: str) -> None:
    for dest, flag in args.replaced.items():
        if dest in args.given:
            raise UsageError(f"{flag} has no effect with {source}")


def _check_output_paths(outputs: dict) -> None:
    """Refuse an output path, keyed by the flag or key that gave it, that cannot be a file.

    Commands call this before any cell is scored, so a typo costs no compute.
    """
    for name, path in outputs.items():
        if path and os.path.isdir(path):
            raise UsageError(f"{name}: {path} is a directory")
        if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise UsageError(f"{name}: directory of {path} does not exist")


def _reg_from_args(args):
    if (args.mu is None) != (args.sigma is None):
        raise UsageError("--mu and --sigma must be given together")
    if args.mu is not None:
        return RegularisationParams(mu=args.mu, sigma=args.sigma)
    return None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="swapnas", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command", parser_class=_Parser)

    p = sub.add_parser("score", help="score one cell on one batch")
    p.add_argument("--cell", required=True, help="cell file to score")
    p.add_argument("--out", default=None, help="also write the record as a score CSV")
    _add_scoring_flags(p, "--batch", "--seed", "--mu", "--sigma", "--no-standardise")

    p = sub.add_parser("search", help="run the evolutionary search")
    p.add_argument("--config", required=True, help="key=value search configuration file")

    p = sub.add_parser("correlate", help="correlate scores with ground-truth accuracies")
    p.add_argument("--truth", required=True, help="accuracy table CSV")
    p.add_argument("--scores", default=None, help="precomputed score CSV; omit to score the table's cells")
    seeds = p.add_argument("--seeds", type=int, default=5, help="seed groups when scoring the table directly")
    save = p.add_argument("--save-scores", default=None, help="write freshly computed scores to this CSV")
    p.add_argument("--out", default=None, help="write the per-seed report as CSV")
    p.add_argument("--plot", default=None, help="write (series,x,y) plot data")
    scoring = _add_scoring_flags(p, "--batch", "--mu", "--sigma", "--no-standardise", "--threads")
    _set_replaced_defaults(p, seeds, save, *scoring)

    p = sub.add_parser("sweep", help="sweep regularisation parameters on a grid")
    p.add_argument("--truth", required=True, help="accuracy table CSV")
    p.add_argument("--scores", default=None, help="precomputed score CSV; omit to score the table's cells")
    p.add_argument("--grid", required=True, help="grid points MU:SIGMA[,MU:SIGMA...]")
    seeds = p.add_argument("--seeds", type=int, default=1, help="seed groups when scoring the table directly")
    p.add_argument("--out", default=None, help="write the sweep as CSV")
    p.add_argument("--plot", default=None, help="write (series,x,y) plot data")
    scoring = _add_scoring_flags(p, "--batch", "--no-standardise", "--threads")
    _set_replaced_defaults(p, seeds, *scoring)

    p = sub.add_parser("ablate-dims", help="compare metrics across input dimensionalities")
    p.add_argument("--dims", required=True, help="input dims CxWxH[,CxWxH...]")
    cells = p.add_argument("--cells", type=int, default=100, help="number of random cells when no table is given")
    nodes = p.add_argument("--nodes", type=int, default=4, help="cell node count for random cells")
    p.add_argument("--batch-size", type=int, default=32, help="samples per synthetic batch")
    p.add_argument("--truth", default=None, help="accuracy table; its cells replace random ones")
    p.add_argument("--out", default=None, help="write rows as CSV")
    p.add_argument("--plot", default=None, help="write (series,x,y) plot data")
    _add_scoring_flags(p, "--seed", "--mu", "--sigma", "--no-standardise")
    _set_replaced_defaults(p, cells, nodes)

    p = sub.add_parser("histogram", help="histogram of model sizes")
    p.add_argument("--truth", default=None, help="accuracy table with a size_mb column")
    p.add_argument("--scores", default=None, help="score CSV providing size_mb values")
    p.add_argument("--bins", type=int, default=10, help="number of equal-width bins")
    p.add_argument("--out", default=None, help="write bins as CSV")
    p.add_argument("--plot", default=None, help="write (series,x,y) plot data")
    return parser


def _cmd_score(args) -> int:
    cell = read_cell_file(args.cell)
    batch = run_batch(args.batch, args.seed)
    # Flag errors are raised before the cell is scored.
    assembly, reg = _assembly_from_args(args), _reg_from_args(args)
    record, capture = score_and_capture(cell, assembly, batch, cell_seed(args.seed, cell))
    record = record.regularised(reg)
    print(f"swap_score={record.swap}")
    print(f"reg_swap_score={_fmt(record.reg_swap)}")
    print(f"theta_mb={_fmt(record.size_mb)}")
    print(f"flops={record.flops}")
    print(f"n_values={capture.n_values}")
    if args.out:
        write_score_records(args.out, [replace(record, arch_id="cell", seed=args.seed, batch=args.batch)])
    return 0


def _parse_config_file(path) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse_key_values(text)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _parse_keys(values: dict[str, str], parsers: dict) -> dict:
    """Parse the keys of ``parsers`` that the config file sets."""
    parsed = {}
    for key, parse in parsers.items():
        if key in values:
            try:
                parsed[key] = parse(values[key])
            except ValueError as exc:
                raise UsageError(f"config key {key}: {exc}") from None
    return parsed


def _search_config(values: dict[str, str]) -> tuple[SearchConfig, dict]:
    unknown = set(values) - _SEARCH_KEYS
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    search = _parse_keys(values, _SEARCH_FIELDS)
    bell = _parse_keys(values, _REG_FIELDS)
    if bell:
        if len(bell) != len(_REG_FIELDS):
            raise UsageError("config must set mu and sigma together")
        if "reg" in search:
            raise UsageError("config key reg has no effect with mu and sigma")
        search["reg"] = RegularisationParams(**bell)
    assembly = AssemblyConfig(**_parse_keys(values, _ASSEMBLY_FIELDS))
    if "head_units" in values and not assembly.head:
        raise UsageError("config key head_units has no effect without head")
    outputs = _parse_keys(values, _OUTPUT_KEYS)
    for key in ("checkpoint_every", "resume"):
        if key in outputs and not outputs.get("checkpoint"):
            raise UsageError(f"config key {key} has no effect without checkpoint")
    return SearchConfig(**search, assembly=assembly), outputs


def _cmd_search(args) -> int:
    cfg, outputs = _search_config(_parse_config_file(args.config))
    _check_output_paths({f"config key {key}": outputs.get(key) for key in _OUTPUT_PATHS})

    def log_cycle(cycle, population, best):
        print(f"cycle {cycle}: best={_fmt(best.score)} size_mb={_fmt(best.size_mb)}")

    checkpoint = outputs.get("checkpoint")
    if outputs.get("resume") and checkpoint and os.path.exists(checkpoint):
        state = load_checkpoint(checkpoint)
        differing = config_differences(state.cfg, cfg)
        if differing:
            raise UsageError(
                f"{args.config} differs from checkpoint {checkpoint} in: {', '.join(differing)}"
            )
    else:
        state = _SearchState(cfg)
    result = _drive(state, checkpoint, outputs.get("checkpoint_every", 1), log_cycle)
    reg = result.reg
    summary = {
        "best_score": _fmt(result.best.score),
        "best_swap": result.best.swap,
        "best_size_mb": _fmt(result.best.size_mb),
        "best_seed": result.best.seed,
        "evaluations": result.evaluations,
        "cycles": len(result.trace) - 1,
        "mu": _fmt(None if reg is None else reg.mu),
        "sigma": _fmt(None if reg is None else reg.sigma),
    }
    for key in ("best_score", "best_swap", "best_size_mb", "evaluations"):
        print(f"{key}={summary[key]}")
    if outputs.get("out_cell"):
        atomic_write_text(outputs["out_cell"], result.best.cell.encode())
    if outputs.get("out_trace"):
        rows = [{"cycle": i, "best_score": s} for i, s in enumerate(result.trace)]
        write_report_csv(outputs["out_trace"], rows)
    if outputs.get("out_summary"):
        atomic_write_text(outputs["out_summary"], "".join(f"{k}={v}\n" for k, v in summary.items()))
    return 0


def _records_for(args, table, reg) -> list:
    if args.scores:
        _reject_replaced(args, "--scores")
        return read_score_records(args.scores)
    records = score_table(
        table,
        _assembly_from_args(args),
        args.batch,
        n_seeds=args.seeds,
        reg=reg,
        n_workers=args.threads,
    )
    if getattr(args, "save_scores", None):
        write_score_records(args.save_scores, records)
    return records


def _cmd_correlate(args) -> int:
    table = load_accuracy_table(args.truth)
    records = _records_for(args, table, _reg_from_args(args) or "auto")
    report = correlation_report(records, table)
    for metric in ("swap", "reg_swap"):
        print(f"{metric}_rho={_fmt(report.mean[metric])}")
    print(f"theta_rho={_fmt(report.mean['size_mb'])}")
    print(f"flops_rho={_fmt(report.mean['flops'])}")
    print(f"n_matched={report.n_matched}")
    rows = [{"seed": seed, **rhos} for seed, rhos in report.per_seed]
    rows.append({"seed": "mean", **report.mean})
    if args.out:
        write_report_csv(args.out, rows)
    if args.plot:
        series = {
            metric: [(float(seed), rhos[metric]) for seed, rhos in report.per_seed if rhos[metric] is not None]
            for metric in report.mean
        }
        write_plot_data(args.plot, series)
    return 0


def _parse_grid(text: str) -> list[RegularisationParams]:
    grid = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise UsageError(f"grid point {part!r} must be MU:SIGMA")
        mu, _, sigma = part.partition(":")
        try:
            grid.append(RegularisationParams(float(mu), float(sigma)))
        except ValueError as exc:
            raise UsageError(f"grid point {part!r}: {exc}") from None
    if not grid:
        raise UsageError("empty grid")
    return grid


def _cmd_sweep(args) -> int:
    grid = _parse_grid(args.grid)
    table = load_accuracy_table(args.truth)
    records = _records_for(args, table, None)
    points = mu_sigma_sweep(records, table, [(p.mu, p.sigma) for p in grid])
    rows = []
    for pt in points:
        print(f"mu={_fmt(pt.mu)} sigma={_fmt(pt.sigma)} rho={_fmt(pt.rho)}")
        rows.append({"mu": pt.mu, "sigma": pt.sigma, "rho": pt.rho, "n_matched": pt.n_matched})
    if args.out:
        write_report_csv(args.out, rows)
    if args.plot:
        pts = [(pt.mu, pt.rho) for pt in points if pt.mu is not None and pt.rho is not None]
        write_plot_data(args.plot, {"rho_vs_mu": pts})
    return 0


def _parse_dims(text: str) -> list[tuple[int, int, int]]:
    dims = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            dims.append(tuple(int(b) for b in part.split("x")))
        except ValueError:
            raise UsageError(f"dims {part!r} must be CxWxH with integer C, W and H") from None
        if len(dims[-1]) != 3:
            raise UsageError(f"dims {part!r} must be CxWxH")
        if min(dims[-1]) < 1:
            raise UsageError(f"dims {part!r} must be at least 1 on every axis")
    if not dims:
        raise UsageError("empty dims list")
    return dims


def _cmd_ablate_dims(args) -> int:
    dims = _parse_dims(args.dims)
    accuracies = None
    if args.truth:
        _reject_replaced(args, "--truth")
        table = load_accuracy_table(args.truth)
        cells = [e.cell for e in table.entries]
        accuracies = [e.accuracy for e in table.entries]
    else:
        if args.seed < 0:
            raise UsageError(f"--seed must be non-negative when drawing random cells, got {args.seed}")
        rng = np.random.default_rng(args.seed)
        cells = [random_cell(args.nodes, rng) for _ in range(args.cells)]
    rows = input_dim_ablation(
        cells,
        dims,
        args.batch_size,
        assembly=_assembly_from_args(args),
        seed=args.seed,
        reg=_reg_from_args(args) or "auto",
        accuracies=accuracies,
    )
    csv_rows = []
    for row in rows:
        label = "x".join(str(d) for d in row.dims)
        print(
            f"dims={label} standard={_fmt(row.standard_mean)}+-{_fmt(row.standard_std)} "
            f"swap={_fmt(row.swap_mean)}+-{_fmt(row.swap_std)} "
            f"reg_swap={_fmt(row.reg_swap_mean)}+-{_fmt(row.reg_swap_std)}"
        )
        # The CSV columns are the AblationRow fields in order, dims written as CxWxH.
        csv_rows.append(asdict(row) | {"dims": label})
    if args.out:
        write_report_csv(args.out, csv_rows)
    if args.plot:
        xs = [float(r.dims[1] * r.dims[2]) for r in rows]
        means = ("standard_mean", "swap_mean", "reg_swap_mean")
        write_plot_data(args.plot, {m: [(x, getattr(r, m)) for x, r in zip(xs, rows)] for m in means})
    return 0


def _cmd_histogram(args) -> int:
    if bool(args.truth) == bool(args.scores):
        raise UsageError("give exactly one of --truth or --scores")
    if args.truth:
        table = load_accuracy_table(args.truth)
        sizes = [e.size_mb for e in table.entries]
        if any(s is None for s in sizes):
            raise UsageError(f"{args.truth} lacks size_mb values needed for a histogram")
    else:
        sizes = [r.size_mb for r in read_score_records(args.scores)]
    hist = size_histogram(sizes, args.bins)
    rows = []
    for i, count in enumerate(hist.counts):
        lo, hi = hist.edges[i], hist.edges[i + 1]
        print(f"bin={_fmt(lo)}:{_fmt(hi)} count={count}")
        rows.append({"bin_low": lo, "bin_high": hi, "count": count})
    if args.out:
        write_report_csv(args.out, rows)
    if args.plot:
        centres = [(hist.edges[i] + hist.edges[i + 1]) / 2.0 for i in range(len(hist.counts))]
        write_plot_data(args.plot, {"size_histogram": list(zip(centres, map(float, hist.counts)))})
    return 0


_COMMANDS = {
    "score": _cmd_score,
    "search": _cmd_search,
    "correlate": _cmd_correlate,
    "sweep": _cmd_sweep,
    "ablate-dims": _cmd_ablate_dims,
    "histogram": _cmd_histogram,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_output_paths({flag: getattr(args, dest, None) for dest, flag in _OUTPUT_FLAGS.items()})
        return _COMMANDS[args.command](args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures (overflow, io races, bugs)
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
