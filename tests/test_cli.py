"""End-to-end tests of the command-line surface."""

import argparse
import json
import runpy
import sys
import warnings
import zlib
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapnas.cells import AssemblyConfig, CellMatrix, random_cell
from swapnas import cli, evaluation, evolution
from swapnas.cli import main
from swapnas.evaluation import load_accuracy_table, read_score_records, write_score_records
from swapnas.evolution import SearchConfig, run_search
from swapnas.metric import RegularisationParams, ScoreRecord

GOLDEN = Path(__file__).parent / "golden"

CELL = CellMatrix([[0, 1, 4, 2], [0, 0, 3, 0], [0, 0, 0, 1], [0, 0, 0, 0]])


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_kv(text):
    pairs = {}
    for line in text.strip().splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            pairs[key] = value
    return pairs


@pytest.fixture
def score_calls(monkeypatch):
    """The cell of every ``score_cell``/``score_and_capture`` call any command makes."""
    calls = []
    for module, name in [
        (cli, "score_and_capture"), (evaluation, "score_and_capture"),
        (evaluation, "score_cell"), (evolution, "score_cell"),
    ]:
        def counted(cell, *args, _original=getattr(module, name), **kwargs):
            calls.append(cell)
            return _original(cell, *args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def cell_file(tmp_path):
    path = tmp_path / "cell.cell"
    path.write_text(CELL.encode())
    return str(path)


@pytest.fixture
def truth_file(tmp_path):
    # Three architectures whose accuracy order will match any fixed metric order.
    cells = [
        CellMatrix([[0, 4, 0, 0], [0, 0, 4, 0], [0, 0, 0, 4], [0, 0, 0, 0]]),
        CellMatrix([[0, 2, 0, 0], [0, 0, 4, 0], [0, 0, 0, 2], [0, 0, 0, 0]]),
        CELL,
    ]
    accs = [0.2, 0.5, 0.9]
    rows = ["arch_id,cell,accuracy"]
    for i, (cell, acc) in enumerate(zip(cells, accs)):
        rows.append(f"a{i},{cell.encode().strip().replace(chr(10), ';')},{acc}")
    path = tmp_path / "truth.csv"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def write_table(path, sizes=None):
    """Six-architecture accuracy table; ``sizes`` adds a size_mb column ('' leaves one blank)."""
    rows = ["arch_id,cell,accuracy" + ("" if sizes is None else ",size_mb")]
    for i in range(6):
        cell = random_cell(4, i).encode().strip().replace("\n", ";")
        row = f"t{i},{cell},{0.1 + 0.13 * ((5 * i) % 6)}"
        rows.append(row if sizes is None else f"{row},{sizes[i]}")
    Path(path).write_text("\n".join(rows) + "\n")
    return str(path)


# Reported sizes of the sized table; the blank one falls back to the scored size.
TABLE_SIZES = ("0.0012", "0.0031", "", "0.0025", "0.0018", "0.0007")
TABLE_FLAGS = ("--seeds", "2", "--batch", "gauss:8x3x6x6", "--depth", "1", "--stem-channels", "4")
BELL_FLAGS = ("--mu", "0.0015", "--sigma", "0.000002")


class TestScore:
    def test_prints_key_value_lines(self, capsys, cell_file):
        code, out, _ = run(
            capsys, "score", "--cell", cell_file, "--seed", "7",
            "--batch", "gauss:8x3x8x8", "--depth", "1", "--stem-channels", "4",
        )
        assert code == 0
        pairs = parse_kv(out)
        assert set(pairs) == {"swap_score", "reg_swap_score", "theta_mb", "flops", "n_values"}
        assert int(pairs["swap_score"]) >= 1
        assert int(pairs["n_values"]) == 4 * 64 + 2 * (4 * 64) + 4 * 64
        # without regularisation parameters the regularised score is the raw one
        assert float(pairs["reg_swap_score"]) == float(pairs["swap_score"])

    def test_regularisation_flags(self, capsys, cell_file):
        code, out, _ = run(
            capsys, "score", "--cell", cell_file, "--batch", "gauss:4x3x6x6",
            "--depth", "1", "--stem-channels", "4", "--mu", "0.001", "--sigma", "0.5",
        )
        assert code == 0
        pairs = parse_kv(out)
        assert float(pairs["reg_swap_score"]) < float(pairs["swap_score"])

    def test_deterministic_output(self, capsys, cell_file):
        args = ("score", "--cell", cell_file, "--batch", "gauss:4x3x6x6", "--seed", "3")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_out_file_written(self, capsys, cell_file, tmp_path):
        out_csv = tmp_path / "score.csv"
        code, _, _ = run(
            capsys, "score", "--cell", cell_file, "--batch", "gauss:4x3x6x6",
            "--out", str(out_csv),
        )
        assert code == 0
        (record,) = read_score_records(out_csv)
        assert record.swap >= 1

    def test_missing_cell_file_is_validation_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "score", "--cell", str(tmp_path / "nope.cell"))
        assert code == 1
        assert "error" in err

    def test_tensor_header_dims_below_one_rejected(self, capsys, cell_file, tmp_path):
        batch = tmp_path / "odd.tensor"
        batch.write_bytes(b"SWAPTENSOR v1 -2 -3 4 4\n" + b"\x00" * 384)
        code, out, err = run(capsys, "score", "--cell", cell_file, "--batch", str(batch))
        assert code == 1
        assert err == "error: tensor header dims must be positive: 'SWAPTENSOR v1 -2 -3 4 4'\n"
        assert out == ""

    def test_negative_seed_scores(self, capsys, cell_file):
        code, out, _ = run(capsys, "score", "--cell", cell_file, "--batch", "gauss:4x3x6x6", "--seed", "-1")
        assert code == 0
        assert int(parse_kv(out)["swap_score"]) >= 1

    def test_head_units_without_head_rejected(self, capsys, cell_file, score_calls):
        code, out, err = run(capsys, "score", "--cell", cell_file, "--head-units", "-5")
        assert code == 1
        assert err == "error: --head-units has no effect without --head\n"
        assert out == "" and score_calls == []

    def test_head_units_at_its_default_without_head_rejected(self, capsys, cell_file, score_calls):
        # A flag is moot when given, whatever its value.
        code, out, err = run(capsys, "score", "--cell", cell_file, "--head-units", "10")
        assert code == 1
        assert err == "error: --head-units has no effect without --head\n"
        assert out == "" and score_calls == []

    def test_mu_without_sigma_rejected(self, capsys, cell_file):
        code, _, err = run(capsys, "score", "--cell", cell_file, "--mu", "1.0")
        assert code == 1
        assert "together" in err


def checkpoint_line(body: str) -> str:
    """A checkpoint line holding ``body`` under its valid checksum."""
    return f"{zlib.crc32(body.encode('ascii')):08x} {body}\n"


def last_body(path) -> str:
    """The body of a checkpoint file's last line."""
    return path.read_text().rstrip("\n").rsplit("\n", 1)[1].split(" ", 1)[1]


def edit_body(**changes):
    """A checkpoint-body rewrite setting top-level keys."""
    return lambda body: json.dumps({**json.loads(body), **changes}, sort_keys=True)


def edit_individual(**changes):
    """A checkpoint-body rewrite setting keys of the fourth individual."""

    def edit(body):
        data = json.loads(body)
        data["population"][3].update(changes)
        return json.dumps(data, sort_keys=True)

    return edit


class TestSearchCommand:
    BASE = {
        "population": 6, "cycles": 4, "mutation_times": 2, "seed": 11,
        "batch": "gauss:4x3x6x6", "nodes": 4, "depth": 1, "stem_channels": 4,
    }

    def write_config(self, tmp_path, **extra):
        """A config of ``BASE`` with ``extra`` merged over it; a key is set once."""
        path = tmp_path / "search.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in {**self.BASE, **extra}.items()))
        return str(path)

    def test_run_twice_produces_byte_identical_files(self, capsys, tmp_path):
        outputs = {
            "out_cell": tmp_path / "best.cell",
            "out_trace": tmp_path / "trace.csv",
            "out_summary": tmp_path / "summary.txt",
        }
        cfg = self.write_config(tmp_path, **{k: str(v) for k, v in outputs.items()})
        assert main(["search", "--config", cfg]) == 0
        capsys.readouterr()
        first = {k: v.read_bytes() for k, v in outputs.items()}
        assert main(["search", "--config", cfg]) == 0
        capsys.readouterr()
        second = {k: v.read_bytes() for k, v in outputs.items()}
        assert first == second

    def test_prints_cycle_lines_and_summary(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path)
        code, out, _ = run(capsys, "search", "--config", cfg)
        assert code == 0
        assert out.count("cycle ") == 4
        assert "best_score=" in out

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("populaton = 6\n")
        code, _, err = run(capsys, "search", "--config", str(path))
        assert code == 1
        assert "populaton" in err

    @pytest.mark.parametrize(
        "key, extra",
        [
            ("population", {"population": "many"}),
            ("mu", {"mu": "x", "sigma": "1"}),
            ("sigma", {"mu": "1", "sigma": "x"}),
            ("head", {"head": "maybe"}),
            ("reg", {"reg": "sometimes"}),
        ],
    )
    def test_bad_config_value_names_its_key(self, capsys, tmp_path, key, extra):
        code, _, err = run(capsys, "search", "--config", self.write_config(tmp_path, **extra))
        assert code == 1
        assert f"config key {key}: " in err

    def test_negative_seed_rejected(self, capsys, tmp_path):
        code, out, err = run(capsys, "search", "--config", self.write_config(tmp_path, seed=-1))
        assert code == 1
        assert err == "error: seed must be non-negative, got -1\n"
        assert out == ""

    def test_checkpoint_every_below_one_rejected(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, checkpoint_every=-3)
        code, out, err = run(capsys, "search", "--config", cfg)
        assert code == 1
        assert "checkpoint_every" in err
        assert out == ""

    @pytest.mark.parametrize("key, value", [("checkpoint_every", "5"), ("resume", "true")])
    def test_checkpoint_option_without_checkpoint_rejected(self, capsys, tmp_path, key, value):
        summary = tmp_path / "summary.txt"
        cfg = self.write_config(tmp_path, out_summary=str(summary), **{key: value})
        code, out, err = run(capsys, "search", "--config", cfg)
        assert code == 1
        assert f"config key {key} has no effect without checkpoint" in err
        assert out == ""
        assert not summary.exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"reg": "none", "mu": "1", "sigma": "1"}, "config key reg has no effect with mu and sigma"),
            ({"reg": "auto", "mu": "1", "sigma": "1"}, "config key reg has no effect with mu and sigma"),
            ({"head_units": "5"}, "config key head_units has no effect without head"),
            ({"head": "false", "head_units": "10"}, "config key head_units has no effect without head"),
            ({"mu": "1"}, "config must set mu and sigma together"),
        ],
        ids=["reg-none", "reg-auto", "head-units", "head-units-default", "mu-alone"],
    )
    def test_key_combination_rejected(self, capsys, tmp_path, score_calls, extra, message):
        code, out, err = run(capsys, "search", "--config", self.write_config(tmp_path, **extra))
        assert code == 1
        assert err == f"error: {message}\n"
        assert out == "" and score_calls == []

    def test_head_units_with_head_accepted(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, cycles=1, head="true", head_units="5")
        assert run(capsys, "search", "--config", cfg)[0] == 0

    def test_repeated_key_names_both_lines(self, capsys, tmp_path, score_calls):
        path = tmp_path / "search.cfg"
        path.write_text("population = 4\n# comment\ncycles = 2\npopulation = 6\n")
        code, out, err = run(capsys, "search", "--config", str(path))
        assert code == 1
        assert err == f"error: {path}: line 4: duplicate key 'population' (first seen on line 1)\n"
        assert out == "" and score_calls == []

    def test_line_without_equals_names_the_line(self, capsys, tmp_path):
        path = tmp_path / "search.cfg"
        path.write_text("population = 4\ncycles 2\n")
        code, _, err = run(capsys, "search", "--config", str(path))
        assert code == 1
        assert err == f"error: {path}: line 2: expected key = value, got 'cycles 2'\n"

    def test_resume_from_checkpoint(self, capsys, tmp_path):
        ckpt = tmp_path / "search.ckpt"
        cell_out = tmp_path / "best.cell"
        cfg = self.write_config(
            tmp_path, checkpoint=str(ckpt), resume="true", out_cell=str(cell_out)
        )
        assert main(["search", "--config", cfg]) == 0
        capsys.readouterr()
        first = cell_out.read_bytes()
        # resume=true with a finished checkpoint re-emits the same result
        assert main(["search", "--config", cfg]) == 0
        capsys.readouterr()
        assert cell_out.read_bytes() == first


    def test_resume_rejects_a_config_that_differs_from_the_checkpoint(self, capsys, tmp_path):
        ckpt = tmp_path / "search.ckpt"
        summary = tmp_path / "summary.txt"
        base = dict(checkpoint=str(ckpt), resume="true", out_summary=str(summary))
        cfg = self.write_config(tmp_path, **base)
        assert main(["search", "--config", cfg]) == 0
        capsys.readouterr()
        before = summary.read_bytes()
        changed = self.write_config(tmp_path, **base, cycles=50, population=9)
        code, _, err = run(capsys, "search", "--config", changed)
        assert code == 1
        assert "cycles" in err and "population" in err
        assert "mutation_times" not in err
        assert summary.read_bytes() == before

    def test_resume_rejects_a_config_that_differs_only_in_standardise(self, capsys, tmp_path):
        base = dict(checkpoint=str(tmp_path / "search.ckpt"), resume="true")
        assert main(["search", "--config", self.write_config(tmp_path, **base)]) == 0
        capsys.readouterr()
        changed = self.write_config(tmp_path, **base, standardise="false")
        code, out, err = run(capsys, "search", "--config", changed)
        assert code == 1
        assert err.endswith("differs from checkpoint " + base["checkpoint"] + " in: standardise\n")
        assert out == ""

    @pytest.mark.parametrize("version", ["SWAPCKPT 2", "SWAPCKPT 3"])
    def test_older_checkpoint_versions_rejected(self, capsys, tmp_path, version):
        ckpt = tmp_path / "search.ckpt"
        cfg = self.write_config(tmp_path, checkpoint=str(ckpt), resume="true")
        assert main(["search", "--config", cfg]) == 0
        capsys.readouterr()
        # A version 3 file holds one snapshot: the body alone after the magic line.
        ckpt.write_text(version + "\n" + last_body(ckpt) + "\n")
        code, out, err = run(capsys, "search", "--config", cfg)
        assert code == 1
        assert f"not a SWAPCKPT 4 checkpoint: '{version}'" in err
        assert out == ""

    @pytest.mark.parametrize(
        "make_body, fault",
        [
            (lambda body: "{}", "checkpoint config missing"),
            (lambda body: '{"config": {}}', "checkpoint config invalid: missing key 'reg'"),
            (lambda body: "[1,2]", "checkpoint body is not a JSON object"),
            (lambda body: "not json", "checkpoint body is not JSON: Expecting value"),
            (
                edit_individual(cell="nodes = 4;matrix = " + " ".join(["0"] * 16)),
                "checkpoint population invalid: individual 3 has an invalid cell: "
                "source node 0 has no outgoing connection",
            ),
            (
                edit_individual(cell=CellMatrix(np.eye(5, k=1, dtype=int)).encode_line()),
                "checkpoint population invalid: individual 3 has an invalid cell: 5 nodes, expected 4",
            ),
            (edit_body(cycle=-1), "checkpoint cycle invalid: expected a non-negative integer, got -1"),
            (edit_body(trace=[1.0, "x"]), "checkpoint trace invalid: expected a list of numbers"),
            (edit_body(population=[]), "checkpoint population invalid: expected a list of 6 individuals"),
            (
                edit_body(population=[[]] * 6),
                "checkpoint population invalid: individual 0 is not an object with a cell string",
            ),
            (
                edit_individual(score="high"),
                "checkpoint population invalid: individual 3 score: "
                "expected a finite number >= 0, got 'high'",
            ),
            (
                edit_individual(size_mb=0.0),
                "checkpoint population invalid: individual 3 size_mb: "
                "expected a finite number > 0, got 0.0",
            ),
            (
                edit_individual(birth=1.5),
                "checkpoint population invalid: individual 3 birth: "
                "expected a non-negative integer, got 1.5",
            ),
        ],
        ids=[
            "empty", "empty-config", "list", "not-json", "invalid-cell", "node-count", "cycle", "trace",
            "population-size", "individual-not-object", "score", "size", "birth",
        ],
    )
    def test_malformed_checkpoint_names_the_file_and_the_fault(
        self, capsys, tmp_path, make_body, fault
    ):
        ckpt = tmp_path / "search.ckpt"
        cfg = self.write_config(tmp_path, checkpoint=str(ckpt), resume="true")
        assert main(["search", "--config", cfg]) == 0
        capsys.readouterr()
        ckpt.write_text("SWAPCKPT 4\n" + checkpoint_line(make_body(last_body(ckpt))))
        code, out, err = run(capsys, "search", "--config", cfg)
        assert code == 1
        assert err.startswith(f"error: {ckpt}: line 2: {fault}")
        assert out == ""

    OUTPUTS = ("out_cell", "out_trace", "out_summary")

    def interrupted_checkpoint(self, tmp_path):
        """The checkpoint of a ``BASE`` search stopped after its second cycle: lines 2-4."""
        ckpt = tmp_path / "search.ckpt"
        cfg = SearchConfig(
            population=6, cycles=4, mutation_times=2, seed=11, batch="gauss:4x3x6x6",
            nodes=4, assembly=AssemblyConfig(depth=1, stem_channels=4),
        )

        def stop(cycle, population, best):
            if cycle == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_search(cfg, checkpoint_path=str(ckpt), on_cycle=stop)
        return ckpt

    def test_resumed_summary_matches_the_uninterrupted_run(self, capsys, tmp_path):
        full = tmp_path / "full.txt"
        assert main(["search", "--config", self.write_config(tmp_path, out_summary=str(full))]) == 0
        ckpt = self.interrupted_checkpoint(tmp_path)
        resumed = tmp_path / "resumed.txt"
        resume_cfg = self.write_config(
            tmp_path, checkpoint=str(ckpt), resume="true", out_summary=str(resumed)
        )
        assert main(["search", "--config", resume_cfg]) == 0
        capsys.readouterr()
        assert "cycles=4\n" in resumed.read_text()
        assert resumed.read_bytes() == full.read_bytes()

    def test_a_resume_reads_its_checkpoint_once(self, capsys, tmp_path, monkeypatch):
        loads = []
        for module in (cli, evolution):
            def counted(path, _original=module.load_checkpoint):
                loads.append(path)
                return _original(path)

            monkeypatch.setattr(module, "load_checkpoint", counted)
        ckpt = self.interrupted_checkpoint(tmp_path)
        same = self.write_config(tmp_path, checkpoint=str(ckpt), resume="true")
        assert main(["search", "--config", same]) == 0
        capsys.readouterr()
        assert loads == [str(ckpt)]
        # A config that differs is refused after the same one read.
        loads.clear()
        changed = self.write_config(tmp_path, checkpoint=str(ckpt), resume="true", cycles=50, population=9)
        code, out, err = run(capsys, "search", "--config", changed)
        assert (code, out) == (1, "")
        assert err == f"error: {changed} differs from checkpoint {ckpt} in: cycles, population\n"
        assert loads == [str(ckpt)]

    def test_resume_skips_a_torn_tail(self, capsys, tmp_path):
        full = {key: tmp_path / f"full.{key}" for key in self.OUTPUTS}
        assert main(["search", "--config", self.write_config(tmp_path, **full)]) == 0
        ckpt = self.interrupted_checkpoint(tmp_path)
        raw = ckpt.read_bytes()
        last = raw[raw.rindex(b"\n", 0, -1) + 1:]
        ckpt.write_bytes(raw + last[: len(last) // 2])
        resumed = {key: tmp_path / f"resumed.{key}" for key in self.OUTPUTS}
        code, _, _ = run(
            capsys, "search", "--config",
            self.write_config(tmp_path, checkpoint=str(ckpt), resume="true", **resumed),
        )
        assert code == 0
        for key in self.OUTPUTS:
            assert resumed[key].read_bytes() == full[key].read_bytes()

    def test_resume_refuses_a_corrupted_middle_line(self, capsys, tmp_path):
        ckpt = self.interrupted_checkpoint(tmp_path)
        magic, first, middle, last = ckpt.read_bytes().splitlines(keepends=True)
        middle = middle.replace(b'"cycle": 1', b'"cycle": 7')
        ckpt.write_bytes(magic + first + middle + last)
        code, out, err = run(
            capsys, "search", "--config", self.write_config(tmp_path, checkpoint=str(ckpt), resume="true"),
        )
        assert code == 1
        assert err == f"error: {ckpt}: line 3: checksum does not match the checkpoint body\n"
        assert out == ""


# Required arguments of each command that scores cells; all else is left at its default.
SCORING_COMMANDS = {
    "score": ("--cell", "c.cell"),
    "correlate": ("--truth", "t.csv"),
    "sweep": ("--truth", "t.csv", "--grid", "1:1"),
    "ablate-dims": ("--dims", "3x4x4"),
}

# Config-file keys that name run outputs rather than SearchConfig fields.
OUTPUT_KEYS = {"out_cell", "out_trace", "out_summary", "checkpoint", "checkpoint_every", "resume"}


class TestConfigSingleSource:
    def test_config_keys_are_the_dataclass_fields(self):
        search = {f.name for f in fields(SearchConfig)} - {"assembly"}
        assembly = {f.name for f in fields(AssemblyConfig)}
        bell = {f.name for f in fields(RegularisationParams)}
        assert cli._SEARCH_KEYS - OUTPUT_KEYS == search | assembly | bell

    def test_empty_config_file_gives_default_config(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("# nothing set\n")
        cfg, _ = cli._search_config(cli._parse_config_file(path))
        assert cfg == SearchConfig()

    def test_flagless_score_gives_default_assembly(self):
        args = cli.build_parser().parse_args(["score", "--cell", "c.cell"])
        assert cli._assembly_from_args(args) == AssemblyConfig()
        assert args.batch == SearchConfig().batch

    @pytest.mark.parametrize("cmd", sorted(SCORING_COMMANDS))
    def test_every_assembly_field_is_an_option_dest(self, cmd):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for a in sub.choices[cmd]._actions if a.option_strings}
        assert {f.name for f in fields(AssemblyConfig)} <= dests
        args = parser.parse_args([cmd, *SCORING_COMMANDS[cmd]])
        assert cli._assembly_from_args(args) == AssemblyConfig()


class TestStandardisationReachesTheScore:
    """Switching standardisation off changes each command's output; it is never ignored."""

    @pytest.mark.parametrize("name", ["score_plain", "ablate_dims_random"])
    def test_stdout(self, capsys, cell_file, name):
        argv = [a.format(cell=cell_file) for a in OUTPUT_CASES[name]]
        code, default, _ = run(capsys, *argv)
        assert code == 0
        code, raw, _ = run(capsys, *argv, "--no-standardise")
        assert code == 0
        assert raw != default

    def test_correlate_saved_scores(self, capsys, tmp_path):
        truth = write_table(tmp_path / "truth.csv")
        saved = []
        for extra in ((), ("--no-standardise",)):
            scores = tmp_path / f"scores{len(saved)}.csv"
            code, _, _ = run(
                capsys, "correlate", "--truth", truth, *TABLE_FLAGS, *extra, "--save-scores", str(scores)
            )
            assert code == 0
            saved.append(scores.read_text())
        assert saved[0] != saved[1]

    def test_search_config(self, capsys, tmp_path):
        outputs = []
        for extra in ({}, {"standardise": "false"}):
            cfg = tmp_path / "search.cfg"
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**SEARCH_BASE, **extra}.items()))
            code, out, _ = run(capsys, "search", "--config", str(cfg))
            assert code == 0
            outputs.append(out)
        assert outputs[0] != outputs[1]


class TestCorrelate:
    def test_perfectly_ranked_fixture_gives_unit_rho(self, capsys, tmp_path, truth_file):
        # score the table once, then align accuracies to the metric by rewriting
        scores_csv = tmp_path / "scores.csv"
        code, _, _ = run(
            capsys, "correlate", "--truth", truth_file, "--seeds", "1",
            "--batch", "gauss:16x3x6x6", "--depth", "2", "--stem-channels", "4",
            "--save-scores", str(scores_csv),
        )
        assert code == 0
        records = read_score_records(scores_csv)
        table = load_accuracy_table(truth_file)
        order = sorted(range(3), key=lambda i: records[i].swap)
        accs = [0.0] * 3
        for rank, idx in enumerate(order):
            accs[idx] = 0.2 + 0.3 * rank
        rows = ["arch_id,cell,accuracy"]
        for entry, acc in zip(table.entries, accs):
            rows.append(f"{entry.arch_id},{entry.cell.encode().strip().replace(chr(10), ';')},{acc}")
        aligned = tmp_path / "aligned.csv"
        aligned.write_text("\n".join(rows) + "\n")

        code, out, _ = run(
            capsys, "correlate", "--scores", str(scores_csv), "--truth", str(aligned)
        )
        assert code == 0
        assert "swap_rho=1.0" in out.splitlines()

    def test_report_files_written(self, capsys, tmp_path, truth_file):
        out_csv = tmp_path / "report.csv"
        plot = tmp_path / "report.plot"
        code, out, _ = run(
            capsys, "correlate", "--truth", truth_file, "--seeds", "1",
            "--batch", "gauss:4x3x6x6", "--depth", "1", "--stem-channels", "4",
            "--out", str(out_csv), "--plot", str(plot),
        )
        assert code == 0
        assert out_csv.read_text().startswith("seed,")
        assert plot.read_text().startswith("series,x,y")
        assert "n_matched=3" in out


class TestSweep:
    def test_grid_rows_and_na_row(self, capsys, tmp_path, truth_file):
        out_csv = tmp_path / "sweep.csv"
        code, out, _ = run(
            capsys, "sweep", "--truth", truth_file, "--grid", "0.01:0.01,1:1",
            "--batch", "gauss:4x3x6x6", "--depth", "1", "--stem-channels", "4",
            "--out", str(out_csv),
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("mu=NA sigma=NA rho=")
        assert len([l for l in lines if l.startswith("mu=")]) == 3
        assert out_csv.read_text().count("\n") == 4  # header + 3 rows

    def test_malformed_grid_rejected(self, capsys, truth_file):
        code, _, err = run(capsys, "sweep", "--truth", truth_file, "--grid", "1,2")
        assert code == 1
        assert "MU:SIGMA" in err

    @pytest.mark.parametrize(
        "grid, message",
        [
            ("1:1,2:0", "grid point '2:0': sigma must be positive and finite"),
            ("1:1,-1:1", "grid point '-1:1': mu must be positive and finite"),
            ("1:1,a:1", "grid point 'a:1': could not convert string to float: 'a'"),
            ("1:1,2", "grid point '2' must be MU:SIGMA"),
            (" , ", "empty grid"),
        ],
        ids=["sigma", "mu", "text", "no-colon", "empty"],
    )
    def test_bad_grid_point_rejected_before_scoring(self, capsys, tmp_path, score_calls, grid, message):
        truth = write_table(tmp_path / "truth.csv")
        code, out, err = run(capsys, "sweep", "--truth", truth, *TABLE_FLAGS, "--grid", grid)
        assert code == 1
        assert err == f"error: {message}\n"
        assert out == "" and score_calls == []


class TestTableScoringErrors:
    @pytest.mark.parametrize("cmd, threads", [("correlate", "0"), ("sweep", "-3")])
    def test_threads_below_one_rejected(self, capsys, tmp_path, cmd, threads):
        truth = write_table(tmp_path / "truth.csv")
        grid = ("--grid", "1:1") if cmd == "sweep" else ()
        code, out, err = run(
            capsys, cmd, "--truth", truth, *TABLE_FLAGS, *grid, "--threads", threads
        )
        assert code == 1
        assert f"got {threads}" in err
        assert out == ""

    @pytest.mark.parametrize("cmd", [("correlate",), ("sweep", "--grid", "1:1")])
    def test_header_only_table(self, capsys, tmp_path, cmd):
        truth = tmp_path / "truth.csv"
        truth.write_text("arch_id,cell,accuracy\n")
        code, _, err = run(capsys, *cmd, "--truth", str(truth), *TABLE_FLAGS)
        assert code == 1
        assert "only 0 records match the table; need at least 2" in err

    @pytest.mark.parametrize("cmd", [("correlate",), ("sweep", "--grid", "1:1")])
    def test_nan_size_in_the_last_row_rejected(self, capsys, tmp_path, cmd):
        truth = write_table(tmp_path / "truth.csv", sizes=TABLE_SIZES[:5] + ("nan",))
        code, out, err = run(capsys, *cmd, "--truth", truth, *TABLE_FLAGS)
        assert code == 1
        assert "line 7: size_mb nan is not a positive finite number" in err
        assert out == ""

    @pytest.mark.parametrize("cmd", [("correlate",), ("sweep", "--grid", "1:1")])
    @pytest.mark.parametrize(
        "flag", [("--threads", "0"), ("--seeds", "3"), ("--no-standardise",), ("--depth", "2")]
    )
    def test_scoring_flag_with_precomputed_scores_rejected(self, capsys, tmp_path, cmd, flag):
        truth = write_table(tmp_path / "truth.csv")
        scores = tmp_path / "scores.csv"
        code, _, _ = run(capsys, "correlate", "--truth", truth, *TABLE_FLAGS, "--save-scores", str(scores))
        assert code == 0
        code, out, err = run(capsys, *cmd, "--truth", truth, "--scores", str(scores), *flag)
        assert code == 1
        assert f"{flag[0]} has no effect with --scores" in err
        assert out == ""

    @pytest.mark.parametrize(
        "cmd, flag",
        [
            (("correlate",), ("--threads", "1")),
            (("correlate",), ("--seeds", "5")),
            (("correlate",), ("--depth", "3")),
            (("sweep", "--grid", "1:1"), ("--seeds", "1")),
            (("sweep", "--grid", "1:1"), ("--batch", "gauss:32x3x32x32")),
        ],
        ids=["correlate-threads", "correlate-seeds", "correlate-depth", "sweep-seeds", "sweep-batch"],
    )
    def test_scoring_flag_at_its_default_with_precomputed_scores_rejected(self, capsys, tmp_path, cmd, flag):
        truth = write_table(tmp_path / "truth.csv")
        scores = tmp_path / "scores.csv"
        code, _, _ = run(capsys, "correlate", "--truth", truth, *TABLE_FLAGS, "--save-scores", str(scores))
        assert code == 0
        code, out, err = run(capsys, *cmd, "--truth", truth, "--scores", str(scores), *flag)
        assert code == 1
        assert err == f"error: {flag[0]} has no effect with --scores\n"
        assert out == ""

    def test_padded_score_ids_match_their_table_rows(self, capsys, tmp_path):
        truth = write_table(tmp_path / "truth.csv")
        scores = tmp_path / "scores.csv"
        code, _, _ = run(capsys, "correlate", "--truth", truth, *TABLE_FLAGS, "--save-scores", str(scores))
        assert code == 0
        code, plain, _ = run(capsys, "correlate", "--truth", truth, "--scores", str(scores))
        assert code == 0 and "n_matched=6" in plain
        padded = tmp_path / "padded.csv"
        header, *rows = scores.read_text().splitlines()
        padded.write_text("".join(f"{line}\n" for line in [header, *(f"  {r.replace(',', ' ,', 1)}" for r in rows)]))
        code, out, _ = run(capsys, "correlate", "--truth", truth, "--scores", str(padded))
        assert code == 0
        assert out == plain

    @pytest.mark.parametrize("cmd", ["correlate", "sweep", "histogram"])
    @pytest.mark.parametrize(
        "column, bad, message",
        [
            ("size_mb", "nan", "size_mb nan is not a positive finite number"),
            ("size_mb", "-inf", "size_mb -inf is not a positive finite number"),
            ("size_mb", "0", "size_mb 0.0 is not a positive finite number"),
            ("reg_swap", "inf", "reg_swap inf is not a non-negative finite number"),
            ("reg_swap", "-0.5", "reg_swap -0.5 is not a non-negative finite number"),
            ("swap", "-4", "swap -4 is not a non-negative integer"),
            ("flops", "-1", "flops -1 is not a non-negative integer"),
        ],
    )
    def test_score_file_value_rejected_with_its_line(self, capsys, tmp_path, cmd, column, bad, message):
        values = {"swap": "6", "reg_swap": "6.0", "size_mb": "0.002", "flops": "900"}
        rows = ["arch_id,seed,batch,swap,reg_swap,size_mb,flops", "t0,0,b,5,5.0,0.001,800"]
        for i in (1, 2):
            row = dict(values, **{column: bad}) if i == 2 else values
            rows.append(f"t{i},0,b,{row['swap']},{row['reg_swap']},{row['size_mb']},{row['flops']}")
        scores = tmp_path / "scores.csv"
        scores.write_text("\n".join(rows) + "\n")
        extra = {"correlate": ("--truth", write_table(tmp_path / "truth.csv")),
                 "sweep": ("--truth", write_table(tmp_path / "truth.csv"), "--grid", "1:1"),
                 "histogram": ()}[cmd]
        code, out, err = run(capsys, cmd, "--scores", str(scores), *extra)
        assert code == 1
        assert f"{scores}: line 4: {message}" in err
        assert out == ""

    @pytest.mark.parametrize("cmd", [("correlate",), ("sweep", "--grid", "1:1")])
    def test_invalid_cell_in_the_last_row_rejected_before_scoring(self, capsys, tmp_path, score_calls, cmd):
        truth = tmp_path / "truth.csv"
        rows = [f"t{i},{random_cell(4, i).encode_line()},0.5" for i in range(12)]
        rows.append("t12,nodes = 2;matrix = 0 0 0 0,0.5")
        truth.write_text("arch_id,cell,accuracy\n" + "\n".join(rows) + "\n")
        code, out, err = run(capsys, *cmd, "--truth", str(truth), *TABLE_FLAGS)
        assert code == 1
        assert err == f"error: {truth}: line 14: cell CellMatrix([0 0], [0 0]) is not a cell document\n"
        assert out == "" and score_calls == []

    @pytest.fixture
    def one_row_truth(self, tmp_path):
        truth = tmp_path / "truth.csv"
        cell = CELL.encode().strip().replace("\n", ";")
        truth.write_text(f"arch_id,cell,accuracy\na0,{cell},0.5\n")
        return str(truth)

    def test_one_row_table_cannot_set_the_auto_bell(self, capsys, one_row_truth, score_calls):
        code, _, err = run(capsys, "correlate", "--truth", one_row_truth, *TABLE_FLAGS)
        assert code == 1
        assert err == "error: the bell cannot be estimated from fewer than two cells; give --mu and --sigma instead\n"
        assert score_calls == []

    def test_one_row_sweep_names_the_record_count(self, capsys, one_row_truth):
        # The sweep scores raw, so no bell is estimated and the record count is the cause.
        code, _, err = run(capsys, "sweep", "--truth", one_row_truth, *TABLE_FLAGS, "--grid", "1:1")
        assert code == 1
        assert "only 1 records match the table; need at least 2" in err


class TestAblateDims:
    def test_random_cells_across_dims(self, capsys, tmp_path):
        out_csv = tmp_path / "ablate.csv"
        code, out, _ = run(
            capsys, "ablate-dims", "--dims", "3x4x4,3x6x6", "--cells", "4",
            "--batch-size", "5", "--depth", "1", "--stem-channels", "4",
            "--out", str(out_csv), "--plot", str(tmp_path / "ablate.plot"),
        )
        assert code == 0
        assert out.count("dims=") == 2
        assert out_csv.read_text().startswith("dims,")

    def test_truth_table_cells_used(self, capsys, truth_file):
        code, out, _ = run(
            capsys, "ablate-dims", "--dims", "3x5x5", "--truth", truth_file,
            "--batch-size", "4", "--depth", "1", "--stem-channels", "4",
        )
        assert code == 0
        assert out.count("dims=") == 1

    def test_one_row_truth_with_a_bell_leaves_the_correlations_blank(self, capsys, tmp_path):
        truth = tmp_path / "truth.csv"
        truth.write_text(f"arch_id,cell,accuracy\na0,{CELL.encode_line()},0.5\n")
        out_csv = tmp_path / "ablate.csv"
        code, out, err = run(
            capsys, "ablate-dims", "--dims", "3x5x5", "--truth", str(truth), *BELL_FLAGS,
            "--batch-size", "4", "--depth", "1", "--stem-channels", "4", "--out", str(out_csv),
        )
        assert (code, err) == (0, "")
        assert out.count("dims=") == 1
        header, row = out_csv.read_text().splitlines()
        assert header.endswith(",rho_standard,rho_swap,rho_reg_swap")
        assert row.endswith(",,,")

    def test_one_cell_without_a_bell_rejected_before_scoring(self, capsys, score_calls):
        code, out, err = run(capsys, "ablate-dims", "--dims", "3x4x4", "--cells", "1", "--depth", "1")
        assert code == 1
        assert err == "error: the bell cannot be estimated from fewer than two cells; give --mu and --sigma instead\n"
        assert out == "" and score_calls == []

    @pytest.mark.parametrize("flag", [("--cells", "3"), ("--nodes", "9"), ("--cells", "100"), ("--nodes", "4")])
    def test_random_cell_flags_rejected_with_truth(self, capsys, truth_file, flag):
        code, out, err = run(
            capsys, "ablate-dims", "--dims", "3x5x5", "--truth", truth_file, *flag,
            "--batch-size", "4", "--depth", "1", "--stem-channels", "4",
        )
        assert code == 1
        assert f"{flag[0]} has no effect with --truth" in err
        assert out == ""


    @pytest.mark.parametrize(
        "dims, message",
        [
            ("3x32x32,0x6x6", "dims '0x6x6' must be at least 1 on every axis"),
            ("3x4x-4", "dims '3x4x-4' must be at least 1 on every axis"),
            ("3x4x4,3x4", "dims '3x4' must be CxWxH"),
            (",", "empty dims list"),
        ],
        ids=["zero", "negative", "two-axes", "empty"],
    )
    def test_bad_dims_rejected_before_scoring(self, capsys, score_calls, dims, message):
        code, out, err = run(capsys, "ablate-dims", "--dims", dims, "--cells", "20", "--depth", "1")
        assert code == 1
        assert err == f"error: {message}\n"
        assert out == "" and score_calls == []

    def test_non_integer_dims_named(self, capsys, score_calls):
        code, out, err = run(capsys, "ablate-dims", "--dims", "3x4x4,3xax4", "--cells", "2", "--depth", "1")
        assert code == 1
        assert err == "error: dims '3xax4' must be CxWxH with integer C, W and H\n"
        assert out == "" and score_calls == []

    def test_negative_seed_rejected_for_random_cells(self, capsys, score_calls):
        code, out, err = run(capsys, "ablate-dims", "--dims", "3x4x4", "--cells", "2", "--seed", "-1")
        assert code == 1
        assert err == "error: --seed must be non-negative when drawing random cells, got -1\n"
        assert out == "" and score_calls == []

    def test_negative_seed_scores_the_truth_table(self, capsys, truth_file):
        code, out, _ = run(
            capsys, "ablate-dims", "--dims", "3x5x5", "--truth", truth_file, "--seed", "-1",
            "--batch-size", "4", "--depth", "1", "--stem-channels", "4",
        )
        assert code == 0
        assert out.count("dims=") == 1

    @pytest.mark.parametrize("units", ["3", "10"])
    def test_head_units_without_head_rejected(self, capsys, score_calls, units):
        code, out, err = run(capsys, "ablate-dims", "--dims", "3x4x4", "--cells", "2", "--head-units", units)
        assert code == 1
        assert err == "error: --head-units has no effect without --head\n"
        assert out == "" and score_calls == []


class TestHistogram:
    def test_from_scores(self, capsys, tmp_path, cell_file):
        scores = tmp_path / "scores.csv"
        run(capsys, "score", "--cell", cell_file, "--batch", "gauss:4x3x6x6",
            "--out", str(scores))
        code, out, _ = run(capsys, "histogram", "--scores", str(scores), "--bins", "3")
        assert code == 0
        assert out.count("bin=") == 3

    def test_out_and_plot_bytes(self, capsys, tmp_path):
        scores = tmp_path / "scores.csv"
        sizes = (1.0, 2.0, 4.0)
        write_score_records(scores, [ScoreRecord(f"m{i}", 1, 1.0, s, 0, 0, "b") for i, s in enumerate(sizes)])
        out_csv, plot = tmp_path / "bins.csv", tmp_path / "bins.plot"
        code, out, _ = run(
            capsys, "histogram", "--scores", str(scores), "--bins", "3",
            "--out", str(out_csv), "--plot", str(plot),
        )
        assert code == 0
        assert out == "bin=1.0:2.0 count=1\nbin=2.0:3.0 count=1\nbin=3.0:4.0 count=1\n"
        assert out_csv.read_bytes() == b"bin_low,bin_high,count\n1.0,2.0,1\n2.0,3.0,1\n3.0,4.0,1\n"
        assert plot.read_bytes() == (
            b"series,x,y\nsize_histogram,1.5,1.0\nsize_histogram,2.5,1.0\nsize_histogram,3.5,1.0\n"
        )

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run(capsys, "histogram")
        assert code == 1
        assert "exactly one" in err

    def test_truth_without_sizes_rejected(self, capsys, truth_file):
        code, _, err = run(capsys, "histogram", "--truth", truth_file)
        assert code == 1
        assert "size_mb" in err


class TestOutputDirectoriesCheckedFirst:
    """An output path that names a directory or a missing one is refused before any cell is scored."""

    @pytest.mark.parametrize(
        "cmd, flag",
        [
            ("score", "--out"),
            ("correlate", "--out"), ("correlate", "--plot"), ("correlate", "--save-scores"),
            ("sweep", "--out"), ("sweep", "--plot"),
            ("ablate-dims", "--out"), ("ablate-dims", "--plot"),
            ("histogram", "--out"), ("histogram", "--plot"),
        ],
    )
    def test_flag(self, capsys, tmp_path, cell_file, score_calls, cmd, flag):
        truth = write_table(tmp_path / "truth.csv")
        scores = tmp_path / "scores.csv"
        write_score_records(scores, [ScoreRecord("m0", 1, 1.0, 1.0, 0, 0, "b")])
        inputs = {
            "score": ["--cell", cell_file, "--batch", "gauss:4x3x6x6"],
            "correlate": ["--truth", truth, *TABLE_FLAGS],
            "sweep": ["--truth", truth, *TABLE_FLAGS, "--grid", "1:1"],
            "ablate-dims": ["--dims", "3x4x4", "--cells", "3", "--depth", "1", "--stem-channels", "4"],
            "histogram": ["--scores", str(scores)],
        }[cmd]
        missing = tmp_path / "absent" / "out.csv"
        code, out, err = run(capsys, cmd, *inputs, flag, str(missing))
        assert code == 1
        assert err == f"error: {flag}: directory of {missing} does not exist\n"
        assert out == "" and score_calls == []
        assert not missing.parent.exists()
        # A path naming a directory is refused as early.
        code, out, err = run(capsys, cmd, *inputs, flag, str(tmp_path))
        assert (code, out, err) == (1, "", f"error: {flag}: {tmp_path} is a directory\n")
        assert score_calls == []

    @pytest.mark.parametrize("key", ["out_cell", "out_trace", "out_summary", "checkpoint"])
    def test_search_key(self, capsys, tmp_path, score_calls, key):
        missing = tmp_path / "absent" / "out.txt"
        cfg = TestSearchCommand().write_config(tmp_path, **{key: str(missing)})
        code, out, err = run(capsys, "search", "--config", cfg)
        assert code == 1
        assert err == f"error: config key {key}: directory of {missing} does not exist\n"
        assert out == "" and score_calls == []
        assert not missing.parent.exists()


class TestHelpAndErrors:
    def test_module_run_exits_with_the_status_main_returns(self, monkeypatch, capsys):
        # ``python -m swapnas.cli`` runs the module as __main__.  The module
        # is imported already, which runpy warns about; the run is still fresh.
        monkeypatch.setattr(sys, "argv", ["swapnas", "ablate-dims", "--dims", "3x0x2"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(SystemExit) as exc:
                runpy.run_module("swapnas.cli", run_name="__main__")
        assert exc.value.code == 1
        assert capsys.readouterr().err == "error: dims '3x0x2' must be at least 1 on every axis\n"

    @pytest.mark.parametrize(
        "cmd", ["main", "score", "search", "correlate", "sweep", "ablate_dims", "histogram"]
    )
    def test_help_matches_golden_file(self, capsys, monkeypatch, cmd):
        monkeypatch.setenv("COLUMNS", "80")
        argv = ["--help"] if cmd == "main" else [cmd.replace("_", "-"), "--help"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN / f"help_{cmd}.txt").read_text()

    def test_help_enumerates_every_flag(self):
        import swapnas.cli as cli

        parser = cli.build_parser()
        sub = next(
            a for a in parser._actions if isinstance(a, __import__("argparse")._SubParsersAction)
        )
        for name, sub_parser in sub.choices.items():
            text = sub_parser.format_help()
            for action in sub_parser._actions:
                for option in action.option_strings:
                    assert option in text, f"{name} help misses {option}"

    def test_a_runtime_fault_exits_2(self, capsys, cell_file, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("scorer broke")

        monkeypatch.setattr(cli, "score_and_capture", fail)
        code, out, err = run(capsys, "score", "--cell", cell_file, "--batch", "gauss:4x3x6x6")
        assert (code, out, err) == (2, "", "runtime error: scorer broke\n")

    def test_unknown_flag_is_validation_error(self, capsys):
        code, _, err = run(capsys, "histogram", "--bogus")
        assert code == 1
        assert "bogus" in err

    def test_unknown_command_is_validation_error(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_no_entropy_sources(self):
        # Commands must never look at the clock or process entropy.
        import swapnas.cli as cli
        import inspect

        source = inspect.getsource(cli)
        assert "time.time" not in source
        assert "datetime" not in source
        assert "urandom" not in source


# So small that no one-byte change, such as a digit put in front of a size,
# makes a run slow; the batch comes first, so every prefix that parses does too.
TINY_SEARCH = "batch=gauss:2x3x4x4\nstem_channels=2\ndepth=1\nnodes=3\nmutation_times=1\ncycles=1\npopulation=2\n"


@pytest.fixture(scope="module")
def reader_inputs(tmp_path_factory):
    """File suffix -> (a valid input file, its bytes, a command line that reads it)."""
    tmp = tmp_path_factory.mktemp("readers")
    cell, tensor, cfg, resume, ckpt = (tmp / f"input.{ext}" for ext in ("cell", "tensor", "cfg", "resume", "ckpt"))
    cell.write_text(CELL.encode())
    tensor.write_bytes(b"SWAPTENSOR v1 2 1 2 2\n" + np.arange(8, dtype="<f4").tobytes())
    cfg.write_text(TINY_SEARCH)
    resume.write_text(f"{TINY_SEARCH}checkpoint = {ckpt}\nresume = true\n")
    score = ["score", "--cell", str(cell), "--depth", "1", "--stem-channels", "2", "--batch"]
    argvs = {
        ckpt: ["search", "--config", str(resume)],
        cell: [*score, "gauss:2x3x4x4"],
        tensor: [*score, str(tensor)],
        cfg: ["search", "--config", str(cfg)],
    }
    assert [main(argv) for argv in argvs.values()] == [0] * 4  # the first run writes the checkpoint
    return {path.suffix[1:]: (path, path.read_bytes(), argv) for path, argv in argvs.items()}


@pytest.mark.parametrize("reader", ["cell", "tensor", "cfg", "ckpt"])
@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["flip", "truncate", "insert", "delete"]), st.integers(0, 2**16), st.integers(1, 255))
def test_a_mutated_input_file_exits_0_or_1(reader_inputs, reader, kind, at, byte):
    path, valid, argv = reader_inputs[reader]
    at %= len(valid)
    head, byte_at, tail = valid[:at], valid[at], valid[at + 1:]
    path.write_bytes({
        "flip": head + bytes([byte_at ^ byte]) + tail,
        "truncate": head + bytes([byte_at]),  # never empty: an empty config runs the slow default search
        "insert": head + bytes([byte, byte_at]) + tail,
        "delete": head + tail,
    }[kind])
    code = main(argv)
    path.write_bytes(valid)  # the tensor reader's command line reads the cell file too
    assert code in (0, 1)  # 2 is a runtime error: a bad byte got past the reader


# Fixed-seed runs whose stdout and --out CSV are pinned byte for byte in
# tests/golden/<name>.stdout and tests/golden/<name>.csv.
OUTPUT_CASES = {
    "score_plain": (
        "score", "--cell", "{cell}", "--seed", "7", "--batch", "gauss:8x3x8x8",
        "--depth", "2", "--stem-channels", "4", "--reductions", "1",
    ),
    "score_reg": (
        "score", "--cell", "{cell}", "--seed", "7", "--batch", "gauss:8x3x8x8",
        "--depth", "2", "--stem-channels", "4", "--reductions", "1",
        "--mu", "0.001", "--sigma", "0.5",
    ),
    "score_no_standardise": (
        "score", "--cell", "{cell}", "--seed", "7", "--batch", "gauss:8x3x8x8",
        "--depth", "2", "--stem-channels", "4", "--reductions", "1",
        "--no-standardise",
    ),
    "ablate_dims_random": (
        "ablate-dims", "--dims", "3x4x4,3x6x6", "--cells", "4", "--batch-size", "9",
        "--depth", "1", "--stem-channels", "4", "--seed", "3",
    ),
    "ablate_dims_truth": (
        "ablate-dims", "--dims", "3x5x5,3x3x3", "--truth", "{truth}", "--batch-size", "6",
        "--depth", "1", "--stem-channels", "4", "--seed", "2",
        "--mu", "0.002", "--sigma", "0.01",
    ),
}


class TestOutputGoldens:
    @pytest.mark.parametrize("name", sorted(OUTPUT_CASES))
    def test_stdout_and_csv_match_golden(self, capsys, tmp_path, cell_file, truth_file, name):
        out_csv = tmp_path / "out.csv"
        argv = [a.format(cell=cell_file, truth=truth_file) for a in OUTPUT_CASES[name]]
        code, out, err = run(capsys, *argv, "--out", str(out_csv))
        assert code == 0, err
        assert out == (GOLDEN / f"{name}.stdout").read_text()
        assert out_csv.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()

# Fixed-seed correlate runs: stdout, --out and --save-scores pinned as
# tests/golden/<name>.stdout, <name>.csv and <name>.scores.csv.
CORRELATE_CASES = {
    "correlate_plain": (None, ()),
    "correlate_bell": (None, BELL_FLAGS),
    "correlate_sized": (TABLE_SIZES, ()),
    "correlate_sized_bell": (TABLE_SIZES, BELL_FLAGS),
}

# Fixed-seed search runs: stdout, out_cell, out_trace and out_summary pinned as
# tests/golden/<name>.stdout, <name>.cell, <name>.trace.csv and <name>.summary.txt.
SEARCH_CASES = {
    "search_auto": {"reg": "auto"},
    "search_bell": {"mu": "0.0015", "sigma": "0.000002"},
}
SEARCH_BASE = {
    "population": "6", "cycles": "5", "mutation_times": "3", "seed": "5",
    "batch": "gauss:8x3x6x6", "nodes": "4", "depth": "1", "stem_channels": "4",
}
SEARCH_FILES = {"out_cell": "cell", "out_trace": "trace.csv", "out_summary": "summary.txt"}


class TestCommandGoldens:
    @pytest.mark.parametrize("name", sorted(SEARCH_CASES))
    def test_search_outputs_match_golden(self, capsys, tmp_path, name):
        files = {key: tmp_path / f"{name}.{suffix}" for key, suffix in SEARCH_FILES.items()}
        keys = {**SEARCH_BASE, **SEARCH_CASES[name], **{k: str(p) for k, p in files.items()}}
        cfg = tmp_path / "search.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
        code, out, err = run(capsys, "search", "--config", str(cfg))
        assert code == 0, err
        assert out == (GOLDEN / f"{name}.stdout").read_text()
        for path in files.values():
            assert path.read_bytes() == (GOLDEN / path.name).read_bytes()

    @pytest.mark.parametrize("name", sorted(CORRELATE_CASES))
    def test_correlate_outputs_match_golden(self, capsys, tmp_path, name):
        sizes, flags = CORRELATE_CASES[name]
        truth = write_table(tmp_path / "truth.csv", sizes)
        out_csv, scores = tmp_path / "out.csv", tmp_path / "scores.csv"
        code, out, err = run(
            capsys, "correlate", "--truth", truth, *TABLE_FLAGS, *flags,
            "--out", str(out_csv), "--save-scores", str(scores),
        )
        assert code == 0, err
        assert out == (GOLDEN / f"{name}.stdout").read_text()
        assert out_csv.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
        assert scores.read_bytes() == (GOLDEN / f"{name}.scores.csv").read_bytes()

    def test_sweep_outputs_match_golden(self, capsys, tmp_path):
        truth = write_table(tmp_path / "truth.csv")
        out_csv, plot = tmp_path / "out.csv", tmp_path / "out.plot"
        code, out, err = run(
            capsys, "sweep", "--truth", truth, *TABLE_FLAGS,
            "--grid", "0.001:0.000001,0.0015:0.000002,0.01:1", "--out", str(out_csv), "--plot", str(plot),
        )
        assert code == 0, err
        assert out == (GOLDEN / "sweep.stdout").read_text()
        assert out_csv.read_bytes() == (GOLDEN / "sweep.csv").read_bytes()
        # The plot holds (mu, rho) of every grid row: the golden CSV's rows after the no-bell row.
        points = [line.split(",") for line in (GOLDEN / "sweep.csv").read_text().splitlines()[2:]]
        plot_rows = "".join(f"rho_vs_mu,{mu},{rho}\n" for mu, _, rho, _ in points)
        assert plot.read_bytes() == ("series,x,y\n" + plot_rows).encode()
