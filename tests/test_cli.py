"""Tests for the command-line interface."""

from dataclasses import fields

import numpy as np
import pytest

from repro import cli
from repro.cli import main
from repro.experiments import CellIO, CommConfig, TrainingParams, comm_grid


def run(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


def test_datasets(capsys):
    code, out = run(["datasets"], capsys)
    assert code == 0
    for key in ("HW", "DI", "EN", "EU", "OR"):
        assert key in out
    assert "Hollywood-2011" in out


def test_partition_edge_cut(capsys, tmp_path):
    output = tmp_path / "assignment.txt"
    code, out = run(
        [
            "partition", "--graph", "OR", "--scale", "tiny",
            "--cut", "edge-cut", "--algorithm", "ldg",
            "-k", "4", "--output", str(output),
        ],
        capsys,
    )
    assert code == 0
    assert "LDG" in out
    assert "cut=" in out
    assignment = np.loadtxt(output, dtype=int)
    assert assignment.min() >= 0 and assignment.max() < 4


def test_partition_vertex_cut(capsys):
    code, out = run(
        [
            "partition", "--graph", "OR", "--scale", "tiny",
            "--cut", "vertex-cut", "--algorithm", "dbh", "-k", "4",
        ],
        capsys,
    )
    assert code == 0
    assert "DBH" in out
    assert "RF=" in out


def test_distgnn(capsys):
    code, out = run(
        [
            "distgnn", "--graph", "OR", "--scale", "tiny",
            "--partitioner", "hdrf", "-k", "4",
            "--feature-size", "32", "--hidden-dim", "32",
            "--num-layers", "2",
        ],
        capsys,
    )
    assert code == 0
    assert "speedup vs Random" in out
    assert "replication factor" in out


def test_distdgl(capsys):
    code, out = run(
        [
            "distdgl", "--graph", "OR", "--scale", "tiny",
            "--partitioner", "metis", "-k", "4",
            "--feature-size", "32", "--batch-size", "32",
        ],
        capsys,
    )
    assert code == 0
    assert "phase: fetch" in out
    assert "edge-cut ratio" in out


def test_amortize(capsys):
    code, out = run(
        [
            "amortize", "--graph", "OR", "--scale", "tiny",
            "-k", "4", "--epochs", "50", "--feature-size", "32",
        ],
        capsys,
    )
    assert code == 0
    assert "amortizes after" in out
    assert "hep100" in out


def test_edge_list_input(capsys, tmp_path):
    path = tmp_path / "g.txt"
    rng = np.random.default_rng(0)
    edges = rng.integers(0, 60, size=(300, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    path.write_text(
        "\n".join(f"{u} {v}" for u, v in edges) + "\n"
    )
    code, out = run(
        [
            "partition", "--edge-list", str(path),
            "--cut", "edge-cut", "--algorithm", "random", "-k", "2",
        ],
        capsys,
    )
    assert code == 0


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_module_entry_point():
    """python -m repro works (argparse wiring via __main__)."""
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "repro", "datasets"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0
    assert "OR" in result.stdout


def test_recommend(capsys):
    code, out = run(
        [
            "recommend", "--graph", "OR", "--scale", "tiny",
            "-k", "4", "--epochs", "20", "--feature-size", "32",
        ],
        capsys,
    )
    assert code == 0
    assert "best =" in out
    assert "hep100" in out


class TestObsCommands:
    """The telemetry-analysis subcommands: analyze, diff."""

    @pytest.fixture()
    def record_file(self, tmp_path, tiny_or):
        from repro.experiments import (
            reduced_grid,
            run_distgnn,
            save_records,
        )

        params = next(iter(reduced_grid()))
        path = tmp_path / "records.json"
        records = [
            run_distgnn(tiny_or, name, 2, params, seed=0)
            for name in ("random", "hdrf")
        ]
        save_records(records, path)
        return str(path)

    def test_analyze_prints_and_saves(
        self, capsys, tmp_path, record_file
    ):
        out_path = tmp_path / "analysis.json"
        code, out = run(
            ["obs", "analyze", record_file, "-o", str(out_path)],
            capsys,
        )
        assert code == 0
        # Records ran without obs enabled, so there is no phase mix —
        # but the header and findings sections always render.
        assert "analysis: records.json" in out
        assert "Findings" in out
        assert out_path.exists()

    def test_analyze_deterministic_output(
        self, capsys, tmp_path, record_file
    ):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        run(["obs", "analyze", record_file, "-o", str(first)], capsys)
        run(["obs", "analyze", record_file, "-o", str(second)], capsys)
        assert first.read_bytes() == second.read_bytes()

    def test_analyze_writes_dashboard(
        self, capsys, tmp_path, record_file
    ):
        dash = tmp_path / "dash.html"
        code, _ = run(
            ["obs", "analyze", record_file, "-o", str(dash)],
            capsys,
        )
        assert code == 0
        html = dash.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert 'id="report-data"' in html

    def test_self_diff_is_clean_and_exits_zero(
        self, capsys, record_file
    ):
        code, out = run(
            ["obs", "diff", record_file, record_file], capsys
        )
        assert code == 0
        assert "clean" in out

    def test_diff_regression_exits_nonzero(
        self, capsys, tmp_path, tiny_or, record_file
    ):
        from repro.experiments import (
            reduced_grid,
            run_distgnn,
            save_records,
        )

        params = next(iter(reduced_grid()))
        other = tmp_path / "other.json"
        save_records(
            [run_distgnn(tiny_or, "random", 4, params, seed=0)], other
        )
        code, out = run(
            ["obs", "diff", record_file, str(other)], capsys
        )
        assert code == 1
        assert "cell" in out

    def test_analyze_strict_passes_healthy_run(
        self, capsys, record_file
    ):
        """--strict only fails on critical findings; a clean tiny
        sweep has none."""
        code, _ = run(
            ["obs", "analyze", record_file, "--strict"], capsys
        )
        assert code == 0

    def test_comma_separated_inputs_accepted(
        self, capsys, record_file
    ):
        code, _ = run(
            ["obs", "analyze", f"{record_file},{record_file}"], capsys
        )
        assert code == 0

    def test_output_suffix_picks_the_renderer(
        self, capsys, tmp_path, record_file
    ):
        """``-o`` repeats; ``.json`` / ``.md`` / ``.html`` each get
        their renderer, all from the one report."""
        import json

        paths = [tmp_path / f"report{s}" for s in (".json", ".md", ".html")]
        argv = ["obs", "analyze", record_file]
        for path in paths:
            argv += ["-o", str(path)]
        code, out = run(argv, capsys)
        assert code == 0
        assert all(f"report written to {path}" in out for path in paths)
        report = json.loads(paths[0].read_text())
        assert report["schema"] == 2
        markdown = paths[1].read_text()
        assert markdown.startswith("# Analysis: records.json")
        assert "## Speedup over Random" in markdown
        assert "</html>" in paths[2].read_text()

    def test_unknown_output_suffix_is_an_argparse_error(
        self, capsys, tmp_path, record_file
    ):
        with pytest.raises(SystemExit) as error:
            main(["obs", "analyze", record_file,
                  "-o", str(tmp_path / "report.txt")])
        assert error.value.code == 2
        assert "expected a path ending in" in capsys.readouterr().err
        assert not (tmp_path / "report.txt").exists()

    def test_dashboard_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            main(["obs", "dashboard", "x.json", "-o", "x.html"])
        assert "invalid choice: 'dashboard'" in capsys.readouterr().err


class TestOutOfCoreCommands:
    """`repro spool` and the --store drive of `repro partition`."""

    def test_spool_dataset_then_partition_store(self, capsys, tmp_path):
        store = tmp_path / "spool"
        code, out = run(
            ["spool", "--graph", "OR", "--scale", "tiny",
             "--out", str(store), "--chunk-size", "1000"],
            capsys,
        )
        assert code == 0
        assert "spooled" in out and "fingerprint" in out
        code, out = run(
            ["partition", "--store", str(store), "--cut", "vertex-cut",
             "--algorithm", "hdrf", "-k", "4"],
            capsys,
        )
        assert code == 0
        assert "HDRF" in out
        assert "peak memory" in out

    def test_spool_rmat_and_shuffle(self, capsys, tmp_path):
        store = tmp_path / "spool"
        buckets = tmp_path / "buckets"
        code, out = run(
            ["spool", "--rmat-edges", "5000", "--rmat-scale", "10",
             "--out", str(store), "--chunk-size", "1024"],
            capsys,
        )
        assert code == 0
        assert "5,000 edges" in out
        code, out = run(
            ["partition", "--store", str(store), "--cut", "vertex-cut",
             "--algorithm", "dbh", "-k", "4",
             "--shuffle-out", str(buckets)],
            capsys,
        )
        assert code == 0
        assert "buckets written" in out
        from repro.graph import EdgeChunkReader

        total = sum(
            EdgeChunkReader(str(buckets / f"part-{p:03d}")).num_edges
            for p in range(4)
        )
        assert total == 5000

    def test_partition_store_edge_cut(self, capsys, tmp_path):
        store = tmp_path / "spool"
        run(
            ["spool", "--graph", "OR", "--scale", "tiny",
             "--out", str(store)],
            capsys,
        )
        code, out = run(
            ["partition", "--store", str(store), "--cut", "edge-cut",
             "--algorithm", "ldg", "-k", "4"],
            capsys,
        )
        assert code == 0
        assert "LDG" in out

    def test_partition_store_rejects_non_streaming(
        self, capsys, tmp_path
    ):
        store = tmp_path / "spool"
        run(
            ["spool", "--graph", "OR", "--scale", "tiny",
             "--out", str(store)],
            capsys,
        )
        code, out = run(
            ["partition", "--store", str(store), "--cut", "edge-cut",
             "--algorithm", "metis", "-k", "4"],
            capsys,
        )
        assert code == 2
        assert "no streaming drive path" in out


class TestSweepRefusals:
    """A sweep refused for its flags exits before any cell runs and
    leaves no telemetry state behind."""

    SWEEP = [
        "sweep", "--quick", "--graphs", "OR", "--machines", "2",
        "--scale", "tiny", "--obs-level", "metrics",
    ]

    @pytest.fixture(autouse=True)
    def obs_off(self):
        from repro import obs

        obs.reset()
        obs.disable()
        yield obs
        obs.reset()
        obs.disable()

    def test_abort_on_without_rules_leaves_obs_off(
        self, capsys, tmp_path, obs_off
    ):
        out = tmp_path / "out"
        code = main([*self.SWEEP, "--out", str(out),
                     "--abort-on", "critical"])
        assert code == 1
        assert "--abort-on needs --rules" in capsys.readouterr().err
        assert obs_off.level() == "off"
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--graphs", "XX", "unknown graph 'XX'"),
        ("--machines", "0", "machine counts must be positive ints"),
    ])
    def test_bad_graph_or_machine_count_refused_before_the_bus(
        self, capsys, tmp_path, obs_off, flag, value, message
    ):
        argv = [*self.SWEEP, "--out", str(tmp_path / "out"),
                "--bus-out", str(tmp_path / "bus")]
        argv[argv.index(flag) + 1] = value
        assert main(argv) == 1
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        assert obs_off.level() == "off"

    def test_unloadable_rules_leave_obs_off(self, tmp_path, obs_off):
        rules = tmp_path / "rules.json"
        rules.write_text('{"rules": {"name": "not-a-list"}}')
        with pytest.raises(ValueError):
            main([*self.SWEEP, "--out", str(tmp_path / "out"),
                  "--rules", str(rules)])
        assert obs_off.level() == "off"

    def test_bus_out_holding_streams_refused(
        self, capsys, tmp_path, obs_off
    ):
        bus = tmp_path / "bus"
        bus.mkdir()
        stale = bus / "events-coordinator.jsonl"
        stale.write_text('{"cells": 12, "kind": "sweep-start"}\n')
        out = tmp_path / "out"
        code = main([*self.SWEEP, "--out", str(out),
                     "--bus-out", str(bus)])
        assert code == 1
        assert f"--bus-out {bus} already holds" in capsys.readouterr().err
        assert [p.name for p in bus.iterdir()] == [stale.name]
        assert stale.read_text() == '{"cells": 12, "kind": "sweep-start"}\n'
        assert not out.exists()
        assert obs_off.level() == "off"


class TestConfigFlags:
    """Every config-backed flag sets exactly its field; no flag leaves
    the field's default."""

    #: A valid non-default value per config field.
    VALUES = {
        "feature_size": 32, "hidden_dim": 16, "num_layers": 2,
        "arch": "gat", "global_batch_size": 8,
        "crash_rate": 0.25, "slowdown_rate": 0.5, "loss_rate": 0.125,
        "checkpoint_every": 2, "seed": 7,
        "compression": "int8", "refresh_interval": 3,
        "cache_fraction": 0.25, "obs_level": "trace",
    }
    ROWS = [
        pytest.param(table, flag, id=flag.option)
        for table in (cli._MODEL, cli._DISTDGL_MODEL, cli._FAULT,
                      cli._COMM, cli._OBS)
        for flag in table[1]
    ]

    @staticmethod
    def parse(*argv):
        return cli.build_parser().parse_args(["distdgl", *argv])

    @pytest.mark.parametrize("table, flag", ROWS)
    def test_flag_sets_exactly_its_field(self, table, flag):
        value = self.VALUES[flag.field]
        argv, values = [flag.option, str(value)], {flag.field: value}
        if table is cli._FAULT and flag.field != "crash_rate":
            # A fault config without a rate is off (None).
            argv += ["--fault-rate", "1.0"]
            values["crash_rate"] = 1.0
        defaults = {f.field: d for f, _, d in cli._flags(table)}
        config = cli._config(self.parse(*argv), table)
        assert config == table[0](**{**defaults, **values})

    @pytest.mark.parametrize("table, flag", ROWS)
    def test_no_flag_gives_the_default(self, table, flag):
        value = getattr(self.parse(), flag.option[2:].replace("-", "_"))
        field_default = next(
            f.default for f in fields(table[0]) if f.name == flag.field
        )
        assert value == field_default

    def test_default_configs(self):
        args = self.parse()
        assert cli._config(args, cli._MODEL) == TrainingParams()
        assert cli._config(args, cli._MODEL, cli._DISTDGL_MODEL) == (
            TrainingParams()
        )
        assert cli._config(args, cli._FAULT) is None
        assert cli._config(args, cli._COMM) is None
        assert cli._config(args, cli._OBS) == CellIO()

    def test_sweep_comm_lists_enumerate_in_comm_grid_order(self):
        assert [flag.field for flag in cli._COMM[1]] == [
            f.name for f in fields(CommConfig)
        ]
        args = cli.build_parser().parse_args([
            "sweep", "--compression", "fp16, none", "--refresh-interval",
            "2,1,", "--cache-fraction", "0.5,0",
        ])
        lists = cli._listed(args, cli._COMM)
        assert lists == [["fp16", "none"], [2, 1], [0.5, 0.0]]
        assert list(comm_grid(*lists)) == [
            CommConfig(compression, interval, fraction)
            for compression in ("fp16", "none")
            for interval in (2, 1)
            for fraction in (0.5, 0.0)
        ]
        defaults = cli.build_parser().parse_args(["sweep"])
        assert list(comm_grid(*cli._listed(defaults, cli._COMM))) == [
            CommConfig()
        ]
