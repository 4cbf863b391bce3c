"""Smoke tests for the orchestration scripts."""

import importlib.util
import json
import os

SCRIPTS_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "scripts"
)


def load_script(name):
    path = os.path.abspath(os.path.join(SCRIPTS_DIR, name))
    spec = importlib.util.spec_from_file_location(
        f"script_{name.removesuffix('.py')}", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sweep_main(argv):
    """``python -m repro sweep ARGV`` in process."""
    from repro import cli

    return cli.main(["sweep", *argv])


def test_full_sweep_quick(tmp_path, capsys):
    code = sweep_main(
        [
            "--quick", "--graphs", "OR", "--machines", "4",
            "--scale", "tiny", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Speedup over Random" in out
    for name in ("sweep_distgnn.json", "sweep_distdgl.json"):
        payload = json.loads((tmp_path / name).read_text())
        assert len(payload) > 0
        assert payload[0]["data"]["graph"] == "OR"


def test_sweep_tail_keeps_the_old_headline_numbers(tmp_path, capsys):
    """The printed tail is the report's speed-up / recovery / comm
    tables; every number the hand-rolled tail used to print (at the top
    machine count) is in it, recomputed here from the saved records."""
    from repro.experiments import (
        load_records,
        robustness_summary,
        speedup_summary,
    )

    assert sweep_main(
        [
            "--quick", "--graphs", "OR", "--machines", "2,4",
            "--scale", "tiny", "--out", str(tmp_path),
            "--compression", "none,fp16", "--fault-rate", "0.2",
            "--epochs", "2",
        ]
    ) == 0
    out = capsys.readouterr().out
    tail = out[out.index("\nSpeedup over Random\n"):]
    lines = [line.split() for line in tail.splitlines()]
    for engine in ("distgnn", "distdgl"):
        records = load_records(tmp_path / f"sweep_{engine}.json")
        speedups = speedup_summary(records)
        overheads = robustness_summary(records)
        for (graph, partitioner, k), s in speedups.items():
            if k == 4 and partitioner != "random":
                assert [
                    engine, graph, partitioner, "4", f"{s.mean:.2f}x",
                    f"{s.minimum:.2f}x", f"{s.maximum:.2f}x",
                ] in lines
        for (graph, partitioner, k), s in overheads.items():
            if k == 4:
                assert [
                    engine, graph, partitioner, "4", f"{s.mean:.2%}",
                    f"{s.minimum:.2%}", f"{s.maximum:.2%}",
                ] in lines
        for label in ("none r1 c0", "fp16 r1 c0"):
            group = [r for r in records if r.comm_config.label() == label]
            wire = sum(r.network_bytes for r in group)
            saved = sum(r.traffic_saved_bytes for r in group)
            error = max(r.accuracy_proxy_error for r in group)
            (row,) = [
                line for line in lines
                if line[:4] == [engine, *label.split()]
            ]
            assert row[4:6] == [str(len(group)), f"{wire / 1e6:.1f}"]
            assert row[7] == f"{saved / (wire + saved):.1%}"
            assert row[9] == f"{error:.4f}"


def test_sweep_records_reloadable(tmp_path):
    from repro.experiments import load_records

    sweep_main(
        [
            "--quick", "--graphs", "OR", "--machines", "4",
            "--scale", "tiny", "--out", str(tmp_path),
        ]
    )
    records = load_records(tmp_path / "sweep_distgnn.json")
    assert all(r.epoch_seconds > 0 for r in records)


def test_sweep_with_telemetry(tmp_path):
    from repro.experiments import load_records
    from repro.obs import read_jsonl

    obs_path = tmp_path / "telemetry.jsonl"
    code = sweep_main(
        [
            "--quick", "--graphs", "OR", "--machines", "4",
            "--scale", "tiny", "--out", str(tmp_path),
            "--obs-level", "metrics", "--obs-out", str(obs_path),
        ]
    )
    assert code == 0
    records = load_records(tmp_path / "sweep_distgnn.json")
    assert all(r.obs_metrics is not None for r in records)
    events = read_jsonl(str(obs_path))
    final = events[-1]
    assert final["kind"] == "metrics-snapshot"
    assert any(m["name"] == "distgnn.epochs" for m in final["metrics"])


def test_build_run_report(tmp_path, capsys):
    from repro import cli

    sweep_main(
        [
            "--quick", "--graphs", "OR", "--machines", "4",
            "--scale", "tiny", "--out", str(tmp_path),
            "--obs-level", "metrics",
        ]
    )
    reports = tmp_path / "reports"
    reports.mkdir()
    code = cli.main(
        [
            "obs", "analyze",
            str(tmp_path / "sweep_distgnn.json"),
            str(tmp_path / "sweep_distdgl.json"),
            "-o", str(reports / "run_report.md"),
            "-o", str(reports / "run_report.json"),
        ]
    )
    assert code == 0
    markdown = (reports / "run_report.md").read_text()
    assert markdown.startswith("# Analysis: ")
    assert "## Speedup over Random" in markdown
    assert "## Telemetry" in markdown
    payload = json.loads((reports / "run_report.json").read_text())
    engines = payload["summary"]["coverage"]["engines"]
    assert engines["distgnn"]["num_records"] > 0


def test_build_run_report_rejects_empty(tmp_path, capsys):
    from repro import cli

    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    assert cli.main(["obs", "analyze", str(empty)]) == 1


def test_gen_metric_docs(tmp_path):
    gen = load_script("gen_metric_docs.py")
    out = tmp_path / "observability.md"
    assert gen.main(["--out", str(out)]) == 0
    assert gen.main(["--out", str(out), "--check"]) == 0
    out.write_text(out.read_text() + "\ndrifted\n")
    assert gen.main(["--out", str(out), "--check"]) == 1
    assert gen.main(["--out", str(tmp_path / "gone.md"), "--check"]) == 1


def test_committed_metric_docs_in_sync():
    """CI gate mirrored as a tier-1 test: the repo file must match."""
    gen = load_script("gen_metric_docs.py")
    assert gen.main(["--check"]) == 0


def test_check_docstrings_clean_tree(capsys):
    lint = load_script("check_docstrings.py")
    assert lint.main([]) == 0
    assert "documented" in capsys.readouterr().out


def test_check_docstrings_finds_gaps(tmp_path):
    lint = load_script("check_docstrings.py")
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        '"""Module docs."""\n\n\n'
        "def documented():\n"
        '    """Has one."""\n\n\n'
        "def naked():\n"
        "    pass\n\n\n"
        "class AlsoNaked:\n"
        "    def method(self):\n"
        "        pass\n"
    )
    assert lint.main([str(package)]) == 1


def test_check_docstrings_ignores_private(tmp_path):
    lint = load_script("check_docstrings.py")
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        '"""Module docs."""\n\n\n'
        "def _private():\n"
        "    pass\n"
    )
    assert lint.main([str(package)]) == 0


def test_sweep_with_alert_rules_clean_run_passes(tmp_path, capsys):
    rules = os.path.abspath(
        os.path.join(SCRIPTS_DIR, os.pardir, "examples",
                     "alert_rules.json")
    )
    code = sweep_main(
        [
            "--quick", "--graphs", "OR", "--machines", "2",
            "--scale", "tiny", "--out", str(tmp_path),
            "--obs-level", "metrics",
            "--rules", rules, "--abort-on", "critical",
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "ABORTED" not in captured.err


def test_sweep_abort_on_critical_rule(tmp_path, capsys):
    """Injected message loss trips the no-lost-messages rule: the sweep
    stops early with exit code 2, names the rule, and still saves the
    records finished so far."""
    rules = os.path.abspath(
        os.path.join(SCRIPTS_DIR, os.pardir, "examples",
                     "alert_rules.json")
    )
    code = sweep_main(
        [
            "--quick", "--graphs", "OR", "--machines", "2",
            "--scale", "tiny", "--out", str(tmp_path),
            "--obs-level", "metrics", "--loss-rate", "0.5",
            "--epochs", "4",
            "--rules", rules, "--abort-on", "critical",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "ABORTED" in err
    assert "no-lost-messages" in err
    # The partial-save path still runs: the records file is written
    # even when the very first cell trips the rule (so it may be
    # empty, but it must exist and parse).
    saved = json.loads((tmp_path / "sweep_distgnn.json").read_text())
    assert isinstance(saved, list)
