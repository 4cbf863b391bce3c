"""The live bus carries the sweep's records, and the watch summary is
the sweep's analysis report.

A sweep's coordinator is its bus's one writer, so the bus of a
``--workers N`` sweep is the serial sweep's event for event (wall clock
aside). Folding it through :class:`WatchState` yields the records the
sweep saved, equal field for field, and ``repro obs watch
--summary-json`` writes the same bytes as ``repro sweep
--analysis-out`` — serial, parallel, and across graphs and comm
configs.
"""

import os

import pytest

from repro import cli
from repro.experiments import load_records
from repro.obs.analysis import RunData, build_analysis_report
from repro.obs.live import BusTailer, WatchState


def _watch(bus_dir):
    state = WatchState()
    state.apply_all(BusTailer(str(bus_dir)).poll())
    return state


@pytest.fixture(scope="module")
def sweeps(tmp_path_factory):
    """One tiny sweep, run serial (``1/``) and with two workers
    (``2/``), each publishing to its own bus."""
    root = tmp_path_factory.mktemp("sweeps")
    for workers in ("1", "2"):
        assert cli.main([
            "sweep", "--quick", "--graphs", "OR", "--machines", "2",
            "--scale", "tiny", "--obs-level", "metrics",
            "--workers", workers, "--out", str(root / workers),
            "--bus-out", str(root / workers / "bus"),
        ]) == 0
    return root


def _wall_free_events(bus_dir):
    """The bus's events, in file order, without wall-clock fields."""
    events = BusTailer(str(bus_dir)).poll()
    for event in events:
        event.pop("t_wall", None)
        event.pop("wall_seconds", None)
    return events


def test_bus_is_the_same_for_any_worker_count(sweeps):
    for workers in ("1", "2"):
        assert os.listdir(sweeps / workers / "bus") == [
            "events-coordinator.jsonl"
        ]
    serial = _wall_free_events(sweeps / "1" / "bus")
    assert serial == _wall_free_events(sweeps / "2" / "bus")
    kinds = [event["kind"] for event in serial]
    assert kinds.count("cell-done") == serial[0]["cells"] == 12


def _bus_records_match(sweeps, engine):
    """One engine's records off the parallel sweep's bus equal those off
    the serial sweep's bus and those the sweep saved."""
    serial, parallel = (
        [
            record for record in _watch(sweeps / w / "bus").sweep_records()
            if record.engine == engine
        ]
        for w in ("1", "2")
    )
    assert serial
    assert parallel == serial
    assert parallel == load_records(sweeps / "2" / f"sweep_{engine}.json")


def test_distgnn_bus_parallel_matches_serial(sweeps):
    _bus_records_match(sweeps, "distgnn")


def test_distdgl_bus_parallel_matches_serial(sweeps):
    _bus_records_match(sweeps, "distdgl")


def test_streamed_findings_match_posthoc_analysis(sweeps):
    """The online detector over the streamed records reproduces the
    post-hoc detector over the saved records, float for float."""
    from repro.obs.analysis import detect_record_anomalies, sort_findings

    records = [
        record for engine in ("distgnn", "distdgl")
        for record in load_records(sweeps / "2" / f"sweep_{engine}.json")
    ]
    state = _watch(sweeps / "2" / "bus")
    streamed = [f.to_dict() for f in state.findings()]
    posthoc = [
        f.to_dict()
        for f in sort_findings(detect_record_anomalies(records))
    ]
    assert streamed == posthoc
    assert state.report().to_json() == build_analysis_report(
        RunData(label="sweep", records=records)
    ).to_json()


SWEEPS = {
    "serial": [],
    "workers2": ["--workers", "2"],
    "graphs-x-comm": ["--graphs", "OR,DI", "--compression", "none,fp16"],
}


@pytest.mark.parametrize("extra", list(SWEEPS.values()), ids=list(SWEEPS))
def test_watch_summary_is_the_sweep_analysis(tmp_path, capsys, extra):
    """``obs watch --once --summary-json`` over a finished sweep's bus
    writes the bytes ``sweep --analysis-out`` wrote, and the records
    decoded off the bus equal the saved ones."""
    assert cli.main([
        "sweep", "--quick", "--graphs", "OR", "--machines", "2",
        "--scale", "tiny", "--obs-level", "metrics",
        "--out", str(tmp_path), "--bus-out", str(tmp_path / "bus"),
        "--analysis-out", str(tmp_path / "analysis.json"), *extra,
    ]) == 0
    assert cli.main([
        "obs", "watch", str(tmp_path / "bus"), "--once", "--no-ansi",
        "--summary-json", str(tmp_path / "summary.json"),
    ]) == 0
    capsys.readouterr()
    assert (tmp_path / "summary.json").read_bytes() == (
        tmp_path / "analysis.json"
    ).read_bytes()
    streamed = _watch(tmp_path / "bus").sweep_records()
    for engine in ("distgnn", "distdgl"):
        saved = load_records(tmp_path / f"sweep_{engine}.json")
        assert saved
        assert [r for r in streamed if r.engine == engine] == saved
