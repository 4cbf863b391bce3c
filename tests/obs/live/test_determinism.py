"""The live bus carries the sweep's records, and the watch summary is
the sweep's analysis report.

Tailing the bus of a ``--workers N`` sweep and folding it through
:class:`WatchState` yields the records the sweep saved, equal field for
field, and ``repro obs watch --summary-json`` writes the same bytes as
``repro sweep --analysis-out`` — serial, parallel, and across graphs
and comm configs.
"""

import pytest

from repro import cli, obs
from repro.experiments import (
    load_records,
    reduced_grid,
    run_distdgl_grid_parallel,
    run_distgnn_grid_parallel,
)
from repro.graph import random_split
from repro.obs.analysis import RunData, build_analysis_report
from repro.obs.live import BusTailer, WatchState

EDGE_NAMES = ["random", "hdrf"]
VERTEX_NAMES = ["random", "ldg"]
MACHINES = [2, 4]


def _grid():
    return list(reduced_grid())[:2]


def _watch(bus_dir):
    state = WatchState()
    state.apply_all(BusTailer(str(bus_dir)).poll())
    return state


def test_distgnn_bus_parallel_matches_serial(tiny_or, tmp_path):
    runs = {}
    for workers in (1, 2):
        obs.enable()
        try:
            runs[workers] = run_distgnn_grid_parallel(
                tiny_or, EDGE_NAMES, MACHINES, _grid(), seed=0,
                workers=workers, bus_dir=str(tmp_path / str(workers)),
            )
        finally:
            obs.reset()
            obs.disable()
    serial = _watch(tmp_path / "1")
    parallel = _watch(tmp_path / "2")
    assert len(serial.records) == len(MACHINES) * len(EDGE_NAMES) * 2
    assert parallel.records == serial.records
    assert serial.sweep_records() == runs[1]
    assert parallel.report().to_json() == serial.report().to_json()


def test_distdgl_bus_parallel_matches_serial(tiny_or, tmp_path):
    split = random_split(tiny_or, seed=0)
    for workers in (1, 2):
        obs.enable()
        try:
            run_distdgl_grid_parallel(
                tiny_or, VERTEX_NAMES, [2], _grid(), split=split, seed=0,
                workers=workers, bus_dir=str(tmp_path / str(workers)),
            )
        finally:
            obs.reset()
            obs.disable()
    serial = _watch(tmp_path / "1")
    parallel = _watch(tmp_path / "2")
    assert parallel.records == serial.records
    assert parallel.report().to_json() == serial.report().to_json()


def test_streamed_findings_match_posthoc_analysis(tiny_or, tmp_path):
    """The online detector over the streamed records reproduces the
    post-hoc detector over the actual records, float for float."""
    from repro.obs.analysis import detect_record_anomalies, sort_findings

    obs.enable()
    try:
        records = run_distgnn_grid_parallel(
            tiny_or, EDGE_NAMES, MACHINES, _grid(), seed=0,
            workers=2, bus_dir=str(tmp_path / "bus"),
        )
    finally:
        obs.reset()
        obs.disable()
    state = _watch(tmp_path / "bus")
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
