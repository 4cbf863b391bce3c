"""Tests for Chrome trace export."""

import json

import numpy as np

from repro.cluster import (
    Timeline,
    save_chrome_trace,
    timeline_to_chrome_trace,
)


def make_timeline():
    timeline = Timeline()
    timeline.add_phases(["forward"], np.array([[1.0, 2.0]]))
    timeline.add_phases(["sync"], np.array([[0.5, 0.25]]))
    return timeline


def test_trace_is_valid_json():
    payload = json.loads(timeline_to_chrome_trace(make_timeline()))
    assert "traceEvents" in payload


def test_event_count_and_threads():
    payload = json.loads(timeline_to_chrome_trace(make_timeline()))
    events = [e for e in payload["traceEvents"] if e.get("ph") == "X"]
    assert len(events) == 4  # 2 phases x 2 machines
    assert {e["tid"] for e in events} == {0, 1}


def test_barrier_semantics_in_timestamps():
    """The second phase starts when the slowest machine of the first is
    done (2.0s -> 2e6 us)."""
    payload = json.loads(timeline_to_chrome_trace(make_timeline()))
    sync_events = [
        e for e in payload["traceEvents"] if e.get("name") == "sync"
    ]
    assert all(e["ts"] == 2e6 for e in sync_events)


def test_durations_microseconds():
    payload = json.loads(timeline_to_chrome_trace(make_timeline()))
    forward = [
        e for e in payload["traceEvents"] if e.get("name") == "forward"
    ]
    assert sorted(e["dur"] for e in forward) == [1e6, 2e6]


def test_save_roundtrip(tmp_path):
    path = tmp_path / "trace.json"
    save_chrome_trace(make_timeline(), path)
    payload = json.loads(path.read_text())
    assert payload["traceEvents"]


def test_thread_name_metadata_per_machine():
    payload = json.loads(timeline_to_chrome_trace(make_timeline()))
    names = {
        e["tid"]: e["args"]["name"]
        for e in payload["traceEvents"]
        if e.get("ph") == "M" and e["name"] == "thread_name"
    }
    assert names == {0: "machine-0", 1: "machine-1"}


def test_process_name_metadata_present():
    payload = json.loads(timeline_to_chrome_trace(make_timeline()))
    process = [
        e for e in payload["traceEvents"]
        if e.get("ph") == "M" and e["name"] == "process_name"
    ]
    assert len(process) == 1
    assert process[0]["args"]["name"] == "simulated-cluster"


def test_thread_sort_index_orders_machines_numerically():
    """Without sort indices viewers order threads lexically, putting
    machine-10 before machine-2; each machine must pin its numeric id."""
    timeline = Timeline()
    timeline.add_phases(["forward"], [np.arange(1.0, 13.0)])  # 12 machines
    payload = json.loads(timeline_to_chrome_trace(timeline))
    sort_indices = {
        e["tid"]: e["args"]["sort_index"]
        for e in payload["traceEvents"]
        if e.get("ph") == "M" and e["name"] == "thread_sort_index"
    }
    assert sort_indices == {m: m for m in range(12)}


def test_interrupted_phase_flagged_in_args():
    timeline = make_timeline()
    timeline.add_phases(
        ["fault-detect"], np.array([[0.1, 0.1]]), interrupted=True
    )
    payload = json.loads(timeline_to_chrome_trace(timeline))
    flagged = [
        e for e in payload["traceEvents"]
        if e.get("name") == "fault-detect"
    ]
    assert flagged
    assert all(e["args"]["interrupted"] for e in flagged)
    assert all(e.get("cname") for e in flagged)


def test_marks_become_instant_events():
    timeline = make_timeline()
    timeline.add_mark("crash:machine1", kind="fault", machine=1)
    timeline.add_mark("restore-checkpoint", kind="recovery")
    payload = json.loads(timeline_to_chrome_trace(timeline))
    instants = {
        e["name"]: e for e in payload["traceEvents"] if e.get("ph") == "i"
    }
    assert instants["crash:machine1"]["tid"] == 1
    assert instants["crash:machine1"]["s"] == "t"
    assert instants["crash:machine1"]["ts"] == 2.5e6
    assert instants["restore-checkpoint"]["s"] == "g"
    assert instants["restore-checkpoint"]["args"]["kind"] == "recovery"


def test_save_is_atomic_no_temp_left_behind(tmp_path):
    path = tmp_path / "trace.json"
    save_chrome_trace(make_timeline(), path)
    save_chrome_trace(make_timeline(), path)  # overwrite in place
    assert json.loads(path.read_text(encoding="utf-8"))["traceEvents"]
    assert [p.name for p in tmp_path.iterdir()] == ["trace.json"]


def test_engine_timeline_exports(tiny_or):
    from repro.distgnn import DistGnnEngine
    from repro.partitioning import RandomEdgePartitioner

    partition = RandomEdgePartitioner().partition(tiny_or, 4, seed=0)
    engine = DistGnnEngine(partition, 32, 32, 2)
    engine.simulate_epoch()
    payload = json.loads(
        timeline_to_chrome_trace(engine.cluster.timeline)
    )
    names = {e.get("name") for e in payload["traceEvents"]}
    assert "forward-l0" in names
