"""The library's built-in instrumentation, end to end.

Covers the ISSUE's core guarantees: disabled-by-default (no telemetry
state is created unless opted in), subsystem coverage when enabled, and
deterministic ``obs_metrics`` summaries on experiment records.
"""

import pytest

from repro import obs
from repro.distdgl import DistDglEngine
from repro.distgnn import DistGnnEngine
from repro.experiments import (
    TrainingParams,
    cached_edge_partition,
    clear_cache,
    run_distdgl,
    run_distgnn,
)
from repro.partitioning import make_edge_partitioner, make_vertex_partitioner


def _names():
    return {entry["name"] for entry in obs.snapshot()}


@pytest.fixture
def params():
    return TrainingParams(feature_size=32, hidden_dim=32, num_layers=2)


class TestDisabledByDefault:
    def test_partitioner_creates_no_instruments(self, tiny_or):
        make_edge_partitioner("hdrf").partition(tiny_or, 4)
        assert len(obs.get_registry()) == 0

    def test_engines_create_no_instruments(self, tiny_or, tiny_or_split):
        edge = make_edge_partitioner("random").partition(tiny_or, 4)
        DistGnnEngine(
            edge, feature_size=32, hidden_dim=32, num_layers=2
        ).simulate_epoch()
        vertex = make_vertex_partitioner("random").partition(tiny_or, 4)
        DistDglEngine(
            vertex, tiny_or_split, feature_size=32
        ).run_epoch()
        assert len(obs.get_registry()) == 0

    def test_record_has_no_obs_metrics(self, tiny_or, params):
        record = run_distgnn(tiny_or, "random", 4, params)
        assert record.obs_metrics is None


class TestPartitionerMetrics:
    def test_run_and_chunk_metrics(self, tiny_or):
        obs.enable()
        make_edge_partitioner("hdrf").partition(tiny_or, 4)
        names = _names()
        assert "partitioner.runs" in names
        assert "partitioner.edges_assigned" in names
        assert "partitioner.chunk_items" in names

    def test_vertex_streaming_chunk_metrics(self, tiny_or):
        obs.enable()
        make_vertex_partitioner("ldg").partition(tiny_or, 4)
        entry = next(
            e for e in obs.snapshot()
            if e["name"] == "partitioner.chunk_items"
        )
        assert entry["labels"] == {"kernel": "ldg"}

    def test_instrumentation_does_not_change_result(self, tiny_or):
        plain = make_edge_partitioner("hdrf").partition(tiny_or, 4)
        obs.enable()
        observed = make_edge_partitioner("hdrf").partition(tiny_or, 4)
        assert (plain.assignment == observed.assignment).all()


class TestEngineMetrics:
    def test_distgnn_epoch_metrics(self, tiny_or):
        obs.enable()
        edge = make_edge_partitioner("random").partition(tiny_or, 4)
        DistGnnEngine(
            edge, feature_size=32, hidden_dim=32, num_layers=2
        ).simulate_epoch()
        names = _names()
        assert "distgnn.epochs" in names
        assert "distgnn.epoch_seconds" in names
        assert "distgnn.network_bytes" in names
        assert "cluster.phase_seconds" in names
        assert "cluster.machine_busy_seconds" in names
        assert "cluster.bytes_sent" in names

    def test_distdgl_step_metrics(self, tiny_or, tiny_or_split):
        obs.enable()
        vertex = make_vertex_partitioner("random").partition(tiny_or, 4)
        DistDglEngine(vertex, tiny_or_split, feature_size=32).run_epoch()
        names = _names()
        assert "distdgl.network_bytes" in names
        assert "distdgl.remote_input_vertices" in names

    def test_cache_metrics(self, tiny_or):
        obs.enable()
        clear_cache()
        cached_edge_partition(tiny_or, "random", 4)
        cached_edge_partition(tiny_or, "random", 4)
        entries = {
            e["name"]: e["value"] for e in obs.snapshot()
            if e["name"].startswith("partition_cache.")
        }
        assert entries["partition_cache.misses"] == 1.0
        assert entries["partition_cache.hits"] == 1.0


class TestRecordObsMetrics:
    def test_obs_metrics_is_simulated_only(self, tiny_or, params):
        obs.enable()
        record = run_distgnn(tiny_or, "random", 4, params)
        metrics = record.obs_metrics
        assert metrics is not None
        assert set(metrics) == {
            "phase_seconds", "marks", "bytes_sent_total",
            "bytes_received_total", "lost_messages_total",
            "memory_peak_bytes_max", "traffic_matrix",
            "traffic_phase_bytes", "memory_category_peaks",
            "memory_timeline",
        }
        assert metrics["bytes_sent_total"] > 0
        k = record.num_machines
        matrix = metrics["traffic_matrix"]
        assert len(matrix) == k and all(len(row) == k for row in matrix)
        total = sum(sum(row) for row in matrix)
        assert total == pytest.approx(metrics["bytes_sent_total"])
        assert sum(metrics["traffic_phase_bytes"].values()) == (
            pytest.approx(total)
        )
        assert all(matrix[i][i] == 0.0 for i in range(k))
        peaks = metrics["memory_category_peaks"]
        assert "features" in peaks
        assert all(len(v) == k for v in peaks.values())
        assert all(len(v) == k for v in metrics["memory_timeline"].values())

    def test_obs_metrics_deterministic(self, tiny_or, tiny_or_split,
                                       params):
        obs.enable()
        first = run_distdgl(tiny_or, "random", 4, params,
                            split=tiny_or_split)
        obs.reset()
        obs.enable()
        second = run_distdgl(tiny_or, "random", 4, params,
                             split=tiny_or_split)
        assert first.obs_metrics == second.obs_metrics
        assert first == second
