"""Resource-depth accounting: traffic invariant, watermarks, peaks.

The PR-5 resource layer hangs off the Cluster facade: the traffic
consistency invariant (fabric totals == per-machine ledger sums), the
per-phase memory-watermark timeline, the per-category memory peaks,
and their emission as catalog metrics. The engine-level tests at the
bottom pin the invariant on real DistGNN/DistDGL runs, including runs
with injected message loss.
"""

import numpy as np
import pytest

from repro.cluster import Cluster


def comm(cluster, name, sent, received, matrix=None):
    cluster.run_comm_phase(
        name, np.asarray(sent, float), np.asarray(received, float),
        matrix=None if matrix is None else np.asarray(matrix, float),
    )


class TestTrafficInvariant:
    def test_holds_after_comm_phases(self):
        cluster = Cluster(2)
        comm(cluster, "sync", [100.0, 0.0], [0.0, 100.0])
        comm(cluster, "allreduce", [50.0, 50.0], [50.0, 50.0])
        cluster.check_traffic_invariant()

    def test_detects_desync(self):
        cluster = Cluster(2)
        comm(cluster, "sync", [100.0, 0.0], [0.0, 100.0])
        cluster.machines[0].bytes_sent += 1.0  # corrupt one ledger
        with pytest.raises(RuntimeError):
            cluster.check_traffic_invariant()

    def test_lost_messages_do_not_skew_ledgers(self):
        cluster = Cluster(2)
        comm(cluster, "sync", [100.0, 0.0], [0.0, 100.0])
        cluster.fabric.record_lost_message(0)
        cluster.check_traffic_invariant()
        assert cluster.fabric.lost_messages.sum() == 1

    def test_record_traffic_keeps_matrix_consistent(self):
        cluster = Cluster(2)
        matrix = np.array([[0.0, 60.0], [40.0, 0.0]])
        cluster.record_traffic(
            "fetch",
            matrix.sum(axis=1),
            matrix.sum(axis=0),
            matrix=matrix,
        )
        cluster.check_traffic_invariant()
        total = cluster.fabric.traffic_matrix()
        assert total.sum() == cluster.fabric.total_bytes
        assert np.array_equal(
            total.sum(axis=1), cluster.fabric.sent
        )


class TestMemoryWatermarks:
    def test_timeline_snapshots_totals_per_phase(self):
        cluster = Cluster(2)
        cluster.allocate(0, "features", 100)
        cluster.add_phase("load", np.zeros(2))
        cluster.allocate(0, "activations", 50)
        cluster.allocate(1, "activations", 70)
        cluster.add_phase("forward", np.zeros(2))
        timeline = cluster.memory_watermark_timeline()
        assert list(timeline) == ["load", "forward"]
        assert list(timeline["load"]) == [100.0, 0.0]
        assert list(timeline["forward"]) == [150.0, 70.0]

    def test_repeated_phase_keeps_elementwise_max(self):
        cluster = Cluster(1)
        cluster.allocate(0, "buffers", 100)
        cluster.add_phase("step", np.zeros(1))
        cluster.memory.free(0, "buffers", 80)
        cluster.add_phase("step", np.zeros(1))
        assert list(
            cluster.memory_watermark_timeline()["step"]
        ) == [100.0]

    def test_phase_prefix_applies_to_watermarks(self):
        cluster = Cluster(1)
        cluster.phase_prefix = "epoch0-"
        cluster.add_phase("fwd", np.zeros(1))
        assert list(cluster.memory_watermark_timeline()) == [
            "epoch0-fwd"
        ]

    def test_category_peaks_union_and_zero_fill(self):
        cluster = Cluster(2)
        cluster.allocate(0, "features", 100)
        cluster.allocate(1, "replicas", 30)
        peaks = cluster.memory_category_peaks()
        assert peaks == {
            "features": [100.0, 0.0],
            "replicas": [0.0, 30.0],
        }


class TestEngineInvariants:
    """On real engine runs: fabric totals == machine ledger sums ==
    matrix totals, with and without injected message loss."""

    def _run_distgnn(self, tiny_or, loss=0.0):
        from repro.distgnn.engine import DistGnnEngine
        from repro.experiments import FaultConfig
        from repro.partitioning import make_edge_partitioner

        partition = make_edge_partitioner("hdrf").partition(
            tiny_or, 2, seed=0
        )
        engine = DistGnnEngine(
            partition, feature_size=8, hidden_dim=8, num_layers=2
        )
        if loss:
            config = FaultConfig(loss_rate=loss, seed=3)
            engine.simulate_training(
                3, fault_plan=config.plan(2, 3),
                recovery=config.policy(),
            )
        else:
            engine.simulate_training(2)
        return engine.cluster

    def _run_distdgl(self, tiny_or, tiny_or_split, loss=0.0):
        from repro.distdgl.engine import DistDglEngine
        from repro.experiments import FaultConfig
        from repro.partitioning import make_vertex_partitioner

        partition = make_vertex_partitioner("ldg").partition(
            tiny_or, 2, seed=0
        )
        engine = DistDglEngine(partition, tiny_or_split)
        if loss:
            config = FaultConfig(loss_rate=loss, seed=3)
            engine.run_training(
                2, fault_plan=config.plan(2, 2),
                recovery=config.policy(),
            )
        else:
            engine.run_training(1)
        return engine.cluster

    def _check(self, cluster):
        cluster.check_traffic_invariant()
        fabric = cluster.fabric
        machine_sent = sum(m.bytes_sent for m in cluster.machines)
        assert fabric.sent.sum() == pytest.approx(machine_sent)
        matrix_total = fabric.traffic_matrix().sum()
        assert matrix_total == pytest.approx(float(fabric.sent.sum()))
        # Pairwise attribution never uses the diagonal (local is free).
        assert np.trace(fabric.traffic_matrix()) == 0.0

    def test_distgnn_clean(self, tiny_or):
        self._check(self._run_distgnn(tiny_or))

    def test_distgnn_with_message_loss(self, tiny_or):
        cluster = self._run_distgnn(tiny_or, loss=0.5)
        assert cluster.fabric.lost_messages.sum() > 0
        self._check(cluster)

    def test_distdgl_clean(self, tiny_or, tiny_or_split):
        self._check(self._run_distdgl(tiny_or, tiny_or_split))

    def test_distdgl_with_message_loss(self, tiny_or, tiny_or_split):
        cluster = self._run_distdgl(tiny_or, tiny_or_split, loss=0.5)
        self._check(cluster)
