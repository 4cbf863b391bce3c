"""Tests for the Cluster facade."""

import numpy as np
import pytest

from repro.cluster import Cluster, OutOfMemoryError
from repro.costmodel import CostModel


def test_compute_phase_updates_machines_and_timeline():
    cluster = Cluster(3)
    duration = cluster.run_compute_phase("fwd", np.array([1.0, 2.0, 0.5]))
    assert duration == 2.0
    assert cluster.machines[1].compute_seconds == 2.0
    assert cluster.timeline.total_seconds == 2.0


def test_comm_phase_records_traffic():
    cluster = Cluster(2)
    cluster.run_comm_phase(
        "sync", np.array([1000.0, 0.0]), np.array([0.0, 1000.0])
    )
    assert cluster.fabric.total_bytes == 1000
    assert cluster.machines[0].bytes_sent == 1000
    assert cluster.machines[1].bytes_received == 1000


def test_comm_phase_bisection_floor():
    """Evenly spread traffic is bounded by aggregate fabric bandwidth."""
    cm = CostModel()
    cluster = Cluster(4, cm)
    sent = np.full(4, 1000.0)
    duration = cluster.run_comm_phase("sync", sent, sent)
    floor = 2.0 * 4000.0 / 4
    assert duration == pytest.approx(cm.transfer_seconds(floor, 1))


def test_comm_phase_dominant_port_wins():
    cm = CostModel()
    cluster = Cluster(4, cm)
    sent = np.array([10000.0, 0.0, 0.0, 0.0])
    duration = cluster.run_comm_phase("sync", sent, np.zeros(4))
    assert duration == pytest.approx(cm.transfer_seconds(10000.0, 1))


def test_comm_phase_without_traffic_takes_no_time():
    cluster = Cluster(4, CostModel(fabric_model="port"))
    assert cluster.run_comm_phase("sync", np.zeros(4), np.zeros(4)) == 0.0


def test_memory_budget_enforced():
    cm = CostModel(memory_budget_bytes=1000)
    cluster = Cluster(2, cm)
    cluster.allocate(1, "features", 2000)
    with pytest.raises(OutOfMemoryError) as err:
        cluster.check_memory_budget()
    assert err.value.machine_id == 1


def test_memory_balance():
    cluster = Cluster(2)
    cluster.allocate(0, "a", 100)
    cluster.allocate(1, "a", 300)
    assert cluster.memory_utilization_balance() == pytest.approx(1.5)


def test_needs_at_least_one_machine():
    with pytest.raises(ValueError):
        Cluster(0)


WRONG_SHAPES = {
    "phase-3-of-4": lambda c: c.add_phase("b", np.ones(3)),
    "phase-2d": lambda c: c.add_phase("b", np.ones((4, 1))),
    "compute-scalar": lambda c: c.run_compute_phase("b", 1.0),
    "compute-5-of-4": lambda c: c.run_compute_phase("b", np.ones(5)),
    "comm-received-3": lambda c: c.run_comm_phase(
        "b", np.ones(4), np.ones(3)
    ),
    "comm-messages-2": lambda c: c.run_comm_phase(
        "b", np.ones(4), np.ones(4), np.ones(2, dtype=np.int64)
    ),
    "traffic-scalars": lambda c: c.record_traffic(
        "t", np.float64(5), np.float64(5)
    ),
    "traffic-matrix-3x3": lambda c: c.record_traffic(
        "t", np.ones(4), np.ones(4), matrix=np.ones((3, 3))
    ),
}


@pytest.mark.parametrize("call", list(WRONG_SHAPES))
def test_wrong_shape_rejected_before_any_ledger_changes(call):
    """A per-machine vector that is not (k,) — or a matrix that is not
    (k, k) — raises ValueError up front and leaves every ledger as it
    was (it used to be recorded silently, or to half-update the fabric
    before a TypeError)."""
    cluster = Cluster(4)
    cluster.allocate(1, "features", 100.0)
    with pytest.raises(ValueError, match="shape|must be"):
        WRONG_SHAPES[call](cluster)
    assert cluster.timeline.records == []
    assert cluster.memory_watermark_timeline() == {}
    assert not cluster.work.any()
    for name in ("sent", "received", "messages"):
        assert not getattr(cluster.fabric, name).any(), name
    assert cluster.fabric.traffic_matrix_phases() == {}
    cluster.check_traffic_invariant()


def test_machines_view_the_cluster_ledgers():
    cluster = Cluster(3)
    cluster.run_compute_phase("fwd", np.array([1.0, 2.0, 0.5]))
    cluster.allocate(np.arange(3), "features", np.array([1.0, 2.0, 3.0]))
    cluster.memory.free(2, "features", 3.0)
    assert [m.compute_seconds for m in cluster.machines] == [1.0, 2.0, 0.5]
    assert cluster.memory.by_category(1) == {"features": 2.0}
    assert cluster.memory.by_category(2) == {}
    assert cluster.memory_per_machine().tolist() == [1.0, 2.0, 3.0]
    cluster.machines[0].bytes_sent += 7.0
    assert cluster.work[1].tolist() == [7.0, 0.0, 0.0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -5.0])
def test_non_finite_or_negative_values_rejected_before_any_ledger_changes(bad):
    """``Cluster(2).add_phase("x", [nan, 1.0])`` used to return NaN and
    make ``total_seconds`` NaN; sending ``[-5, 0]`` left
    ``fabric.total_bytes == -5.0``."""
    cluster = Cluster(2)
    for call in (
        lambda: cluster.add_phase("x", [bad, 1.0]),
        lambda: cluster.run_compute_phase("x", [bad, 1.0]),
        lambda: cluster.record_traffic("t", [bad, 0.0], [0.0, 0.0]),
        lambda: cluster.record_traffic("t", [1.0, 0.0], [0.0, bad]),
        lambda: cluster.run_comm_phase("t", [bad, 0.0], [0.0, 5.0]),
        lambda: cluster.record_traffics(
            ["t", "u"], [np.array([np.ones((2, 2)), [[0.0, bad], [0, 0]]])]
        ),
    ):
        with pytest.raises(ValueError, match="finite.* non-negative"):
            call()
    assert cluster.timeline.total_seconds == 0.0
    assert cluster.timeline.records == []
    assert cluster.fabric.total_bytes == 0.0
    assert not cluster.work.any()
    assert cluster.fabric.traffic_matrix_phases() == {}
    assert cluster.memory_watermark_timeline() == {}


def test_bulk_entries_equal_their_single_calls():
    """``add_phases`` / ``record_traffics`` record what one
    ``add_phase`` / ``record_traffic`` per row records, bit for bit;
    all-zero matrices are skipped, so first-occurrence order holds."""
    rng = np.random.default_rng(5)
    k = 9  # >= 8: numpy's pairwise row sums differ from a plain loop
    names = ["sample", "fetch", "backward"] * 6
    matrices = [
        rng.random((k, k)) * 0.2 * (i % 4 != 0) * (i > 1)
        for i in range(len(names))
    ]
    block = rng.random((len(names), k))
    bulk, single = Cluster(k), Cluster(k)
    held = rng.random(k)
    for cluster in (bulk, single):
        cluster.allocate(np.arange(k), "features", held)
        cluster.record_traffic("fetch", np.ones(k), np.ones(k) / 3)
        cluster.phase_prefix = "replay:"
    bulk.add_phases(names, block)
    bulk.record_traffics(  # in blocks of 7, 0 and 11 matrices
        names, iter([matrices[:7], np.zeros((0, k, k)), matrices[7:]])
    )
    for name, row in zip(names, block):
        single.add_phase(name, row)
    for name, matrix in zip(names, matrices):
        if matrix.any():
            single.record_traffic(
                name, matrix.sum(axis=1), matrix.sum(axis=0), matrix=matrix
            )
    assert np.array_equal(bulk.work, single.work)
    for field in ("sent", "received"):
        assert np.array_equal(
            getattr(bulk.fabric, field), getattr(single.fabric, field)
        )
    ours = bulk.fabric.traffic_matrix_phases()
    theirs = single.fabric.traffic_matrix_phases()
    # Rows 0 and 1 are all zero: "backward" (row 2) is recorded first.
    assert list(ours) == list(theirs) == [
        "replay:backward", "replay:sample", "replay:fetch",
    ]
    for phase in theirs:
        assert np.array_equal(ours[phase], theirs[phase])
    assert [r.name for r in bulk.timeline.records] == [
        r.name for r in single.timeline.records
    ]
    assert bulk.timeline.total_seconds == single.timeline.total_seconds
    ours, theirs = (
        c.memory_watermark_timeline() for c in (bulk, single)
    )
    assert list(ours) == list(theirs)
    assert all(np.array_equal(ours[p], theirs[p]) for p in theirs)
