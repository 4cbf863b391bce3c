"""Tests for the Cluster facade."""

import numpy as np
import pytest

from repro.cluster import Cluster, OutOfMemoryError
from repro.costmodel import CostModel


def comm_phase(cluster, sent, received):
    """Price a one-row communication phase: its straggler duration."""
    seconds = cluster.comm_seconds(np.array([sent]), np.array([received]))
    return cluster.add_phases(["sync"], seconds)[0]


def test_compute_phase_updates_machines_and_timeline():
    cluster = Cluster(3)
    durations = cluster.add_phases(["fwd"], np.array([[1.0, 2.0, 0.5]]))
    assert durations == [2.0]
    assert cluster.timeline.records[0].per_machine_seconds[1] == 2.0
    assert cluster.timeline.total_seconds == 2.0


def test_comm_phase_records_traffic():
    cluster = Cluster(2)
    matrix = np.array([[0.0, 1000.0], [0.0, 0.0]])
    cluster.record_traffic_rows(
        ["sync"], [[1000.0, 0.0]], [[0.0, 1000.0]], matrix[np.newaxis]
    )
    assert cluster.fabric.sent.tolist() == [1000.0, 0.0]
    assert cluster.fabric.received.tolist() == [0.0, 1000.0]
    assert np.array_equal(cluster.fabric.traffic_matrix("sync"), matrix)
    assert cluster.timeline.records == []  # traffic charges no time


def test_comm_phase_bisection_floor():
    """Evenly spread traffic is bounded by aggregate fabric bandwidth."""
    cm = CostModel()
    cluster = Cluster(4, cm)
    sent = np.full(4, 1000.0)
    duration = comm_phase(cluster, sent, sent)
    floor = 2.0 * 4000.0 / 4
    assert duration == pytest.approx(cm.transfer_seconds(floor, 1))


def test_comm_phase_dominant_port_wins():
    cm = CostModel()
    cluster = Cluster(4, cm)
    sent = np.array([10000.0, 0.0, 0.0, 0.0])
    duration = comm_phase(cluster, sent, np.zeros(4))
    assert duration == pytest.approx(cm.transfer_seconds(10000.0, 1))


def test_comm_phase_without_traffic_takes_no_time():
    cluster = Cluster(4, CostModel(fabric_model="port"))
    assert comm_phase(cluster, np.zeros(4), np.zeros(4)) == 0.0


def test_memory_budget_enforced():
    cm = CostModel(memory_budget_bytes=1000)
    cluster = Cluster(2, cm)
    cluster.memory.allocate(1, "features", 2000)
    with pytest.raises(OutOfMemoryError) as err:
        cluster.check_memory_budget()
    assert err.value.machine_id == 1


def test_memory_balance():
    cluster = Cluster(2)
    cluster.memory.allocate(0, "a", 100)
    cluster.memory.allocate(1, "a", 300)
    assert cluster.memory_utilization_balance() == pytest.approx(1.5)


def test_needs_at_least_one_machine():
    with pytest.raises(ValueError):
        Cluster(0)


MATRIX = np.ones((1, 4, 4))
WRONG_SHAPES = {
    "phase-3-of-4": lambda c: c.add_phases(["b"], np.ones((1, 3))),
    "phase-2d": lambda c: c.add_phases(["b"], np.ones((4, 1))),
    "compute-scalar": lambda c: c.add_phases(["b"], 1.0),
    "compute-5-of-4": lambda c: c.add_phases(["b"], np.ones((1, 5))),
    "comm-received-3": lambda c: c.record_traffic_rows(
        ["b"], np.ones((1, 4)), np.ones((1, 3)), MATRIX
    ),
    "traffic-scalars": lambda c: c.record_traffic_rows(
        ["t"], np.float64(5), np.float64(5), MATRIX
    ),
    "traffic-matrix-3x3": lambda c: c.record_traffics(
        ["t"], [np.ones((1, 3, 3))]
    ),
    "traffic-rows-2-for-3-names": lambda c: c.record_traffic_rows(
        ["t", "u", "v"], np.ones((2, 4)), np.ones((2, 4)), np.ones((3, 4, 4))
    ),
    "traffic-rows-matrices-3x3": lambda c: c.record_traffic_rows(
        ["t"], np.ones((1, 4)), np.ones((1, 4)), np.ones((1, 3, 3))
    ),
    "compute-rows-5-wide": lambda c: c.add_phases(
        ["a", "b"], np.ones((2, 5))
    ),
}


@pytest.mark.parametrize("call", list(WRONG_SHAPES))
def test_wrong_shape_rejected_before_any_ledger_changes(call):
    """A per-machine vector that is not (k,) — or a matrix that is not
    (k, k) — raises ValueError up front and leaves every ledger as it
    was (it used to be recorded silently, or to half-update the fabric
    before a TypeError)."""
    cluster = Cluster(4)
    cluster.memory.allocate(1, "features", 100.0)
    with pytest.raises(ValueError, match="shape|must be"):
        WRONG_SHAPES[call](cluster)
    assert cluster.timeline.records == []
    assert cluster.memory_watermark_timeline() == {}
    for name in ("sent", "received"):
        assert not getattr(cluster.fabric, name).any(), name
    assert cluster.fabric.traffic_matrix_phases() == {}
    cluster.check_traffic_invariant()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -5.0])
def test_non_finite_or_negative_values_rejected_before_any_ledger_changes(bad):
    """A phase of ``[nan, 1.0]`` seconds used to return NaN and make
    ``total_seconds`` NaN; sending ``[-5, 0]`` left the fabric's sent
    total at -5.0."""
    cluster = Cluster(2)
    matrix = np.ones((1, 2, 2))
    for call in (
        lambda: cluster.add_phases(["x"], [[bad, 1.0]]),
        lambda: cluster.add_phases(["x"] * 3, [[1.0, 0.0]] * 2 + [[0, bad]]),
        lambda: cluster.record_traffic_rows(
            ["t"], [[bad, 0.0]], [[0.0, 0.0]], matrix
        ),
        lambda: cluster.record_traffic_rows(
            ["t"], [[1.0, 0.0]], [[0.0, bad]], matrix
        ),
        lambda: cluster.record_traffic_rows(
            ["t", "u"], [[1.0, 0.0], [0.0, 2.0]], [[0.0, 1.0], [bad, 0.0]],
            np.ones((2, 2, 2)),
        ),
        lambda: cluster.record_traffics(
            ["t", "u"], [np.array([np.ones((2, 2)), [[0.0, bad], [0, 0]]])]
        ),
    ):
        with pytest.raises(ValueError, match="finite.* non-negative"):
            call()
    assert cluster.timeline.total_seconds == 0.0
    assert cluster.timeline.records == []
    assert not cluster.fabric.sent.any()
    assert cluster.fabric.traffic_matrix_phases() == {}
    assert cluster.memory_watermark_timeline() == {}


def test_bulk_entries_equal_their_single_calls():
    """``add_phases`` / ``record_traffics`` on a whole block record what
    one call per row records, bit for bit; all-zero matrices are
    skipped, so first-occurrence order holds."""
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
        cluster.memory.allocate(np.arange(k), "features", held)
        cluster.record_traffics(["fetch"], [np.full((1, k, k), 1 / 3)])
        cluster.phase_prefix = "replay:"
    bulk.add_phases(names, block)
    bulk.record_traffics(  # in blocks of 7, 0 and 11 matrices
        names, iter([matrices[:7], np.zeros((0, k, k)), matrices[7:]])
    )
    for name, row in zip(names, block):
        single.add_phases([name], row[np.newaxis])
    for name, matrix in zip(names, matrices):
        if matrix.any():
            single.record_traffic_rows(
                [name], matrix.sum(axis=1)[None], matrix.sum(axis=0)[None],
                matrix[None],
            )
    for field in ("sent", "received"):
        assert np.array_equal(
            getattr(bulk.fabric, field), getattr(single.fabric, field)
        )
    ours = bulk.fabric.traffic_matrix_phases()
    theirs = single.fabric.traffic_matrix_phases()
    # Rows 0 and 1 are all zero: "backward" (row 2) is recorded first.
    assert list(ours) == list(theirs) == [
        "fetch", "replay:backward", "replay:sample", "replay:fetch",
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
    bulk.check_traffic_invariant()


@pytest.mark.parametrize("fabric_model", ["bisection", "port"])
def test_row_entries_equal_their_single_calls(fabric_model):
    """``comm_seconds`` / ``record_traffic_rows`` on stacked rows price
    and record what one call per row does, bit for bit."""
    rng = np.random.default_rng(7)
    k = 9  # >= 8: numpy's pairwise row sums differ from a plain loop
    names = ["sync-a", "sync-b", "sync-a", "sync-c"]
    matrices = rng.random((len(names), k, k)) * 1e6
    matrices[1] = 0.0  # a phase that moves nothing takes no time
    sent, received = matrices.sum(axis=2), matrices.sum(axis=1)
    rows, single = (
        Cluster(k, CostModel(fabric_model=fabric_model)) for _ in range(2)
    )
    for cluster in (rows, single):
        cluster.memory.allocate(np.arange(k), "features", rng.random(k))
        cluster.phase_prefix = "replay:"
    seconds = rows.comm_seconds(sent, received)
    rows.add_phases(names, seconds)
    rows.record_traffic_rows(names, sent, received, matrices)
    for name, *traffic in zip(names, sent, received, matrices):
        single.add_phases([name], single.comm_seconds(*traffic[:2])[None])
        single.record_traffic_rows(
            [name], *(array[np.newaxis] for array in traffic)
        )
    assert not seconds[1].any()
    assert [r.per_machine_seconds.tolist() for r in rows.timeline.records] \
        == [r.per_machine_seconds.tolist() for r in single.timeline.records]
    assert rows.timeline.phase_totals() == single.timeline.phase_totals()
    for field in ("sent", "received"):
        assert np.array_equal(
            getattr(rows.fabric, field), getattr(single.fabric, field)
        )
    ours = rows.fabric.traffic_matrix_phases()
    theirs = single.fabric.traffic_matrix_phases()
    assert list(ours) == list(theirs)
    assert all(np.array_equal(ours[p], theirs[p]) for p in theirs)
    matrices[0] = -1.0  # the fabric keeps its own copy
    assert np.array_equal(
        rows.fabric.traffic_matrix("replay:sync-a"),
        single.fabric.traffic_matrix("replay:sync-a"),
    )
    rows.check_traffic_invariant()
