"""The columnar cluster ledger against its oracle.

``Cluster``, ``Timeline`` and the memory ledger keep every per-machine
quantity as a k-vector instead of one ``Machine`` object each.
**Byte-identity is the contract**: driven the same way, the columnar
cluster and the pre-rewrite one (:mod:`tests.oracles.cluster`) hold the
same phases, totals, watermarks, ledgers, fabric vectors and matrices,
emit the same metrics, and the runners build the same records.
The columnar side is driven through :class:`ScalarCluster`, whose
scalar entries adapt to the bulk ones; a communication op is its
``src x dst`` matrix, with its row and column sums as the port vectors,
as the fabric's conservation check requires.

Cuts, to stay inside ~20 s of tier-1: the op-sequence property runs 60
examples of at most 30 operations on 1–5 machines; the engine matrix
runs one 320-vertex graph, one partitioner per engine, 2–3 epochs.

The pre-rewrite ``Cluster.add_phase`` raises when a phase name first
recorded while *every* ledger was empty recurs after an allocation (its
watermark is then an int64 array); the columnar cluster does not, so
every op sequence starts by putting a zero-byte category, which no op
frees, into machine 0's ledger.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.costmodel import CostModel
from repro.distdgl import trace as trace_module
from repro.experiments import (
    CommConfig,
    FaultConfig,
    TrainingParams,
    clear_cache,
)
from repro.experiments.runner import run_distdgl, run_distgnn
from repro.graph import powerlaw_cluster_graph, random_split
from repro.obs import api as obs

from .cluster import OracleCluster, ScalarCluster, oracle_cluster

CATEGORIES = ("a", "b", "c")
NAMES = ("forward", "sync", "fault-detect", "checkpoint")
#: Byte sizes whose sums depend on the order they are added in.
AMOUNTS = (0.0, 0.1, 0.2, 0.3, 1.0, 7.0, 1e6 / 3, 12345.678, 2.0 ** 60)
SECONDS = (0.0, 0.1, 0.3, 1.0 / 3, 2.5, 1e-7)


@st.composite
def scenarios(draw):
    """``(k, fabric model, speeds, ops)``; ops use plain values only."""
    k = draw(st.integers(1, 5))
    machine = st.integers(0, k - 1)
    amounts = st.lists(st.sampled_from(AMOUNTS), min_size=k, max_size=k)
    seconds = st.lists(st.sampled_from(SECONDS), min_size=k, max_size=k)
    name = st.sampled_from(NAMES)
    category = st.sampled_from(CATEGORIES)
    matrix = st.lists(amounts, min_size=k, max_size=k)
    op = st.one_of(
        st.tuples(
            st.just("allocate"), machine, category,
            st.sampled_from(AMOUNTS),
        ),
        st.tuples(st.just("allocate_all"), category, amounts),
        st.tuples(
            st.just("free"), machine, category,
            st.sampled_from(["all", "third", "over"]),
        ),
        st.tuples(st.just("phase"), name, seconds, st.booleans()),
        st.tuples(st.just("prefix"), st.sampled_from(["", "replay:"])),
        st.tuples(st.just("compute"), name, seconds),
        st.tuples(st.just("comm"), name, matrix),
        st.tuples(st.just("traffic"), name, matrix),
        st.tuples(
            st.just("mark"), st.sampled_from(["crash", "checkpoint"]),
            st.one_of(st.none(), machine),
        ),
    )
    return (
        k,
        draw(st.sampled_from(["bisection", "port"])),
        draw(st.lists(
            st.sampled_from([0.5, 1.0, 1.5, 3.0]), min_size=k, max_size=k
        )),
        draw(st.lists(op, max_size=30)),
    )


def _resolve(ops, oracle):
    """Run ``ops`` on the oracle; return them with every free's size
    fixed and whether the oracle raised."""
    resolved = []
    for op in ops:
        if op[0] == "free":
            _, machine, category, how = op
            held = oracle.machines[machine].memory.by_category().get(
                category, 0.0
            )
            size = {"all": held, "third": held / 3, "over": held + 1.0}[how]
            op = ("free", machine, category, size)
        try:
            _apply(oracle, op)
            resolved.append((op, False))
        except ValueError:
            resolved.append((op, True))
    return resolved


def _apply(cluster, op):
    """One op through the oracle's scalar entries, or through
    :class:`ScalarCluster`'s adapters onto the bulk ones."""
    kind, args = op[0], op[1:]
    if kind == "allocate":
        cluster.allocate(*args)
    elif kind == "allocate_all":
        category, sizes = args
        if isinstance(cluster, OracleCluster):
            for machine, size in enumerate(sizes):
                cluster.allocate(machine, category, size)
        else:
            cluster.allocate(np.arange(len(sizes)), category, sizes)
    elif kind == "free":
        machine, category, size = args
        if isinstance(cluster, OracleCluster):
            cluster.machines[machine].memory.free(category, size)
        else:
            cluster.memory.free(machine, category, size)
    elif kind == "phase":
        name, seconds, interrupted = args
        cluster.add_phase(name, np.array(seconds), interrupted)
    elif kind == "prefix":
        cluster.phase_prefix = args[0]
    elif kind == "compute":
        cluster.run_compute_phase(args[0], np.array(args[1]))
    elif kind == "comm":
        matrix = np.array(args[1])
        cluster.run_comm_phase(
            args[0], matrix.sum(axis=1), matrix.sum(axis=0), matrix=matrix
        )
    elif kind == "traffic":
        matrix = np.array(args[1])
        cluster.record_traffic(
            args[0], matrix.sum(axis=1), matrix.sum(axis=0), matrix=matrix
        )
    else:
        cluster.timeline.add_mark(args[0], args[0], args[1])


def _snapshot():
    return [
        entry for entry in obs.snapshot()
        if entry["unit"] != "seconds (wall)"
    ]


def assert_same_cluster(ours, theirs):
    """Every observable of the two clusters is equal."""
    ours_tl, theirs_tl = ours.timeline, theirs.timeline
    assert [
        (r.name, r.per_machine_seconds.tolist(), r.interrupted)
        for r in ours_tl.records
    ] == [
        (r.name, r.per_machine_seconds.tolist(), r.interrupted)
        for r in theirs_tl.records
    ]
    assert ours_tl.marks == theirs_tl.marks
    assert ours_tl.total_seconds == theirs_tl.total_seconds
    for method in (
        "phase_totals", "recovery_seconds", "checkpoint_seconds",
    ):
        assert getattr(ours_tl, method)() == getattr(theirs_tl, method)()
    ours_wm = ours.memory_watermark_timeline()
    theirs_wm = theirs.memory_watermark_timeline()
    assert list(ours_wm) == list(theirs_wm)
    for phase, watermark in ours_wm.items():
        assert watermark.tolist() == theirs_wm[phase].tolist(), phase
    assert ours.memory_category_peaks() == theirs.memory_category_peaks()
    assert (
        ours.memory_per_machine().tolist()
        == theirs.memory_per_machine().tolist()
    )
    assert ours.memory_utilization_balance() == (
        theirs.memory_utilization_balance()
    )
    memory = ours.memory
    for machine, old in enumerate(theirs.machines):
        assert memory.total[machine] == old.memory.total_bytes
        assert memory.peak_total[machine] == old.memory.peak_bytes
        assert list(memory.by_category(machine).items()) == list(
            old.memory.by_category().items()
        )
        assert memory.peak_by_category(machine) == (
            old.memory.peak_by_category()
        )
    for name in ("sent", "received", "lost_messages"):
        assert (
            getattr(ours.fabric, name).tolist()
            == getattr(theirs.fabric, name).tolist()
        ), name
    ours_mx = ours.fabric.traffic_matrix_phases()
    theirs_mx = theirs.fabric.traffic_matrix_phases()
    assert list(ours_mx) == list(theirs_mx)
    for phase, matrix in ours_mx.items():
        assert matrix.tolist() == theirs_mx[phase].tolist(), phase
    ours.check_traffic_invariant()
    theirs.check_traffic_invariant()


@pytest.fixture
def metrics_level():
    obs.configure("metrics")
    obs.reset()
    yield
    obs.configure("off")
    obs.reset()


@settings(max_examples=60, deadline=None)
@given(scenario=scenarios())
@example(scenario=(2, "bisection", [1.0, 1.0], [
    # A free to zero moves the category last in machine 0's order, and
    # adding to a held category re-sums it: 0.2 + 0.3 + 0.1 there, but
    # 0.1 + 0.2 + 0.3 (a different float) on machine 1.
    ("allocate_all", "a", [0.1, 0.1]), ("allocate_all", "b", [0.2, 0.2]),
    ("allocate_all", "c", [0.3, 0.3]), ("free", 0, "a", "all"),
    ("allocate", 0, "a", 0.1), ("allocate_all", "c", [0.0, 0.0]),
    ("phase", "forward", [1.0, 1.0], False),
]))
def test_op_sequences_match_oracle(scenario):
    k, fabric_model, speeds, ops = scenario
    cost_model = CostModel(fabric_model=fabric_model)
    base = ("allocate", 0, "base", 0.0)
    snapshots = []
    obs.configure("metrics")
    try:
        obs.reset()
        oracle = OracleCluster(k, cost_model, np.array(speeds))
        resolved = _resolve([base] + ops, oracle)
        snapshots.append(_snapshot())
        obs.reset()
        cluster = ScalarCluster(k, cost_model, np.array(speeds))
        for op, raises in resolved:
            if raises:
                with pytest.raises(ValueError):
                    _apply(cluster, op)
            else:
                _apply(cluster, op)
        snapshots.append(_snapshot())
    finally:
        obs.configure("off")
        obs.reset()
    assert_same_cluster(cluster, oracle)
    assert snapshots[0] == snapshots[1]


GRAPH = powerlaw_cluster_graph(
    num_vertices=320, edges_per_vertex=10, triangle_prob=0.35,
    community_mean_size=40, seed=11, name="OR",
)
SPLIT = random_split(GRAPH, seed=11)
PARAMS = TrainingParams(feature_size=24, hidden_dim=12, num_layers=2)
CASES = {
    "clean": dict(num_epochs=2),
    "faults": dict(
        num_epochs=3,
        fault_config=FaultConfig(
            crash_rate=0.3, slowdown_rate=0.3, loss_rate=0.3,
            checkpoint_every=2, seed=7,
        ),
    ),
    "fp16": dict(num_epochs=2, comm_config=CommConfig(compression="fp16")),
    "cd-2": dict(num_epochs=3, comm_config=CommConfig(refresh_interval=2)),
}


def _run(engine, k, case):
    if engine == "distgnn":
        return run_distgnn(
            GRAPH, "hdrf", k, PARAMS, seed=3, enforce_memory_budget=True,
            **CASES[case],
        )
    return run_distdgl(GRAPH, "ldg", k, PARAMS, split=SPLIT, seed=3,
                       **CASES[case])


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("k", [2, 8, 32])
@pytest.mark.parametrize("engine", ["distgnn", "distdgl"])
def test_engine_records_match_oracle(engine, k, case, metrics_level):
    """Records (``obs_metrics`` included) and the metrics snapshot of a
    run on the columnar cluster equal those of a run on the oracle."""
    clear_cache()
    trace_module.clear_traces()
    # Warm the partition cache and the sampling trace with obs off, so
    # both measured runs hit the one and replay the other.
    obs.configure("off")
    _run(engine, k, case)
    obs.configure("metrics")
    record = _run(engine, k, case)
    snapshot = _snapshot()
    obs.reset()
    with oracle_cluster():
        expected = _run(engine, k, case)
    assert record == expected
    assert record.obs_metrics is not None
    assert snapshot == _snapshot()
    clear_cache()
