"""The measure/price split of ``DistDglEngine.run_step`` against its oracle.

PR 15 split the step into *measure* (sample, count — recorded once per
partition in a shared :class:`~repro.distdgl.trace.SamplingTrace`) and
*price* (array expressions over the workers). **Byte-identity is the
contract**: whatever an engine replays, records or samples privately,
every ``StepBreakdown``, the comm and fault summaries, the timeline, the
memory ledger and the fabric's matrices equal what the pre-PR loop
(:mod:`tests.oracles.distdgl`, fresh ``default_rng(seed)``) produces.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import FaultEvent, FaultPlan, RecoveryPolicy
from repro.distdgl import DistDglEngine, engine as engine_module
from repro.distdgl import trace as trace_module
from repro.experiments import (
    CellSpec,
    clear_cache,
    parameter_grid,
    run_cell,
)
from repro.experiments.cache import cached_vertex_partition
from repro.graph import powerlaw_cluster_graph, random_split
from repro.partitioning import RandomVertexPartitioner

from . import distdgl as old_distdgl
from .distdgl import OracleDistDglEngine

GRAPH = powerlaw_cluster_graph(
    num_vertices=320, edges_per_vertex=10, triangle_prob=0.35,
    community_mean_size=40, seed=11, name="OR",
)
#: 32 training vertices: at k=32 most workers have an empty train pool.
SPLIT = random_split(GRAPH, seed=11)
PARTITIONS = {
    k: RandomVertexPartitioner().partition(GRAPH, k, seed=k)
    for k in (2, 4, 8, 32)
}
PLANS = {
    "none": None,
    "crash": FaultPlan((
        FaultEvent("crash", epoch=0, machine=1, step=1),
        FaultEvent("crash", epoch=1, machine=0, step=2),
    )),
    "slow+lost": FaultPlan((
        FaultEvent("slowdown", epoch=0, machine=0, magnitude=4.0),
        FaultEvent("lost-message", epoch=0, machine=1, step=0),
        FaultEvent("lost-message", epoch=1, machine=0, step=3),
        FaultEvent("lost-message", epoch=1, machine=5, step=3),
    )),
}


@pytest.fixture(autouse=True)
def fresh_traces():
    trace_module.clear_traces()
    yield
    trace_module.clear_traces()


def _train(engine, plan, epochs=2):
    if plan is None:
        return engine.run_training(epochs)
    return engine.run_training(
        epochs, fault_plan=plan, recovery=RecoveryPolicy()
    )


def _same_step(new, old):
    for field in dataclasses.fields(old):
        a, b = getattr(new, field.name), getattr(old, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), field.name
        else:
            assert a == b, field.name


def assert_same_run(engine, oracle, reports=(), oracle_reports=()):
    """Every observable of two engines driven the same way is equal."""
    assert len(reports) == len(oracle_reports)
    for report, expected in zip(reports, oracle_reports):
        assert len(report.steps) == len(expected.steps)
        for new, old in zip(report.steps, expected.steps):
            _same_step(new, old)
    assert engine.comm_summary() == oracle.comm_summary()
    assert engine.fault_summary == oracle.fault_summary
    for pool, expected in zip(engine.train_per_worker, oracle.train_per_worker):
        assert pool.dtype == expected.dtype and np.array_equal(pool, expected)
    ours, theirs = engine.cluster, oracle.cluster
    assert np.array_equal(ours.memory_per_machine(), theirs.memory_per_machine())
    assert ours.memory_category_peaks() == theirs.memory_category_peaks()
    assert [
        (r.name, r.per_machine_seconds.tolist(), r.interrupted)
        for r in ours.timeline.records
    ] == [
        (r.name, r.per_machine_seconds.tolist(), r.interrupted)
        for r in theirs.timeline.records
    ]
    assert ours.timeline.marks == theirs.timeline.marks
    for name in ("sent", "received", "lost_messages"):
        assert np.array_equal(
            getattr(ours.fabric, name), getattr(theirs.fabric, name)
        ), name
    matrices = ours.fabric.traffic_matrix_phases()
    expected = theirs.fabric.traffic_matrix_phases()
    assert list(matrices) == list(expected)
    for phase, matrix in matrices.items():
        assert np.array_equal(matrix, expected[phase]), phase


@pytest.mark.parametrize("compression", ["none", "fp16"])
@pytest.mark.parametrize("cache_fraction", [0.0, 0.1])
@pytest.mark.parametrize("plan", list(PLANS))
@pytest.mark.parametrize("num_layers", [2, 3, 4])
@pytest.mark.parametrize("k", [2, 8, 32])
@pytest.mark.parametrize("arch", ["sage", "gcn", "gat"])
def test_engine_matches_oracle(
    arch, k, num_layers, plan, cache_fraction, compression
):
    """Recording and replaying engines both equal the oracle;
    ``global_batch_size`` 6 is below k at 8 and 32."""
    kwargs = dict(
        arch=arch, feature_size=24, hidden_dim=12, num_layers=num_layers,
        global_batch_size=6, seed=5, cache_fraction=cache_fraction,
        compression=compression,
    )
    oracle = OracleDistDglEngine(PARTITIONS[k], SPLIT, **kwargs)
    expected = _train(oracle, PLANS[plan])
    recording = DistDglEngine(PARTITIONS[k], SPLIT, **kwargs)
    assert not recording._trace.steps
    assert_same_run(recording, oracle, _train(recording, PLANS[plan]), expected)
    replaying = DistDglEngine(PARTITIONS[k], SPLIT, **kwargs)
    assert replaying._trace is recording._trace
    recorded = len(replaying._trace.steps)
    assert recorded == sum(len(r.steps) for r in expected)
    assert_same_run(replaying, oracle, _train(replaying, PLANS[plan]), expected)
    assert len(replaying._trace.steps) == recorded


def test_replay_prices_other_parameters_on_a_non_default_cost_model():
    """What a trace is for: engines that differ in everything priced
    (arch, sizes, codec, cost model) replay one recording."""
    from repro.costmodel import CostModel

    first = DistDglEngine(PARTITIONS[8], SPLIT, num_layers=3, seed=2)
    first.run_training(2)
    cost_model = CostModel(
        network_bandwidth=3.3e7, network_latency=7e-5, float_bytes=2,
        sample_seconds_per_edge=3e-7, memory_bandwidth=7.7e9,
    )
    for arch, compression in (("gat", "topk"), ("gcn", "int8")):
        kwargs = dict(
            arch=arch, feature_size=500, hidden_dim=7, num_layers=3, seed=2,
            compression=compression, cost_model=cost_model,
        )
        engine = DistDglEngine(PARTITIONS[8], SPLIT, **kwargs)
        assert engine._trace is first._trace
        oracle = OracleDistDglEngine(PARTITIONS[8], SPLIT, **kwargs)
        assert_same_run(
            engine, oracle, engine.run_training(2), oracle.run_training(2)
        )


@pytest.mark.parametrize("first", ["fault-free", "crash"])
def test_divergent_history_forks_a_private_continuation(first):
    """One records, the other departs from it at the crash step: each
    equals its own oracle, and the recording is left as it was."""
    plans = {
        "fault-free": None,
        "crash": FaultPlan((FaultEvent("crash", epoch=0, machine=2, step=3),)),
    }
    order = [first] + [name for name in plans if name != first]
    kwargs = dict(num_layers=2, global_batch_size=4, seed=9)
    engines = {}
    for name in order:
        engine = DistDglEngine(PARTITIONS[4], SPLIT, **kwargs)
        oracle = OracleDistDglEngine(PARTITIONS[4], SPLIT, **kwargs)
        shared = engine._trace
        recorded = list(shared.steps)
        assert_same_run(
            engine, oracle, _train(engine, plans[name]),
            _train(oracle, plans[name]),
        )
        engines[name] = engine
        if name != first:
            assert engine._trace is None  # departed at step 3
            assert shared.steps == recorded
    assert engines[first]._trace is not None


@settings(max_examples=40, deadline=None)
@given(
    calls=st.lists(
        st.tuples(
            st.integers(0, 1),
            st.sampled_from([None, (0, 1, 2, 3), (0, 2), (3,), (1, 2, 3)]),
        ),
        max_size=14,
    )
)
def test_interleaved_engines_each_match_their_oracle(calls):
    """Two engines share a trace; whoever steps, with whatever active
    set, gets what a fresh-RNG engine with the same call history gets."""
    trace_module.clear_traces()
    variants = [
        dict(arch="sage", feature_size=16, hidden_dim=16),
        dict(arch="gat", feature_size=64, hidden_dim=8, compression="fp16"),
    ]
    common = dict(num_layers=2, global_batch_size=8, seed=3)
    engines = [
        DistDglEngine(PARTITIONS[4], SPLIT, **common, **v) for v in variants
    ]
    oracles = [
        OracleDistDglEngine(PARTITIONS[4], SPLIT, **common, **v)
        for v in variants
    ]
    assert engines[0]._trace is engines[1]._trace
    for which, active in calls:
        _same_step(
            engines[which].run_step(active=active),
            oracles[which].run_step(active=active),
        )
    for engine, oracle in zip(engines, oracles):
        assert_same_run(engine, oracle)


def test_full_grid_cell_samples_as_often_as_three_configurations(monkeypatch):
    """``parameter_grid()`` is 27 configurations but three distinct
    (fan-outs, batch size) pairs: one cell samples three runs' worth."""
    calls = {"new": 0, "old": 0}

    def counting(key, real):
        def sample_blocks(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        return sample_blocks

    monkeypatch.setattr(
        engine_module, "sample_layers",
        counting("new", engine_module.sample_layers),
    )
    monkeypatch.setattr(
        old_distdgl, "sample_blocks",
        counting("old", old_distdgl.sample_blocks),
    )
    clear_cache()
    grid = tuple(parameter_grid())
    assert len(grid) == 27
    spec = CellSpec("distdgl", "random", 4, seed=0, num_epochs=1, grid=grid)
    records = run_cell(GRAPH, SPLIT, spec)
    assert len(records) == 27
    partition, _ = cached_vertex_partition(GRAPH, "random", 4, 0)
    for num_layers in (2, 3, 4):
        params = next(p for p in grid if p.num_layers == num_layers)
        OracleDistDglEngine(
            partition, SPLIT, num_layers=num_layers, seed=0,
            global_batch_size=params.global_batch_size,
        ).run_training(1)
    clear_cache()
    assert calls["new"] == calls["old"] > 0
