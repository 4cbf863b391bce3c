"""A DistDGL epoch priced in one pass against pricing step by step.

``DistDglEngine.run_epoch`` measures (replays, records or samples) all
of a fault-free epoch's steps first and then prices them together, on a
leading step axis, with one bulk ``Cluster.add_phases`` and one bulk
``Cluster.record_traffics``. **Bit identity is the contract**: every
``StepBreakdown`` (``per_worker_seconds`` included), the timeline block,
names, durations and memory watermarks, the fabric's byte vectors and
per-phase matrices, ``cluster.work`` and the ``CommSummary`` equal those
of the per-step oracle (:mod:`tests.oracles.distdgl`: the per-worker
step loop from before the measure/price split, and the per-step epoch
loop) driven the same way. The oracle step emits metrics since retired
from the catalog, so the metrics-level obs snapshot is compared with
the per-step epoch loop over production steps
(:class:`StepwiseDistDglEngine`), which must agree on all the rest too.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.distdgl import DistDglEngine
from repro.distdgl import engine as engine_module
from repro.distdgl import trace as trace_module
from repro.graph import powerlaw_cluster_graph, random_split
from repro.obs import api as obs
from repro.partitioning import RandomVertexPartitioner, VertexPartition

from . import distdgl as old_distdgl
from .distdgl import OracleDistDglEngine

GRAPH = powerlaw_cluster_graph(
    num_vertices=320, edges_per_vertex=10, triangle_prob=0.35,
    community_mean_size=40, seed=11, name="OR",
)
#: 32 training vertices: 11 steps an epoch at batch size 3, 1 at 32.
SPLIT = random_split(GRAPH, seed=11)
PARTITIONS = {
    k: RandomVertexPartitioner().partition(GRAPH, k, seed=k)
    for k in (1, 2, 4, 8)
}
#: Steps per epoch -> global batch size.
BATCH = {11: 3, 1: 32}


class StepwiseDistDglEngine(DistDglEngine):
    """Production steps priced one at a time: the per-step epoch loop."""

    run_epoch = OracleDistDglEngine.run_epoch


@pytest.fixture(autouse=True)
def fresh_traces():
    trace_module.clear_traces()
    yield
    trace_module.clear_traces()


@pytest.fixture
def metrics_level():
    obs.configure("metrics")
    obs.reset()
    yield
    obs.configure("off")
    obs.reset()


def _bits(value):
    """A value's exact bits: arrays by dtype, shape and bytes, floats by
    their IEEE encoding (so -0.0 differs from 0.0)."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (float, np.floating)):
        return "f", np.float64(value).tobytes()
    return value


def _snapshot():
    return [
        entry for entry in obs.snapshot()
        if entry["unit"] != "seconds (wall)"
    ]


def _state(engine, reports):
    """Every observable of an engine after a run, as comparable bits."""
    cluster, timeline = engine.cluster, engine.cluster.timeline
    rows = len(timeline._names)
    return {
        "steps": [
            [_bits(getattr(step, f.name)) for f in dataclasses.fields(step)]
            for report in reports for step in report.steps
        ],
        "block": _bits(timeline._seconds[:rows]),
        "names": list(timeline._names),
        "durations": [_bits(d) for d in timeline._durations],
        "interrupted": list(timeline._interrupted),
        "watermarks": [
            (phase, _bits(mark))
            for phase, mark in cluster.memory_watermark_timeline().items()
        ],
        "work": _bits(cluster.work),
        "fabric": [
            _bits(getattr(cluster.fabric, name))
            for name in ("sent", "received", "messages", "lost_messages")
        ],
        "matrices": [
            (phase, _bits(matrix))
            for phase, matrix in cluster.fabric.traffic_matrix_phases().items()
        ],
        "comm": [
            _bits(getattr(engine.comm_summary(), f.name))
            for f in dataclasses.fields(engine.comm)
        ],
    }


def _run(cls, partition, epochs, **kwargs):
    """``cls``'s state after ``epochs``, and its metrics-level snapshot
    (``None`` for the oracle, whose step emits retired metrics)."""
    oracle = cls is OracleDistDglEngine
    obs.configure("off" if oracle else "metrics")
    obs.reset()
    engine = cls(partition, SPLIT, **kwargs)
    reports = engine.run_training(epochs)
    return engine, _state(engine, reports), None if oracle else _snapshot()


def _run_all(partition, epochs, fresh, **kwargs):
    """The oracle, the per-step loop and the one-pass engine, in that
    order; with ``fresh``, each on traces of its own. Returns the last."""
    runs = []
    for cls in (OracleDistDglEngine, StepwiseDistDglEngine, DistDglEngine):
        if fresh:
            trace_module.clear_traces()
        runs.append(_run(cls, partition, epochs, **kwargs))
    (_, oracle, _), (_, stepwise, snapshot), (engine, ours, our_snapshot) = (
        runs
    )
    for key, value in oracle.items():
        assert ours[key] == value, key
    assert ours == stepwise
    assert our_snapshot == snapshot
    assert any(e["name"].startswith("cluster.") for e in our_snapshot)
    return engine


@pytest.mark.parametrize("steps", [11, 1])
@pytest.mark.parametrize("cache_fraction", [0.0, 0.2])
@pytest.mark.parametrize("compression", ["none", "fp16", "int8", "topk"])
@pytest.mark.parametrize("k", [1, 2, 4, 8])
@pytest.mark.parametrize("arch", ["sage", "gcn", "gat"])
def test_epoch_priced_in_one_pass_matches_oracle(
    arch, k, compression, cache_fraction, steps, metrics_level
):
    kwargs = dict(
        arch=arch, feature_size=24, hidden_dim=12, num_layers=2,
        global_batch_size=BATCH[steps], seed=5,
        cache_fraction=cache_fraction, compression=compression,
    )
    engine = _run_all(PARTITIONS[k], 2, fresh=True, **kwargs)
    assert engine._steps_per_epoch() == steps
    assert len(engine._trace.steps) == 2 * steps  # recorded


@pytest.mark.parametrize("steps", [11, 1])
@pytest.mark.parametrize("mode", ["replayed", "private"])
@pytest.mark.parametrize("k", [2, 8])
def test_replayed_and_private_steps_match_oracle(
    k, mode, steps, metrics_level, monkeypatch
):
    """Replayed steps (another configuration recorded them) and steps a
    private generator draws (the shared trace is full) price alike."""
    kwargs = dict(
        arch="gat", feature_size=24, hidden_dim=12, num_layers=3,
        global_batch_size=BATCH[steps], seed=7, compression="topk",
        cache_fraction=0.2,
    )
    if mode == "replayed":
        first = DistDglEngine(
            PARTITIONS[k], SPLIT, **dict(kwargs, arch="sage", compression="none")
        )
        first.run_training(2)
    else:
        monkeypatch.setattr(trace_module, "TRACE_BYTE_LIMIT", 0)
    recorded = list(first._trace.steps) if mode == "replayed" else None
    engine = _run_all(PARTITIONS[k], 2, fresh=False, **kwargs)
    if mode == "replayed":
        assert engine._trace.steps == recorded
    else:
        assert engine._trace is None


@pytest.mark.parametrize("block_steps", [1, 4])
def test_traffic_priced_in_several_blocks(
    block_steps, metrics_level, monkeypatch
):
    """An epoch's traffic matrices in blocks of 1 or 4 steps (11 steps:
    the last block is short) accumulate as in one block."""
    k = 8
    monkeypatch.setattr(
        engine_module, "_TRAFFIC_BLOCK_BYTES", 3 * 8 * k * k * block_steps
    )
    kwargs = dict(
        arch="gcn", feature_size=24, hidden_dim=12, num_layers=2,
        global_batch_size=3, seed=1, compression="topk",
    )
    _run_all(PARTITIONS[k], 2, fresh=True, **kwargs)


def test_worker_with_an_empty_training_pool(metrics_level):
    """Worker 3 owns no training vertex: it draws no batch, and pays
    only the all-reduce and the update."""
    assignment = PARTITIONS[4].assignment.copy()
    train = SPLIT.train
    assignment[train[assignment[train] == 3]] = 0
    partition = VertexPartition(GRAPH, assignment, 4)
    kwargs = dict(num_layers=2, global_batch_size=3, seed=2, compression="fp16")
    engine = _run_all(partition, 2, fresh=True, **kwargs)
    assert engine.train_per_worker[3].size == 0
    assert engine._trace.steps[0].workers.tolist() == [0, 1, 2]


def _interrupt_at(module, name, call, monkeypatch):
    """Make the ``call``-th call of ``module.name`` raise
    ``KeyboardInterrupt``."""
    real, calls = getattr(module, name), []

    def sampler(*args, **kwargs):
        calls.append(None)
        if len(calls) == call:
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, sampler)


@pytest.mark.parametrize("recording", [True, False])
def test_interrupt_in_sampling_leaves_what_the_step_loop_leaves(
    recording, metrics_level, monkeypatch
):
    """A ``KeyboardInterrupt`` from sampling at step 3 of the second
    epoch: the steps before it are priced, and the trace, its generator
    (or the private one), the cluster and ``comm`` stand where the
    per-step loop leaves them — and a retry goes on identically."""
    k, workers = 4, 4
    kwargs = dict(num_layers=2, global_batch_size=3, seed=4, compression="int8")
    steps = DistDglEngine(PARTITIONS[k], SPLIT, **kwargs)._steps_per_epoch()
    # The first worker's sampling call of step 3 of the second epoch.
    call = (steps + 3) * workers + 1
    if not recording:
        monkeypatch.setattr(trace_module, "TRACE_BYTE_LIMIT", 0)
    sides = {}
    for cls in (StepwiseDistDglEngine, DistDglEngine):
        trace_module.clear_traces()
        obs.reset()
        engine = cls(PARTITIONS[k], SPLIT, **kwargs)
        assert all(pool.size for pool in engine.train_per_worker)
        with monkeypatch.context() as patch:
            _interrupt_at(engine_module, "sample_layers", call, patch)
            reports = [engine.run_epoch()]
            with pytest.raises(KeyboardInterrupt):
                engine.run_epoch()
        interrupted = (_state(engine, reports), _snapshot())
        reports.append(engine.run_epoch())  # the retry
        rng = engine._rng if engine._trace is None else engine._trace.rng
        sides[cls] = (
            interrupted, (_state(engine, reports), _snapshot()),
            engine._step_index, rng.bit_generator.state,
            None if engine._trace is None else [
                [_bits(field) for field in counts]
                for counts in engine._trace.steps
            ],
        )
    new, old = sides[DistDglEngine], sides[StepwiseDistDglEngine]
    assert new[0][0]["names"].count("sample") == steps + 3
    for ours, theirs in zip(new, old):
        assert ours == theirs


def test_interrupt_on_the_oracle_side_too(monkeypatch):
    """The same interrupt against the per-worker oracle, whose step
    samples with the old sampler on its own generator: the priced steps
    before it agree."""
    k, kwargs = 4, dict(num_layers=2, global_batch_size=3, seed=4)
    steps = DistDglEngine(PARTITIONS[k], SPLIT, **kwargs)._steps_per_epoch()
    sides = []
    for cls, module, name in (
        (OracleDistDglEngine, old_distdgl, "sample_blocks"),
        (DistDglEngine, engine_module, "sample_layers"),
    ):
        trace_module.clear_traces()
        engine = cls(PARTITIONS[k], SPLIT, **kwargs)
        with monkeypatch.context() as patch:
            _interrupt_at(module, name, (steps + 3) * k + 1, patch)
            reports = [engine.run_epoch()]
            with pytest.raises(KeyboardInterrupt):
                engine.run_epoch()
        sides.append(_state(engine, reports))
    assert sides[1] == sides[0]
    assert sides[1]["names"].count("sample") == steps + 3
