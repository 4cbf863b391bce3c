"""A DistGNN epoch priced in one pass against pricing phase by phase.

``DistGnnEngine.simulate_epoch`` prices every layer at once: one
``(phases x k)`` block through ``Cluster.add_phases`` and one bulk
traffic append, whatever the layer count. **Bit identity is the
contract**: every ``EpochBreakdown``, the timeline block, names,
durations and marks, the memory watermarks, the fabric's byte vectors
and per-phase matrices, the ``CommSummary``, the metrics-level obs
snapshot and the runner's records equal those of the per-layer oracle
(:mod:`tests.oracles.distgnn`) driven the same way.

Every test runs twice: as is, and with ``builtins.sum`` patched to an
exactly rounded float sum (:func:`math.fsum`). Python 3.12 made the
builtin ``sum`` of floats compensated; the patch emulates that on any
interpreter, so an accumulation that swapped a left-to-right ``+=``
chain for ``sum()`` fails here too, not only on 3.12.
"""

from __future__ import annotations

import builtins
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest

from repro.cluster import FaultEvent, FaultPlan, RecoveryPolicy
from repro.distgnn import DistGnnEngine
from repro.experiments import (
    CommConfig,
    FaultConfig,
    TrainingParams,
    clear_cache,
    runner,
)
from repro.graph import powerlaw_cluster_graph
from repro.obs import api as obs
from repro.partitioning import HdrfPartitioner

from .distgnn import OracleDistGnnEngine

GRAPH = powerlaw_cluster_graph(
    num_vertices=320, edges_per_vertex=10, triangle_prob=0.35,
    community_mean_size=40, seed=11, name="OR",
)
PARTITIONS = {
    k: HdrfPartitioner().partition(GRAPH, k, seed=k) for k in (1, 2, 8)
}
CODECS = ["none", "fp16", "int8", "topk"]
_builtin_sum = builtins.sum


def _compensated_sum(iterable, start=0):
    """``sum`` with an exactly rounded result for float terms."""
    terms = [start, *iterable]
    if any(isinstance(term, float) for term in terms) and all(
        isinstance(term, (int, float)) for term in terms
    ):
        return math.fsum(terms)
    return _builtin_sum(terms[1:], start)


@pytest.fixture(autouse=True, params=["sum", "fsum"])
def summation(request, monkeypatch):
    if request.param == "fsum":
        monkeypatch.setattr(builtins, "sum", _compensated_sum)


@pytest.fixture
def metrics_level():
    obs.configure("metrics")
    obs.reset()
    yield
    obs.configure("off")
    obs.reset()


def test_compensated_sum_differs_from_a_plus_equals_chain():
    """The patched ``sum`` is the one the module runs under."""
    total = 0.0
    for term in [0.1] * 10:
        total += term
    assert total == 0.9999999999999999
    assert sum([0.1] * 10) == (
        1.0 if builtins.sum is _compensated_sum else total
    )
    assert sum([1, 2, 3]) == 6 and isinstance(sum([1, 2]), int)
    assert sum([[1], [2]], []) == [1, 2]


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


def _state(engine, breakdowns):
    """Every observable of an engine after a run, as comparable bits."""
    cluster, timeline = engine.cluster, engine.cluster.timeline
    rows = len(timeline._names)
    return {
        "breakdowns": [
            [_bits(getattr(b, f.name)) for f in dataclasses.fields(b)]
            for b in breakdowns
        ],
        "block": _bits(timeline._seconds[:rows]),
        "names": list(timeline._names),
        "durations": [_bits(d) for d in timeline._durations],
        "interrupted": list(timeline._interrupted),
        "marks": list(timeline.marks),
        "watermarks": [
            (phase, _bits(mark))
            for phase, mark in cluster.memory_watermark_timeline().items()
        ],
        "fabric": [
            _bits(getattr(cluster.fabric, name))
            for name in ("sent", "received", "lost_messages")
        ],
        "matrices": [
            (phase, _bits(matrix))
            for phase, matrix in cluster.fabric.traffic_matrix_phases().items()
        ],
        "comm": [
            _bits(getattr(engine.comm, f.name))
            for f in dataclasses.fields(engine.comm)
        ],
        "faults": dataclasses.astuple(engine.fault_summary),
    }


def _run(cls, partition, level, train, **kwargs):
    """``cls``'s state after ``train(engine)`` at obs ``level``, and its
    snapshot."""
    obs.configure(level)
    obs.reset()
    try:
        engine = cls(partition, **kwargs)
        state = _state(engine, train(engine))
        return state, _snapshot()
    finally:
        obs.configure("off")
        obs.reset()


def _assert_matches_oracle(partition, train, levels=("off", "metrics"),
                           **kwargs):
    for level in levels:
        theirs = _run(OracleDistGnnEngine, partition, level, train, **kwargs)
        ours = _run(DistGnnEngine, partition, level, train, **kwargs)
        for key, value in theirs[0].items():
            assert ours[0][key] == value, (level, key)
        assert ours[1] == theirs[1], level
        if level == "metrics":
            assert any(e["name"] == "distgnn.epochs" for e in ours[1])


def _epochs(count, **kwargs):
    return lambda engine: engine.simulate_training(count, **kwargs)


@pytest.mark.parametrize("layers", [1, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 8])
@pytest.mark.parametrize("refresh", [1, 3])
@pytest.mark.parametrize("compression", CODECS)
def test_epochs_match_oracle(compression, refresh, k, layers):
    """Four epochs — with refresh 3: fresh, stale, stale, fresh — with
    obs off and at the metrics level."""
    _assert_matches_oracle(
        PARTITIONS[k], _epochs(4), feature_size=24, hidden_dim=12,
        num_layers=layers, num_classes=5, compression=compression,
        refresh_interval=refresh,
    )


@pytest.mark.parametrize("k", [2, 8])
@pytest.mark.parametrize("compression", ["none", "int8"])
def test_stretch_and_machine_speeds_match_oracle(compression, k):
    """Heterogeneous machine speeds, and per-epoch slowdown stretch
    given straight to ``simulate_epoch``."""
    rng = np.random.default_rng(k)
    stretches = [None] + [1.0 + rng.random(k) * 3 for _ in range(2)]

    def train(engine):
        return [engine.simulate_epoch(stretch) for stretch in stretches]

    _assert_matches_oracle(
        PARTITIONS[k], train, feature_size=16, hidden_dim=8, num_layers=3,
        compression=compression, refresh_interval=2,
        machine_speeds=0.5 + rng.random(k),
    )


FAULT_PLANS = {
    "crash-replay": FaultPlan((
        FaultEvent("crash", epoch=3, machine=1),
        FaultEvent("crash", epoch=4, machine=0),
    )),
    "slowdown": FaultPlan((
        FaultEvent("slowdown", epoch=1, machine=1, magnitude=2.5),
        FaultEvent("slowdown", epoch=1, machine=9, magnitude=1.5),
        FaultEvent("slowdown", epoch=4, machine=0, magnitude=4.0),
    )),
    "loss": FaultPlan((
        FaultEvent("lost-message", epoch=0, machine=1),
        FaultEvent("lost-message", epoch=2, machine=0),
    )),
    "all": FaultPlan((
        FaultEvent("crash", epoch=2, machine=0),
        FaultEvent("slowdown", epoch=2, machine=1, magnitude=3.0),
        FaultEvent("lost-message", epoch=2, machine=1),
        FaultEvent("crash", epoch=5, machine=1),
    )),
}


@pytest.mark.parametrize("plan", list(FAULT_PLANS))
@pytest.mark.parametrize("k", [1, 2, 8])
@pytest.mark.parametrize("compression", ["none", "fp16", "topk"])
def test_faulty_training_matches_oracle(compression, k, plan):
    """Crashes (``replay:`` epochs), slowdowns and lost messages under
    a checkpoint every 3 epochs, cd-r with r = 2."""
    _assert_matches_oracle(
        PARTITIONS[k],
        _epochs(
            6, fault_plan=FAULT_PLANS[plan],
            recovery=RecoveryPolicy(checkpoint_every=3),
        ),
        feature_size=24, hidden_dim=12, num_layers=3,
        compression=compression, refresh_interval=2,
    )


RECORD_CASES = {
    "clean": dict(num_epochs=2),
    "cd-3-int8": dict(
        num_epochs=4,
        comm_config=CommConfig(compression="int8", refresh_interval=3),
    ),
    "faults-fp16": dict(
        num_epochs=4,
        comm_config=CommConfig(compression="fp16"),
        fault_config=FaultConfig(
            crash_rate=0.3, slowdown_rate=0.3, loss_rate=0.3,
            checkpoint_every=2, seed=7,
        ),
    ),
}


@pytest.mark.parametrize("case", list(RECORD_CASES))
@pytest.mark.parametrize("k", [2, 8])
def test_records_match_oracle(k, case, metrics_level):
    """The runner's records, ``obs_metrics`` included."""
    params = TrainingParams(feature_size=24, hidden_dim=12, num_layers=3)
    clear_cache()
    try:
        runs = []
        for cls in (OracleDistGnnEngine, DistGnnEngine):
            obs.reset()
            with mock.patch.object(runner, "DistGnnEngine", cls):
                runs.append(runner.run_distgnn(
                    GRAPH, "hdrf", k, params, seed=3,
                    enforce_memory_budget=True, **RECORD_CASES[case],
                ))
        theirs, ours = runs
        assert ours.obs_metrics is not None
        assert ours == theirs
    finally:
        clear_cache()
