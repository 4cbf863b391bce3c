"""The batched DistDGL step against the per-worker step it replaced.

``DistDglEngine`` draws every worker's seeds first and then expands all
workers' frontiers together, one ``rng.integers`` call per layer; the
step before it (:class:`~tests.oracles.distdgl.PerWorkerSamplingEngine`)
drew one worker's seeds and layers after another. The two orders
consume one stream differently, so they agree in two ways only:

* **exactly** where no layer draws — every fan-out at least the
  graph's maximum degree, so the stream only feeds the seed choices,
  which both make per worker in ascending order;
* **in distribution** everywhere else: each worker's mean block and
  input counts over many steps agree within a few standard errors.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.distdgl import DistDglEngine
from repro.distdgl import trace as trace_module
from repro.graph import load_dataset, random_split
from repro.partitioning import RandomVertexPartitioner

from .distdgl import PerWorkerSamplingEngine

GRAPH = load_dataset("OR", "tiny")
SPLIT = random_split(GRAPH, seed=0)
#: Steps averaged by the distribution check.
STEPS = 240
#: Allowed |mean difference| in standard errors of that difference:
#: over 240 steps one standard error is 0.2-0.8 % of a mean count.
TOLERANCE_SE = 5.0


@pytest.fixture(autouse=True)
def fresh_traces():
    trace_module.clear_traces()
    yield
    trace_module.clear_traces()


def _run(cls, partition, epochs, **kwargs):
    """A fresh trace per engine class: the two must not replay each
    other's steps."""
    trace_module.clear_traces()
    engine = cls(partition, SPLIT, **kwargs)
    return engine, engine.run_training(epochs)


@pytest.mark.parametrize("k", [4, 16])
@pytest.mark.parametrize("cache_fraction", [0.0, 0.1])
def test_without_layer_draws_the_steps_are_the_per_worker_steps(
    k, cache_fraction
):
    fanouts = (50, 50, 50)
    assert GRAPH.degrees().max() <= min(fanouts)
    partition = RandomVertexPartitioner().partition(GRAPH, k, seed=k)
    kwargs = dict(
        fanouts=fanouts, global_batch_size=64, seed=3,
        cache_fraction=cache_fraction,
    )
    ours, reports = _run(DistDglEngine, partition, 2, **kwargs)
    theirs, expected = _run(PerWorkerSamplingEngine, partition, 2, **kwargs)
    assert len(ours._trace.steps) == len(theirs._trace.steps) > 0
    for new, old in zip(ours._trace.steps, theirs._trace.steps):
        assert new.active == old.active
        assert new.rng_state == old.rng_state
        for name in ("workers", "blocks", "sample_owners", "inputs",
                     "fetch_owners"):
            a, b = getattr(new, name), getattr(old, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
    for report, old_report in zip(reports, expected):
        for new, old in zip(report.steps, old_report.steps):
            for field in dataclasses.fields(old):
                a, b = getattr(new, field.name), getattr(old, field.name)
                assert np.array_equal(a, b), field.name
    assert ours.comm_summary() == theirs.comm_summary()


def test_with_layer_draws_the_counts_agree_in_distribution():
    fanouts = (15, 10, 5)
    assert GRAPH.degrees().max() > min(fanouts)
    partition = RandomVertexPartitioner().partition(GRAPH, 4, seed=0)
    counts = []
    for cls in (DistDglEngine, PerWorkerSamplingEngine):
        trace_module.clear_traces()
        engine = cls(
            partition, SPLIT, fanouts=fanouts, global_batch_size=64, seed=0
        )
        for _ in range(STEPS):
            engine.run_step()
        steps = engine._trace.steps
        counts.append(np.concatenate([
            np.array([s.blocks for s in steps]).reshape(STEPS, -1),
            np.array([s.inputs for s in steps]).reshape(STEPS, -1),
        ], axis=1).astype(np.float64))
    ours, theirs = counts
    # The orders do differ: the same stream samples other batches.
    assert not np.array_equal(ours, theirs)
    difference = ours.mean(axis=0) - theirs.mean(axis=0)
    standard_error = np.sqrt((ours.var(axis=0) + theirs.var(axis=0)) / STEPS)
    assert np.all(np.abs(difference) <= TOLERANCE_SE * standard_error), (
        difference / np.maximum(standard_error, 1e-12)
    )
