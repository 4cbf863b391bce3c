"""Structural guard: a DistDGL step samples its workers in one pass.

A step draws each worker's seeds with one ``rng.choice``, then expands
every worker's frontier together in one call of
:func:`repro.gnn.sample_layers`: at most one ``rng.integers`` call per
layer, and the same Python calls into ``repro.gnn.sampling`` on 32
workers as on 4. Its buffers hold the step's frontier, never one entry
per (worker, vertex) pair. Counted with a generator proxy,
``sys.setprofile`` (Python frames only) and ``tracemalloc``, so no wall
clock is involved.
"""

import os
import sys
import tracemalloc

import numpy as np
import pytest

import repro.gnn.sampling
from repro.distdgl import DistDglEngine
from repro.graph import Graph, random_split
from repro.partitioning import make_vertex_partitioner

SAMPLING_FILE = os.path.abspath(repro.gnn.sampling.__file__)
FANOUTS = (15, 10, 5)


class CountingGenerator:
    """A ``numpy.random.Generator`` that counts its draw calls."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = {"choice": 0, "integers": 0}

    def __getattr__(self, name):
        if name in self.calls:
            self.calls[name] += 1
        return getattr(self.rng, name)


def engine(graph, split, k, **kwargs):
    partition = make_vertex_partitioner("random").partition(graph, k, seed=0)
    return DistDglEngine(
        partition, split, num_layers=len(FANOUTS), fanouts=FANOUTS, **kwargs
    )


def sampling_calls(run) -> int:
    """Python calls into ``repro.gnn.sampling`` (generator resumptions
    included) made while ``run()`` runs."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename == SAMPLING_FILE:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls


@pytest.mark.parametrize("k", [4, 32])
def test_one_choice_per_worker_and_one_draw_per_layer(k, tiny_or, tiny_or_split):
    assert tiny_or.degrees().max() > max(FANOUTS)  # layers do draw
    dgl = engine(tiny_or, tiny_or_split, k, global_batch_size=256)
    rng = CountingGenerator(np.random.default_rng(0))
    counts = dgl._sample(tuple(range(k)), rng)
    assert counts.workers.size == sum(
        pool.size > 0 for pool in dgl.train_per_worker
    )
    assert rng.calls["choice"] == counts.workers.size
    assert 0 < rng.calls["integers"] <= len(FANOUTS)


def test_sampling_calls_do_not_grow_with_k(tiny_or, tiny_or_split):
    def calls(k):
        dgl = engine(tiny_or, tiny_or_split, k, global_batch_size=256)
        return sampling_calls(
            lambda: dgl._sample(tuple(range(k)), np.random.default_rng(0))
        )

    small, large = calls(4), calls(32)
    assert small > 0
    assert large == small, (small, large)


def test_step_buffers_do_not_grow_as_k_times_v():
    """At k = 32 on 2^17 vertices, one sampled step allocates less than
    one byte per (worker, vertex) pair: membership costs O(frontier)."""
    n, k = 1 << 17, 32
    edges = np.random.default_rng(0).integers(0, n, size=(4 * n, 2))
    graph = Graph(n, edges)
    split = random_split(graph, seed=0)
    dgl = engine(graph, split, k, global_batch_size=2 * k)
    graph.symmetric_csr()
    tracemalloc.start()
    try:
        dgl._sample(tuple(range(k)), np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < k * n, (peak, k * n)
