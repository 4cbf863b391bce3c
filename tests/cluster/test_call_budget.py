"""Structural guard: pricing costs a fixed number of Python calls into
``repro.cluster``, whatever the cluster size or the epoch's length.

Every per-machine ledger is a k-vector, so building an engine and
running one DistGNN epoch or one DistDGL step makes the same calls into
the cluster layer on 64 machines as on 4; and epochs are priced in one
pass, so a DistGNN epoch makes the same calls at 2 layers as at 6, and
a DistDGL epoch the same calls at 2 steps as at 24. Counted
with ``sys.setprofile`` (Python frames only), so no wall clock is
involved.
"""

import os
import sys

import pytest

import repro.cluster
from repro.distdgl import DistDglEngine
from repro.distgnn import DistGnnEngine
from repro.partitioning import make_edge_partitioner, make_vertex_partitioner

CLUSTER_DIR = os.path.dirname(repro.cluster.__file__) + os.sep


def cluster_calls(run) -> int:
    """Python calls into ``repro.cluster`` made while ``run()`` runs."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(
            CLUSTER_DIR
        ):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls


def distgnn_epoch(graph, k):
    partition = make_edge_partitioner("hdrf").partition(graph, k, seed=0)
    return lambda: DistGnnEngine(partition, 16, 16, 2).simulate_epoch()


def distdgl_step(graph, split, k):
    partition = make_vertex_partitioner("ldg").partition(graph, k, seed=0)
    return lambda: DistDglEngine(partition, split, num_layers=2).run_step()


@pytest.mark.parametrize("engine", ["distgnn", "distdgl"])
def test_cluster_calls_do_not_grow_with_k(engine, tiny_or, tiny_or_split):
    def calls(k):
        if engine == "distgnn":
            return cluster_calls(distgnn_epoch(tiny_or, k))
        return cluster_calls(distdgl_step(tiny_or, tiny_or_split, k))

    small, large = calls(4), calls(64)
    assert small > 0
    assert large <= small, (small, large)


def test_distdgl_epoch_cluster_calls_do_not_grow_with_steps(
    tiny_or, tiny_or_split
):
    partition = make_vertex_partitioner("ldg").partition(tiny_or, 4, seed=0)

    def calls(global_batch_size):
        engine = DistDglEngine(
            partition, tiny_or_split, num_layers=2,
            global_batch_size=global_batch_size,
        )
        assert engine._steps_per_epoch() == {35: 2, 3: 24}[global_batch_size]
        return cluster_calls(engine.run_epoch)

    few, many = calls(35), calls(3)
    assert few > 0
    assert many == few, (few, many)


@pytest.mark.parametrize("compression", ["none", "fp16"])
def test_distgnn_epoch_cluster_calls_do_not_grow_with_layers(
    tiny_or, compression
):
    partition = make_edge_partitioner("hdrf").partition(tiny_or, 4, seed=0)

    def calls(layers):
        engine = DistGnnEngine(
            partition, 16, 16, layers, compression=compression
        )
        return cluster_calls(engine.simulate_epoch)

    few, many = calls(2), calls(6)
    assert few > 0
    assert many == few, (few, many)
