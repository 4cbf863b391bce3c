"""The cluster's books balance on real engine runs.

Bytes are conserved: summed over every phase, the fabric's ``src x dst``
matrices have row sums equal to each machine's bytes sent and column
sums equal to its bytes received, and total sent equals total received
(``Cluster.check_traffic_invariant``). Time is conserved: the makespan
is the sum of the per-phase straggler totals. The runner checks the
traffic law only with obs on, so it is called explicitly here, across
both engines, codecs, cd-r refresh, fault injection and cluster sizes
(``refresh_interval`` is a DistGNN mechanism; DistDGL runs ignore it,
as the runner does).
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.distdgl import DistDglEngine
from repro.distgnn import DistGnnEngine
from repro.experiments import FaultConfig
from repro.graph import powerlaw_cluster_graph, random_split
from repro.partitioning import make_edge_partitioner, make_vertex_partitioner

GRAPH = powerlaw_cluster_graph(
    num_vertices=320, edges_per_vertex=10, triangle_prob=0.35,
    community_mean_size=40, seed=11, name="OR",
)
SPLIT = random_split(GRAPH, seed=11)
FAULTS = FaultConfig(
    crash_rate=0.3, slowdown_rate=0.3, loss_rate=0.3, checkpoint_every=2,
    seed=7,
)


@lru_cache(maxsize=None)
def partition(engine, k):
    if engine == "distgnn":
        return make_edge_partitioner("hdrf").partition(GRAPH, k, seed=0)
    return make_vertex_partitioner("ldg").partition(GRAPH, k, seed=0)


def run(engine, codec, refresh, faults, k):
    """The cluster of a three-epoch run (two for DistDGL)."""
    epochs = 3 if engine == "distgnn" else 2
    kwargs = {}
    if faults:
        kwargs = dict(
            fault_plan=FAULTS.plan(k, epochs), recovery=FAULTS.policy()
        )
    if engine == "distgnn":
        model = DistGnnEngine(
            partition(engine, k), 16, 16, 2, compression=codec,
            refresh_interval=refresh,
        )
        model.simulate_training(epochs, **kwargs)
    else:
        model = DistDglEngine(
            partition(engine, k), SPLIT, feature_size=16, hidden_dim=16,
            num_layers=2, global_batch_size=64, compression=codec,
        )
        model.run_training(epochs, **kwargs)
    return model.cluster


@pytest.mark.parametrize("k", [1, 8, 32])
@pytest.mark.parametrize("faults", [False, True], ids=["clean", "faults"])
@pytest.mark.parametrize("refresh", [1, 2])
@pytest.mark.parametrize("codec", ["none", "fp16", "topk"])
@pytest.mark.parametrize("engine", ["distgnn", "distdgl"])
def test_engine_books_balance(engine, codec, refresh, faults, k):
    cluster = run(engine, codec, refresh, faults, k)
    cluster.check_traffic_invariant()
    timeline = cluster.timeline
    assert timeline.total_seconds == pytest.approx(
        sum(timeline.phase_totals().values())
    )
    if k > 1:
        assert cluster.fabric.sent.sum() > 0


def test_matrix_that_disagrees_with_its_sent_vector_is_caught():
    """The check compares two independently recorded sides: a phase
    whose port vector and pairwise matrix disagree fails it."""
    cluster = Cluster(3)
    matrix = np.array([[0.0, 4.0, 1.0], [2.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
    sent = matrix.sum(axis=1)
    sent[0] += 1.0  # five bytes attributed pairwise, six sent
    cluster.record_traffic_rows(
        ["sync"], sent[None], matrix.sum(axis=0)[None], matrix[None]
    )
    with pytest.raises(RuntimeError, match="bytes sent"):
        cluster.check_traffic_invariant()
