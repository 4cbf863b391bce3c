"""Structural guard: HEP's refinement builds one state and walks little.

One HEP partition of an ``OR``-like sweep graph at k = 32 builds the
replica dicts and the incidence CSR of its refinement once, for all
four passes, and each walk evaluates only a small share of the visits
the full walks make (one per permuted entry and sweep). HEP builds an
HDRF stream state only when some edge is left to stream. Counted with
module-attribute wrappers and a generator proxy, so no wall clock is
involved.
"""

from collections import Counter

import numpy as np
import pytest

from repro.graph import Graph, powerlaw_cluster_graph
from repro.partitioning import HepPartitioner
from repro.partitioning.vertexcut import hep, refine

#: Measured on this graph at seed 0: the edge walk pops 1 367 of 69 728
#: permuted entries (2.0 %), the coalesce walk 237 of 3 264 (7.3 %).
EDGE_SHARE = 0.05
COALESCE_SHARE = 0.12


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster_graph(
        num_vertices=1500, edges_per_vertex=14, triangle_prob=0.35,
        community_mean_size=45, seed=0, name="OR",
    )


def counting(monkeypatch, module, name, tally, key=None):
    """Replace ``module.name`` by a wrapper that counts its calls."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        tally[key() if key else name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_state_is_built_once_per_partition(graph, monkeypatch):
    builds = Counter()
    for name in ("_replica_counts", "incidence"):
        counting(monkeypatch, refine, name, builds)
    HepPartitioner(tau=10.0).partition(graph, 32, seed=0)
    assert builds == {"_replica_counts": 1, "incidence": 1}


@pytest.mark.parametrize("tau", [10.0, 100.0])
def test_no_stream_state_when_nothing_streams(graph, monkeypatch, tau):
    """No vertex of the sweep graph passes ``tau`` x the mean degree and
    NE places every edge, so nothing is left to stream."""
    builds = Counter()
    counting(monkeypatch, hep, "HdrfState", builds)
    HepPartitioner(tau=tau).partition(graph, 32, seed=0)
    assert builds == {}


def test_one_stream_state_for_hub_edges(monkeypatch):
    """A hub of degree 200 against a mean degree of ~4 streams its edges."""
    ring = [(v, v % 200 + 1) for v in range(1, 201)]
    star = Graph(201, [(0, v) for v in range(1, 201)] + ring)
    builds = Counter()
    counting(monkeypatch, hep, "HdrfState", builds)
    partition = HepPartitioner(tau=10.0).partition(star, 4, seed=0)
    assert builds == {"HdrfState": 1}
    assert (partition.assignment >= 0).all()


def test_walks_visit_a_small_share_of_the_full_walks(graph, monkeypatch):
    """Heap pops (an upper bound on evaluated visits) against the entries
    the passes permute, which are the full walks' visits."""
    running, drawn, pops = [], Counter(), Counter()
    make_rng = np.random.default_rng

    class Drawn:
        def __init__(self, seed):
            self.rng = make_rng(seed)

        def permutation(self, entries):
            order = self.rng.permutation(entries)
            if running:
                drawn[running[-1]] += order.shape[0]
            return order

        def __getattr__(self, name):
            return getattr(self.rng, name)

    for name in ("refine_edges", "coalesce"):
        run = getattr(refine.ReplicaState, name)

        def labelled(self, *args, _name=name, _run=run, **kwargs):
            running.append(_name)
            try:
                return _run(self, *args, **kwargs)
            finally:
                running.pop()

        monkeypatch.setattr(refine.ReplicaState, name, labelled)
    monkeypatch.setattr(refine.np.random, "default_rng", Drawn)
    counting(monkeypatch, refine, "heappop", pops, key=lambda: running[-1])
    HepPartitioner(tau=10.0).partition(graph, 32, seed=0)
    assert drawn["refine_edges"] > 0 and drawn["coalesce"] > 0
    assert pops["refine_edges"] <= EDGE_SHARE * drawn["refine_edges"], (
        pops, drawn
    )
    assert pops["coalesce"] <= COALESCE_SHARE * drawn["coalesce"], (
        pops, drawn
    )
