"""``repro.gnn.sample_blocks`` over the layer generator against its oracle.

The shipped sampler replaces three hash-path ``np.unique`` calls with
one sort-based ``sorted_unique`` and builds its blocks from
:func:`repro.gnn.sample_layers`. **Byte-identity is the contract**: for
every case, every block's ``src_ids`` / ``edge_src`` / ``edge_dst``
(values and dtypes), ``num_dst``, the deduplicated seeds, and the
generator state after the call equal what the verbatim old sampler
(:mod:`tests.oracles.sampling`) produces from the same state. numpy's
1-D ``unique`` is sort-based up to 2.0 and hashes from 2.3, so this
runs against whichever one the environment has.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gnn import sample_blocks, sample_layers
from repro.graph import (
    Graph,
    load_dataset,
    powerlaw_cluster_graph,
    sorted_unique,
)

from .sampling import sample_blocks as oracle_sample_blocks

#: Hub 0 with 19 leaves and a self loop, vertex 20 of degree exactly 5
#: (four leaves and a loop), and vertices 26..29 isolated.
STAR = Graph(
    30,
    np.array(
        [(0, i) for i in range(1, 20)] + [(0, 0), (3, 3), (7, 7)]
        + [(20, i) for i in range(21, 25)] + [(20, 20), (21, 25)]
    ),
    name="star",
)
#: K6: every degree is exactly 5.
CLIQUE = Graph(
    6, np.array([(u, v) for u in range(6) for v in range(u + 1, 6)]),
    name="clique",
)
GRAPHS = {
    "or-tiny": load_dataset("OR", "tiny"),
    "powerlaw": powerlaw_cluster_graph(
        num_vertices=150, edges_per_vertex=6, triangle_prob=0.3,
        community_mean_size=20, seed=3, name="OR",
    ),
    "star": STAR,
    "clique": CLIQUE,
}
SEEDS = {
    "duplicates": lambda n: np.array([0, n - 1, 0, 1, n - 1, 1, 0]),
    "isolated": lambda n: np.array([n - 1, n - 2, n - 1, 0]),
    "every-vertex": lambda n: np.arange(n)[::-1],
    "single": lambda n: np.array([n // 2]),
}
#: 1-4 layers, fan-out 1, fan-outs equal to K6's and vertex 20's degree.
FANOUTS = [(1,), (5,), (4, 5), (1, 1, 1), (2, 6, 3), (10, 10, 5, 5)]


def assert_same_batch(graph, seeds, fanouts, seed):
    ours_rng = np.random.default_rng(seed)
    theirs_rng = np.random.default_rng(seed)
    ours = sample_blocks(graph, seeds, fanouts, ours_rng)
    theirs = oracle_sample_blocks(graph, seeds, fanouts, theirs_rng)
    assert ours.seeds.dtype == theirs.seeds.dtype
    assert np.array_equal(ours.seeds, theirs.seeds)
    assert len(ours.blocks) == len(theirs.blocks) == len(fanouts)
    for new, old in zip(ours.blocks, theirs.blocks):
        assert new.num_dst == old.num_dst
        for name in ("src_ids", "edge_src", "edge_dst"):
            a, b = getattr(new, name), getattr(old, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert ours_rng.bit_generator.state == theirs_rng.bit_generator.state


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("fanouts", FANOUTS, ids=str)
@pytest.mark.parametrize("seeds", list(SEEDS))
@pytest.mark.parametrize("graph", list(GRAPHS))
def test_sample_blocks_matches_oracle(graph, seeds, fanouts, seed):
    graph = GRAPHS[graph]
    assert_same_batch(graph, SEEDS[seeds](graph.num_vertices), fanouts, seed)


def test_cases_reach_every_branch():
    """The matrix above really holds isolated seeds, loops, a hub above
    the fan-out and degrees equal to it."""
    degrees = STAR.degrees()
    assert (degrees[SEEDS["isolated"](30)[:2]] == 0).all()
    assert degrees[0] == 20 and degrees[20] == 5
    assert (CLIQUE.degrees() == 5).all()
    indptr, indices = STAR.symmetric_csr()
    assert 0 in indices[indptr[0]:indptr[1]]


@settings(max_examples=60, deadline=None)
@given(
    num_vertices=st.integers(1, 40),
    data=st.data(),
)
def test_random_multigraphs_match_oracle(num_vertices, data):
    pairs = data.draw(st.lists(
        st.tuples(
            st.integers(0, num_vertices - 1), st.integers(0, num_vertices - 1)
        ),
        max_size=120,
    ))
    edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    graph = Graph(num_vertices, edges)
    seeds = data.draw(st.lists(
        st.integers(0, num_vertices - 1), min_size=1, max_size=12
    ))
    fanouts = tuple(data.draw(st.lists(
        st.integers(1, 8), min_size=1, max_size=4
    )))
    assert_same_batch(graph, np.array(seeds), fanouts, data.draw(
        st.integers(0, 2**32 - 1)
    ))


def test_layers_carry_the_block_counts():
    """What the DistDGL engine reads from the generator equals the
    blocks' counts, layer for layer (generator order is seeds inward)."""
    graph = GRAPHS["or-tiny"]
    seeds, fanouts = np.arange(0, 90, 3), (10, 10, 5, 5)
    batch = oracle_sample_blocks(
        graph, seeds, fanouts, np.random.default_rng(4)
    )
    layers = list(sample_layers(
        graph, seeds, fanouts, np.random.default_rng(4)
    ))
    assert len(layers) == len(batch.blocks)
    for (frontier, src, dst, extra), block in zip(
        layers, reversed(batch.blocks)
    ):
        assert np.array_equal(frontier, block.src_ids[: block.num_dst])
        assert np.array_equal(extra, block.src_ids[block.num_dst:])
        assert np.array_equal(src, block.src_ids[block.edge_src])
        assert np.array_equal(dst, block.edge_dst)


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.integers(-(2**40), 2**40), max_size=50),
    dtype=st.sampled_from([np.int64, np.int32, np.uint16, np.float64]),
)
def test_sorted_unique_is_unique(values, dtype):
    array = np.array(values).astype(dtype)
    ours, theirs = sorted_unique(array), np.unique(array)
    assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)
