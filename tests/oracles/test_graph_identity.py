"""Byte-identity of the graph layer's pair-key views against the row-wise bodies.

Every view of a :class:`~repro.graph.Graph` — the deduplicated edge
array, the symmetric CSR, the undirected edge list and the fingerprint —
is one sort of an integer pair key ``src * n + dst``, and the Holme-Kim loop
draws a triangle-closing neighbour with ``integers`` instead of
``choice``. **Byte-identity is that rewrite's contract**: same values,
same dtypes, same fingerprint and the same final generator state as the
verbatim bodies in :mod:`tests.oracles.graph`, on all five stand-ins at
``tiny`` and ``small`` (seeds 0-2), on the benchmark's ``OR`` shape, and
on arbitrary edge arrays with self loops, duplicates, mirrored pairs and
isolated vertices.
"""

from __future__ import annotations

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    DATASET_KEYS,
    Graph,
    build_csr,
    dataset_specs,
    generators,
    powerlaw_cluster_graph,
)

from .graph import (
    oracle_build_csr,
    oracle_dedup_edges,
    oracle_fingerprint,
    oracle_holme_kim_edges,
    oracle_symmetric_csr,
    oracle_undirected_edges,
)

#: The ``graph`` entry of ``bench/workloads.py``'s ``full`` size table.
BENCH_OR = dict(
    num_vertices=1500, edges_per_vertex=14, triangle_prob=0.35,
    community_mean_size=45,
)


def _same(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)


def assert_matches_oracle(
    graph: Graph, num_vertices: int, raw: np.ndarray, directed: bool
) -> None:
    """``graph`` and every view equal the oracle's, built from ``raw``."""
    edges = oracle_dedup_edges(np.asarray(raw, dtype=np.int64), directed)
    _same(graph.edges, edges)
    _same(graph.undirected_edges(), oracle_undirected_edges(edges))
    for got, want in zip(
        graph.symmetric_csr(), oracle_symmetric_csr(num_vertices, edges)
    ):
        _same(got, want)
    assert graph.fingerprint() == oracle_fingerprint(
        num_vertices, directed, edges
    )


def _generate(make, oracle: bool):
    """``make()``'s result and the final state of each generator it
    seeded; with ``oracle``, the Holme-Kim body is the oracle's and the
    result is the generator's raw ``Graph`` arguments, unconstructed."""
    rngs = []
    default_rng = np.random.default_rng

    def recording_rng(*args, **kwargs):
        rngs.append(default_rng(*args, **kwargs))
        return rngs[-1]

    def raw_graph(num_vertices, edges, directed=False, name=""):
        return SimpleNamespace(
            num_vertices=num_vertices, edges=edges, directed=directed
        )

    with mock.patch.object(np.random, "default_rng", recording_rng):
        if not oracle:
            result = make()
        else:
            with mock.patch.object(
                generators, "_holme_kim_edges", oracle_holme_kim_edges
            ), mock.patch.object(generators, "Graph", raw_graph):
                result = make()
    return result, [rng.bit_generator.state for rng in rngs]


def _assert_generator_matches_oracle(make) -> None:
    graph, states = _generate(make, oracle=False)
    raw, oracle_states = _generate(make, oracle=True)
    assert states and states == oracle_states
    assert graph.num_vertices == raw.num_vertices
    assert graph.directed == raw.directed
    assert_matches_oracle(graph, raw.num_vertices, raw.edges, raw.directed)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("scale", ["tiny", "small"])
@pytest.mark.parametrize("key", DATASET_KEYS)
def test_stand_in_matches_oracle(key, scale, seed):
    spec = dataset_specs()[key]
    _assert_generator_matches_oracle(lambda: spec.generate(scale, seed))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bench_or_shape_matches_oracle(seed):
    _assert_generator_matches_oracle(
        lambda: powerlaw_cluster_graph(**BENCH_OR, seed=seed, name="OR")
    )


@settings(max_examples=200, deadline=None)
@given(
    num_vertices=st.integers(1, 60),
    edges_per_vertex=st.integers(1, 9),
    triangle_prob=st.sampled_from([0.0, 0.35, 0.9, 1.0]),
    offset=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_holme_kim_matches_oracle(
    num_vertices, edges_per_vertex, triangle_prob, offset, seed
):
    rngs = [np.random.default_rng(seed) for _ in range(2)]
    args = (num_vertices, edges_per_vertex, triangle_prob)
    got = generators._holme_kim_edges(*args, rngs[0], offset=offset)
    want = oracle_holme_kim_edges(*args, rngs[1], offset=offset)
    assert got == want
    assert [type(v) for pair in got for v in pair] == [
        type(v) for pair in want for v in pair
    ]
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


@st.composite
def edge_arrays(draw):
    """``(num_vertices, rows)``: ids drawn from a prefix of the vertices
    (the rest isolated), with repeated rows, mirrored rows and self loops
    mixed in, as int64 or int32."""
    num_vertices = draw(st.integers(1, 40))
    top = draw(st.integers(0, num_vertices - 1))
    ids = st.integers(0, top)
    rows = np.array(
        draw(st.lists(st.tuples(ids, ids), max_size=60)), dtype=np.int64
    ).reshape(-1, 2)
    loops = np.array(draw(st.lists(ids, max_size=4)), dtype=np.int64)
    extra = [rows, np.stack([loops, loops], axis=1)]
    if rows.size:
        picks = st.lists(st.integers(0, rows.shape[0] - 1), max_size=20)
        extra.append(rows[draw(picks)])
        extra.append(rows[draw(picks)][:, ::-1])
    rows = np.concatenate(extra)
    rows = rows[draw(st.permutations(range(rows.shape[0])))].reshape(-1, 2)
    return num_vertices, rows.astype(draw(st.sampled_from(["i8", "i4"])))


@settings(max_examples=300, deadline=None)
@given(case=edge_arrays(), directed=st.booleans())
def test_edge_arrays_match_oracle(case, directed):
    num_vertices, rows = case
    graph = Graph(num_vertices, rows, directed=directed)
    assert_matches_oracle(graph, num_vertices, rows, directed)


def test_empty_edge_array_matches_oracle():
    for directed in (False, True):
        rows = np.zeros((0, 2), dtype=np.int64)
        assert_matches_oracle(Graph(3, rows, directed), 3, rows, directed)


@settings(max_examples=200, deadline=None)
@given(case=edge_arrays())
def test_build_csr_matches_oracle(case):
    num_vertices, rows = case
    got = build_csr(num_vertices, rows[:, 0], rows[:, 1])
    want = oracle_build_csr(num_vertices, rows[:, 0], rows[:, 1])
    for actual, expected in zip(got, want):
        _same(actual, expected)
