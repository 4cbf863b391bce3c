"""Byte-identity of 2PS-L's pre-filtered passes against the per-edge loops.

PR 23 made ``TwoPsLPartitioner._cluster_blocks`` and ``_place_blocks``
evaluate a slice of the stream against a state snapshot and visit one by
one only the edges the snapshot cannot settle. **Byte-identity is that
PR's contract**: same ``cluster_of``, same ``cluster_to_part``, same
assignment as :class:`tests.oracles.twops.OracleTwoPsLPartitioner`, in
memory and out of core, wherever block and slice boundaries fall.

The matrix is {in-memory, store chunk 1 / 7 / 4 096 / 65 536} x k x seed x
stream x ``balance_cap`` x slice length {1, 3, default}; ``balance_cap =
1.0`` saturates partitions and forces the spill branch, slice lengths 1
and 3 put slice boundaries inside merge chains. Two cuts keep it inside
tier-1's time: the two ~20 000-row streams skip store chunks 1 and 7 and
slices 1 and 3 (a 20 000-file spool read four times a run, 40 000 numpy
round trips a pass), and store chunk 1 runs at the default slice length
only (a one-row block is one slice whatever the length). Every other
cell of the cross runs.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph, powerlaw_cluster_graph, rmat_edge_chunks
from repro.graph.chunkstore import spool_edges
from repro.partitioning import TwoPsLPartitioner
from repro.partitioning.vertexcut import twops

from .twops import OracleTwoPsLPartitioner

KS = [2, 8, 32]
SEEDS = [0, 1, 2]
CAPS = [1.0, 1.05, 2.0]
STORE_CHUNKS = [1, 7, 4096, 65536]
SLICES = [1, 3, twops._SLICE_EDGES]
#: Streams longer than this skip the tiny store chunks and slices.
FULL_CROSS_ROWS = 2000


def _or_like(n: int, m: int, seed: int) -> np.ndarray:
    return powerlaw_cluster_graph(
        num_vertices=n, edges_per_vertex=m, triangle_prob=0.35,
        community_mean_size=45, seed=seed, name="OR",
    ).edges


def _streams():
    """``name -> (num_vertices, rows)``; rows may repeat and self-loop."""
    small = _or_like(60, 3, seed=3)
    yield "or-like", (1500, _or_like(1500, 14, seed=0))
    yield "rmat-12", (
        1 << 12, np.concatenate(list(rmat_edge_chunks(12, 20_000, seed=0)))
    )
    yield "star", (120, np.array([(0, i) for i in range(1, 120)]))
    yield "two-components", (120, np.concatenate([small, small + 60]))
    yield "isolated-vertices", (110, small)
    loops = np.array([(v, v) for v in (0, 5, 17, 59, 61)])  # 61: no other edge
    yield "self-loops", (62, np.concatenate([small, loops]))
    yield "duplicate-edges", (
        60, np.concatenate([small, small[::2], small[:40, ::-1]])
    )
    yield "k-exceeds-n", (
        5, np.array([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    )


STREAMS = dict(_streams())


class _Recording:
    """Keep what the clustering phase hands to the placement phase."""

    def _pack_clusters(self, cluster_of, degrees, num_partitions):
        mapping = super()._pack_clusters(cluster_of, degrees, num_partitions)
        self.clustering = (cluster_of, mapping)
        return mapping


class RecordingNew(_Recording, TwoPsLPartitioner):
    pass


class RecordingOracle(_Recording, OracleTwoPsLPartitioner):
    pass


def _in_memory(cls, graph, k, seed, cap):
    partitioner = cls(balance_cap=cap)
    assignment = partitioner.partition(graph, k, seed=seed).assignment
    return (*partitioner.clustering, assignment)


def _out_of_core(cls, reader, k, cap):
    partitioner = cls(balance_cap=cap)
    assignment = partitioner.partition_stream(reader, k).assignment
    return (*partitioner.clustering, assignment)


def _stream_degrees(blocks, num_vertices):
    """What ``stream_degrees`` computes, for blocks that are not a store."""
    degrees = np.zeros(num_vertices, dtype=np.int64)
    for block in blocks:
        u, v = block[:, 0], block[:, 1]
        degrees += np.bincount(u, minlength=num_vertices)
        degrees += np.bincount(v[v != u], minlength=num_vertices)
    return degrees


def _assert_same(new, old, where):
    for field, mine, theirs in zip(
        ("cluster_of", "cluster_to_part", "assignment"), new, old
    ):
        assert mine.dtype == theirs.dtype, (field, where)
        assert np.array_equal(mine, theirs), (field, where)


@pytest.fixture(scope="module")
def spools(tmp_path_factory):
    """``(stream, seed, chunk) -> reader``; the seed permutes the rows."""
    root = tmp_path_factory.mktemp("twops-spools")
    opened = {}

    def spool(name, seed, chunk):
        key = (name, seed, chunk)
        if key not in opened:
            num_vertices, rows = STREAMS[name]
            order = np.random.default_rng(seed).permutation(rows.shape[0])
            opened[key] = spool_edges(
                [rows[order]], str(root / f"{name}-{seed}-{chunk}"),
                chunk_size=chunk, num_vertices=num_vertices, directed=True,
            )
        return opened[key]

    return spool


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("name", list(STREAMS))
def test_matches_oracle(name, k, cap, spools, monkeypatch):
    num_vertices, rows = STREAMS[name]
    full_cross = rows.shape[0] <= FULL_CROSS_ROWS
    graph = Graph(num_vertices, rows)
    for seed in SEEDS:
        memory_oracle = _in_memory(RecordingOracle, graph, k, seed, cap)
        store_oracle = _out_of_core(
            RecordingOracle, spools(name, seed, 65536), k, cap
        )
        for slice_edges in SLICES if full_cross else SLICES[-1:]:
            monkeypatch.setattr(twops, "_SLICE_EDGES", slice_edges)
            where = (name, k, cap, seed, slice_edges)
            _assert_same(
                _in_memory(RecordingNew, graph, k, seed, cap),
                memory_oracle, where + ("in-memory",),
            )
            for chunk in STORE_CHUNKS if full_cross else STORE_CHUNKS[2:]:
                if chunk == 1 and slice_edges != SLICES[-1]:
                    continue
                _assert_same(
                    _out_of_core(
                        RecordingNew, spools(name, seed, chunk), k, cap
                    ),
                    store_oracle, where + (chunk,),
                )


def test_saturating_cap_reaches_the_spill_branch():
    """``balance_cap = 1.0`` is in the matrix to exercise first-full,
    second-full and ``argmin`` placements; make sure it does."""
    num_vertices, rows = STREAMS["or-like"]
    k = 8
    partitioner = RecordingNew(balance_cap=1.0, shuffle_stream=False)
    graph = Graph(num_vertices, rows)
    part = partitioner.partition(graph, k, seed=0)
    cluster_of, cluster_to_part = partitioner.clustering
    owners = cluster_to_part[cluster_of][part.edges]
    spilled = (part.assignment != owners[:, 0]) & (
        part.assignment != owners[:, 1]
    )
    assert spilled.any()


# ----------------------------------------------------------------------
# Random multigraph streams cut at arbitrary block boundaries
# ----------------------------------------------------------------------
@st.composite
def cut_streams(draw):
    """A multigraph stream (loops, repeats, isolates) and where to cut it."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(0, 6 * n))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    rows = rng.integers(0, n, size=(m, 2))
    cuts = sorted(draw(st.sets(st.integers(0, m), max_size=8)))
    return n, rows, np.split(rows, cuts)


@settings(max_examples=150, deadline=None)
@given(case=cut_streams(), k=st.integers(1, 9),
       cap=st.sampled_from([1.0, 1.05, 1.5]), slice_edges=st.integers(1, 12))
def test_random_cut_streams_match_oracle(case, k, cap, slice_edges):
    n, rows, blocks = case
    degrees = _stream_degrees(blocks, n)
    results = []
    with mock.patch.object(twops, "_SLICE_EDGES", slice_edges):
        for cls, factory in (
            (TwoPsLPartitioner, lambda: iter(blocks)),
            (OracleTwoPsLPartitioner, lambda: (rows,)),
        ):
            partitioner = cls(balance_cap=cap)
            cluster_of = partitioner._cluster_blocks(
                degrees, n, factory, rows.shape[0], k
            )
            mapping = partitioner._pack_clusters(cluster_of, degrees, k)
            placed = [
                out for _, out in partitioner._place_blocks(
                    factory, cluster_of, mapping, k, degrees, rows.shape[0]
                )
            ]
            results.append(
                (cluster_of, mapping, np.concatenate(placed))
            )
    _assert_same(*results, (n, k, cap, slice_edges))


# ----------------------------------------------------------------------
# The pre-filter must keep filtering
# ----------------------------------------------------------------------
def test_prefilter_passes_few_edges_to_the_merge_loop(monkeypatch):
    """On the benchmark's stream shape (RMAT scale 16, 10^6 edges, k = 32)
    the union-find loop sees well under a tenth of the 2|E| clustering
    visits the per-edge loop makes (3 % when this was written)."""
    scale, num_edges, k = 16, 1_000_000, 32
    blocks = list(rmat_edge_chunks(scale, num_edges, seed=0))
    degrees = _stream_degrees(blocks, 1 << scale)
    visits = []
    merge_edges = TwoPsLPartitioner._merge_edges

    def counting(edge_roots, *args):
        visits.append(len(edge_roots))
        return merge_edges(edge_roots, *args)

    monkeypatch.setattr(
        TwoPsLPartitioner, "_merge_edges", staticmethod(counting)
    )
    TwoPsLPartitioner()._cluster_blocks(
        degrees, 1 << scale, lambda: iter(blocks), num_edges, k
    )
    assert 0 < sum(visits) < 0.10 * 2 * num_edges
