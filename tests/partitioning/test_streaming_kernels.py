"""The per-block shortcuts of the streaming kernels, and what they rest on.

HDRF reads whether an endpoint is touched from its partial degree, takes
each edge's degrees from its occurrence rank in the chunk, and lets edges
that share only a *saturated* vertex (membership row all True) into the
same wave. LDG / Fennel / reLDG take each row's ``argmax`` and walk the
rest of its frozen score order only when that partition is full. The
shuffle buckets a store chunk's worth of rows at a time. Each shortcut is
exact; these tests pin the invariants it relies on, drive every new
branch against the scalar references of ``tests.oracles.streaming``, and
guard the structure (scalar-tail edges, bucket appends) without a clock.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import load_dataset, rmat_edge_chunks, spool_edges
from repro.graph.chunkstore import EdgeChunkWriter
from repro.partitioning import LdgPartitioner, make_edge_partitioner, shuffle_stream
from repro.partitioning.chunking import MIN_CHUNK
from repro.partitioning.edgecut.streaming import VertexStreamState
from repro.partitioning.vertexcut.streaming import HdrfState

from ..oracles.streaming import OracleHdrfState, streaming_kernels


def _counting(cls, name):
    """Patch ``cls.name`` with a mock that counts calls and runs it."""
    return mock.patch.object(
        cls, name, autospec=True, side_effect=getattr(cls, name)
    )


def _assert_state_invariants(state: HdrfState) -> None:
    assert np.array_equal(
        state.membership.any(axis=1), state.partial_degree > 0
    )
    assert state.membership[state._saturated].all()


# ----------------------------------------------------------------------
# HDRF
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 30), m=st.integers(0, 200), seeded=st.integers(0, 40),
       k=st.integers(1, 6), chunk=st.integers(1, 48),
       lambda_balance=st.sampled_from([0.0, 1.1]), seed=st.integers(0, 999))
def test_hdrf_membership_follows_degree(n, m, seeded, k, chunk,
                                        lambda_balance, seed):
    """A row is non-empty iff its degree is > 0, and a flagged row is
    full — after HEP's ``seed_from`` and after any stream."""
    rng = np.random.default_rng(seed)
    prior = rng.integers(0, n, size=(seeded, 2))
    rows = rng.integers(0, n, size=(m, 2))
    state = HdrfState(n, k, lambda_balance, chunk_size=chunk)
    state.seed_from(prior, rng.integers(0, k, size=seeded))
    _assert_state_invariants(state)
    for _ in state.place_blocks([rows]):
        _assert_state_invariants(state)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 12), m=st.integers(1, 60), seed=st.integers(0, 999))
def test_hdrf_turn_degrees_match_a_per_edge_count(n, m, seed):
    rng = np.random.default_rng(seed)
    prior = rng.integers(0, n, size=(5, 2))
    chunk = rng.integers(0, n, size=(m, 2))
    state = HdrfState(n, 3)
    state.seed_from(prior, rng.integers(0, 3, size=5))
    degree = state.partial_degree.tolist()
    expected = []
    for u, v in chunk.tolist():
        touched = degree[u] > 0 or degree[v] > 0
        degree[u] += 1
        degree[v] += 1
        expected.append((degree[u], degree[v], touched))
    loops = chunk[:, 0] == chunk[:, 1]
    du, dv, touched = state._turn_degrees(chunk, loops if loops.any() else None)
    assert list(zip(du.tolist(), dv.tolist(), touched.tolist())) == expected
    assert state.partial_degree.tolist() == degree


def _star(hub: int, leaves: int, loops_every: int = 0) -> np.ndarray:
    rows = []
    for leaf in range(1, leaves + 1):
        rows.append((hub, leaf) if leaf % 2 else (leaf, hub))
        if loops_every and leaf % loops_every == 0:
            rows.append((hub, hub))
    return np.array(rows, dtype=np.int64)


@pytest.mark.parametrize("loops", [False, True])
@pytest.mark.parametrize("primed", [False, True])
@pytest.mark.parametrize("k", [1, 2, 4])
def test_hdrf_saturated_hub_matches_oracle(k, primed, loops):
    """A star whose hub saturates in the first chunk (``primed``: HEP's
    ``seed_from`` puts it on every partition; k = 1: its first edge
    does), with and without self-loops on the hub."""
    leaves = 300
    edges = _star(0, leaves, loops_every=7 if loops else 0)
    states = [HdrfState(leaves + 1, k), OracleHdrfState(leaves + 1, k)]
    if primed:
        prior = np.array([(0, 1 + p) for p in range(k)])
        for state in states:
            state.seed_from(prior, np.arange(k))
    with _counting(HdrfState, "_place_edge_frozen") as scalar:
        new = states[0].place_edges(edges)
    old = states[1].place_edges_reference(edges)
    assert np.array_equal(new, old)
    for field in ("membership", "partial_degree", "loads"):
        assert np.array_equal(
            getattr(states[0], field), getattr(states[1], field)
        ), field
    _assert_state_invariants(states[0])
    if primed or k == 1:
        assert states[0]._saturated[0]
        # Flagged from the first (primed) or the second chunk on, the
        # hub no longer serialises the star.
        assert scalar.call_count <= (0 if primed else MIN_CHUNK)


# ----------------------------------------------------------------------
# LDG
# ----------------------------------------------------------------------
def test_ldg_full_first_choice_walk_matches_oracle():
    """At ``slack = 1.0`` partitions fill exactly, so some rows find
    their frozen first choice full and walk their score order."""
    graph = load_dataset("OR", "tiny")
    for k in (4, 8):
        with streaming_kernels(oracle=False), _counting(
            VertexStreamState, "_first_open"
        ) as walk:
            new = LdgPartitioner(slack=1.0).partition(graph, k, seed=0)
        with streaming_kernels(oracle=True):
            old = LdgPartitioner(slack=1.0).partition(graph, k, seed=0)
        assert walk.call_count > 0, k
        assert np.array_equal(new.assignment, old.assignment), k


# ----------------------------------------------------------------------
# Structure, no wall clock: the benchmark's stream shape at scale 13
# ----------------------------------------------------------------------
RMAT_SCALE, NUM_EDGES, STORE_CHUNK, K = 13, 100_000, 1 << 14, 32


@pytest.fixture(scope="module")
def rmat_store(tmp_path_factory):
    return spool_edges(
        rmat_edge_chunks(RMAT_SCALE, NUM_EDGES, seed=0),
        str(tmp_path_factory.mktemp("rmat") / "spool"),
        chunk_size=STORE_CHUNK,
        num_vertices=1 << RMAT_SCALE,
        directed=True,
    )


def test_hdrf_scalar_tail_is_a_small_share_of_the_stream(rmat_store):
    with _counting(HdrfState, "_place_edge_frozen") as scalar:
        for _ in make_edge_partitioner("hdrf").stream_assignments(
            rmat_store, K
        ):
            pass
    assert scalar.call_count < 0.05 * NUM_EDGES


def test_hdrf_shuffle_appends_per_store_chunk(rmat_store, tmp_path):
    with _counting(EdgeChunkWriter, "append") as append:
        result = shuffle_stream(
            rmat_store, make_edge_partitioner("hdrf"), K, str(tmp_path)
        )
    assert int(result.edge_counts.sum()) == NUM_EDGES
    assert append.call_count <= K * math.ceil(NUM_EDGES / STORE_CHUNK) + K
