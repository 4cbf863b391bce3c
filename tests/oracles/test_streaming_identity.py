"""Byte-identity of the streaming kernels against their scalar references.

HDRF (and the HDRF tails of HEP and NE) run on ``HdrfState``; LDG, Fennel
and reLDG run on ``VertexStreamState``. Each state has one chunk-vectorised
drive; the scalar per-item loops with the same chunked semantics live
verbatim in :mod:`tests.oracles.streaming`. **Byte-identity is the
contract**: same assignment (dtype included) and, in memory, the same
next draw from every random generator the run created, in memory and out
of core, wherever chunk and block boundaries fall.

The matrix is partitioner {HDRF at lambda 1.1 and 0, HEP10 at tau = 1 (most
edges streamed), HEP100, NE, LDG, Fennel, reLDG with 3 passes} x graph
{``tiny_or``, ``tiny_di``, ``tiny_hw``, star, two cliques, isolated
vertices, self loops, duplicate edges, k > |V|} x k {2, 4, 8} x seed
{0, 1, 2} x state chunk {1, 7, 64, default}; HDRF and LDG also run out of
core at store chunks 7 and 4 096 against the in-memory reference, and the
retired perf series' input (HDRF on ``HW`` small, k = 32, seed 0) runs
once. ``Graph`` deduplicates its rows, so the duplicate-edges graph is
directed with reciprocal arcs (duplicate neighbours in the symmetric CSR
the LDG family reads); the hypothesis tests at the bottom feed the states
raw multigraph streams — repeats, self loops, isolated vertices — cut at
arbitrary block boundaries. Two cuts keep the matrix inside tier-1's
time: the small state chunks 1, 7 and 64 (at 1 the production drive pays
one numpy round trip per item) run at seed 0 only, seeds 1 and 2 at the
default chunk; and unshuffled HDRF runs out of core at seed 0 only — its
stream order, and so its assignment, does not depend on the seed. Every
other cell of the cross runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import partitioning
from repro.graph import Graph, build_csr, load_dataset, powerlaw_cluster_graph
from repro.graph.chunkstore import spool_graph
from repro.partitioning import (
    EDGE_PARTITIONER_NAMES,
    VERTEX_PARTITIONER_NAMES,
    HdrfPartitioner,
    HepPartitioner,
    LdgPartitioner,
    NePartitioner,
    make_edge_partitioner,
    make_vertex_partitioner,
)
from repro.partitioning.edgecut.streaming import VertexStreamState
from repro.partitioning.extensions.fennel import FennelPartitioner
from repro.partitioning.extensions.reldg import RestreamingLdgPartitioner
from repro.partitioning.vertexcut.streaming import HdrfState

from .streaming import (
    OracleHdrfState,
    OracleVertexStreamState,
    streaming_kernels,
)

KS = [2, 4, 8]
SEEDS = [0, 1, 2]
#: State chunk ceilings; ``None`` is the state's own default.
CHUNKS = [1, 7, 64, None]
STORE_CHUNKS = [7, 4096]

PARTITIONERS = {
    "hdrf": HdrfPartitioner,
    "hdrf-lambda0": lambda: HdrfPartitioner(lambda_balance=0.0),
    "hep10-tau1": lambda: HepPartitioner(tau=1.0),
    "hep100": lambda: HepPartitioner(tau=100.0),
    "ne": NePartitioner,
    "ldg": LdgPartitioner,
    "fennel": FennelPartitioner,
    "reldg3": lambda: RestreamingLdgPartitioner(passes=3),
}


def _small() -> np.ndarray:
    return powerlaw_cluster_graph(
        num_vertices=60, edges_per_vertex=3, triangle_prob=0.35,
        community_mean_size=45, seed=3, name="OR",
    ).edges


def _two_cliques() -> Graph:
    clique = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges = np.array(clique + [(3, 4)] + [(u + 4, v + 4) for u, v in clique])
    return Graph(8, edges)


GRAPHS = {
    "tiny_or": lambda: load_dataset("OR", "tiny"),
    "tiny_di": lambda: load_dataset("DI", "tiny"),
    "tiny_hw": lambda: load_dataset("HW", "tiny"),
    "star": lambda: Graph(20, [(0, i) for i in range(1, 20)]),
    "two-cliques": _two_cliques,
    "isolated-vertices": lambda: Graph(110, _small()),
    # 61 has no other edge.
    "self-loops": lambda: Graph(62, np.concatenate(
        [_small(), [(v, v) for v in (0, 5, 17, 59, 61)]]
    )),
    "duplicate-edges": lambda: Graph(60, np.concatenate(
        [_small(), _small()[::2], _small()[:40, ::-1]]
    ), directed=True),
    "k-exceeds-n": lambda: Graph(
        5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    ),
}


@functools.lru_cache(maxsize=None)
def _graph(name: str) -> Graph:
    return GRAPHS[name]()


def _run(name, graph, k, seed, oracle, chunk):
    """Assignment plus the next draw of every generator the run made."""
    made = []
    default_rng = np.random.default_rng

    def recording(*args, **kwargs):
        made.append(default_rng(*args, **kwargs))
        return made[-1]

    with streaming_kernels(oracle, chunk), mock.patch.object(
        np.random, "default_rng", recording
    ):
        assignment = PARTITIONERS[name]().partition(
            graph, k, seed=seed
        ).assignment
    return assignment, [int(rng.integers(1 << 62)) for rng in made]


def _assert_same(new, old, where):
    assert new.dtype == old.dtype, where
    assert np.array_equal(new, old), where


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("graph_name", list(GRAPHS))
@pytest.mark.parametrize("name", list(PARTITIONERS))
def test_matches_oracle(name, graph_name, k):
    graph = _graph(graph_name)
    for seed in SEEDS:
        for chunk in CHUNKS if seed == SEEDS[0] else CHUNKS[-1:]:
            where = (name, graph_name, k, seed, chunk)
            new, new_draws = _run(name, graph, k, seed, False, chunk)
            old, old_draws = _run(name, graph, k, seed, True, chunk)
            _assert_same(new, old, where)
            assert new_draws == old_draws, where


@pytest.mark.parametrize("store_chunk", STORE_CHUNKS)
@pytest.mark.parametrize("graph_name", list(GRAPHS))
@pytest.mark.parametrize("name", ["hdrf", "ldg"])
def test_out_of_core_matches_oracle(name, graph_name, store_chunk, tmp_path):
    """The store drive against the in-memory reference over the same
    stream: HDRF's unshuffled ``undirected_edges()``, LDG's CSR of the
    stored rows."""
    graph = _graph(graph_name)
    if name == "hdrf":
        factory = functools.partial(HdrfPartitioner, shuffle_stream=False)
    else:
        factory = LdgPartitioner
    reader = spool_graph(
        graph, str(tmp_path / "spool"), chunk_size=store_chunk,
        undirected_view=name == "hdrf",
    )
    for k in KS:
        # An unshuffled HDRF stream does not depend on the seed.
        for seed in SEEDS if name == "ldg" else SEEDS[:1]:
            streamed = factory().partition_stream(reader, k, seed=seed)
            with streaming_kernels(oracle=True):
                expected = factory().partition(graph, k, seed=seed)
            _assert_same(
                streamed.assignment, expected.assignment,
                (name, graph_name, store_chunk, k, seed),
            )


def test_hdrf_on_the_perf_graph_matches_oracle():
    """HDRF on ``HW`` small at k = 32, seed 0 — the input of the retired
    ``hdrf_vs_reference`` series of ``scripts/bench_perf.py``."""
    graph = load_dataset("HW", "small", seed=0)
    new, new_draws = _run("hdrf", graph, 32, 0, False, None)
    old, old_draws = _run("hdrf", graph, 32, 0, True, None)
    _assert_same(new, old, "HW small")
    assert new_draws == old_draws


# ----------------------------------------------------------------------
# State level: raw multigraph streams cut at arbitrary block boundaries
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
@given(case=cut_streams(), k=st.integers(1, 9), chunk=st.integers(1, 64),
       lambda_balance=st.sampled_from([0.0, 1.1]))
def test_hdrf_state_matches_oracle(case, k, chunk, lambda_balance):
    n, rows, blocks = case
    states = [
        cls(n, k, lambda_balance, chunk_size=chunk)
        for cls in (HdrfState, HdrfState, OracleHdrfState)
    ]
    results = [
        states[0].place_edges(rows),
        np.concatenate([np.empty(0, dtype=np.int32)] + [
            out for _, out in states[1].place_blocks(iter(blocks))
        ]),
        states[2].place_edges_reference(rows),
    ]
    for state, result in zip(states[:2], results[:2]):
        _assert_same(result, results[2], (n, k, chunk, lambda_balance))
        for field in ("membership", "partial_degree", "loads"):
            assert np.array_equal(
                getattr(state, field), getattr(states[2], field)
            ), field


@settings(max_examples=150, deadline=None)
@given(case=cut_streams(), k=st.integers(1, 9), chunk=st.integers(1, 64),
       mode=st.sampled_from(["ldg", "fennel"]), passes=st.integers(1, 3),
       seed=st.integers(0, 99))
def test_vertex_state_matches_oracle(case, k, chunk, mode, passes, seed):
    n, rows, _ = case
    # Both directions of every row, loops once: repeats stay repeated.
    loops = rows[:, 0] == rows[:, 1]
    indptr, indices = build_csr(
        n,
        np.concatenate([rows[:, 0], rows[~loops, 1]]),
        np.concatenate([rows[:, 1], rows[~loops, 0]]),
    )
    states = [
        cls(indptr, indices, k, capacity=1.1 * n / k, mode=mode,
            alpha=0.5, chunk_size=chunk)
        for cls in (VertexStreamState, OracleVertexStreamState)
    ]
    rng = np.random.default_rng(seed)
    for pass_index in range(passes):
        order = rng.permutation(n)
        states[0].place(order, vacate=pass_index > 0)
        states[1].place_reference(order, vacate=pass_index > 0)
    _assert_same(states[0].assignment, states[1].assignment, (n, k, chunk))
    assert np.array_equal(states[0].sizes, states[1].sizes)


# ----------------------------------------------------------------------
# No slow path or chunk knob ships
# ----------------------------------------------------------------------
def test_no_partitioner_ships_a_slow_path_or_chunk_knob():
    classes = {
        type(make_edge_partitioner(name)) for name in EDGE_PARTITIONER_NAMES
    } | {
        type(make_vertex_partitioner(name))
        for name in VERTEX_PARTITIONER_NAMES
    } | {FennelPartitioner, RestreamingLdgPartitioner, NePartitioner}
    for cls in classes:
        for knob in ("vectorised", "chunk_size"):
            with pytest.raises(TypeError):
                cls(**{knob: 1})
    for info in pkgutil.walk_packages(
        partitioning.__path__, "repro.partitioning."
    ):
        module = importlib.import_module(info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__.startswith("repro.partitioning"):
                assert not [
                    attr for attr in dir(cls) if attr.endswith("_reference")
                ], cls
