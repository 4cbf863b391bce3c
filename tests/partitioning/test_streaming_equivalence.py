"""Vectorised streaming kernels must match their scalar references.

Every chunk-vectorised partitioner ships one drive; its scalar per-item
reference with identical chunked semantics lives in ``tests.oracles``
(``tests.oracles.streaming`` for HDRF, HEP's tail and the LDG family,
``tests.oracles.twops`` for 2PS-L). These tests pin the
bit-identical-assignment contract across graphs, seeds and partition
counts, including degenerate topologies (hub-dominated star,
self-contained cliques) and tiny chunk sizes that exercise the
chunk-boundary logic; the full matrices are
``tests/oracles/test_streaming_identity.py`` and
``tests/oracles/test_twops_identity.py``.
"""

import numpy as np
import pytest

from repro.partitioning import (
    HdrfPartitioner,
    HepPartitioner,
    LdgPartitioner,
    TwoPsLPartitioner,
)
from repro.partitioning.extensions.fennel import FennelPartitioner
from repro.partitioning.extensions.reldg import RestreamingLdgPartitioner

from ..oracles.streaming import streaming_kernels
from ..oracles.twops import OracleTwoPsLPartitioner

GRAPHS = ["tiny_or", "tiny_di", "tiny_hw"]
KS = [2, 4, 8]
SEEDS = [0, 1, 2]


def _assert_identical(factory, graph, k, seed, chunk_size=None, **kwargs):
    with streaming_kernels(oracle=False, chunk_size=chunk_size):
        a = factory(**kwargs).partition(graph, k, seed=seed).assignment
    with streaming_kernels(oracle=True, chunk_size=chunk_size):
        b = factory(**kwargs).partition(graph, k, seed=seed).assignment
    assert np.array_equal(a, b)


def _assert_twops_identical(graph, k, seed):
    a = TwoPsLPartitioner().partition(graph, k, seed=seed).assignment
    b = OracleTwoPsLPartitioner().reference_assignment(graph, k, seed=seed)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("graph_name", GRAPHS)
@pytest.mark.parametrize("k", KS)
class TestAcrossGraphsAndK:
    def test_hdrf(self, graph_name, k, request):
        graph = request.getfixturevalue(graph_name)
        _assert_identical(HdrfPartitioner, graph, k, seed=0)

    def test_ldg(self, graph_name, k, request):
        graph = request.getfixturevalue(graph_name)
        _assert_identical(LdgPartitioner, graph, k, seed=0)

    def test_fennel(self, graph_name, k, request):
        graph = request.getfixturevalue(graph_name)
        _assert_identical(FennelPartitioner, graph, k, seed=0)

    def test_reldg(self, graph_name, k, request):
        graph = request.getfixturevalue(graph_name)
        _assert_identical(
            RestreamingLdgPartitioner, graph, k, seed=0, passes=3
        )

    def test_twops(self, graph_name, k, request):
        graph = request.getfixturevalue(graph_name)
        _assert_twops_identical(graph, k, seed=0)

    def test_hep_streaming_tail(self, graph_name, k, request):
        # tau=1 pushes most edges through the HDRF streaming tail.
        graph = request.getfixturevalue(graph_name)
        _assert_identical(HepPartitioner, graph, k, seed=0, tau=1.0)


@pytest.mark.parametrize("seed", SEEDS)
def test_hdrf_across_seeds(tiny_or, seed):
    _assert_identical(HdrfPartitioner, tiny_or, 4, seed=seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_ldg_across_seeds(tiny_or, seed):
    _assert_identical(LdgPartitioner, tiny_or, 4, seed=seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_twops_across_seeds(tiny_or, seed):
    _assert_twops_identical(tiny_or, 4, seed=seed)


@pytest.mark.parametrize(
    "factory",
    [HdrfPartitioner, LdgPartitioner, FennelPartitioner],
    ids=lambda f: f.__name__,
)
@pytest.mark.parametrize("chunk_size", [1, 7, 64])
def test_small_chunks_still_identical(tiny_or, factory, chunk_size):
    """Chunk boundaries (including chunk_size=1, the classic per-item
    semantics) must not break the equivalence with the reference."""
    _assert_identical(factory, tiny_or, 4, seed=0, chunk_size=chunk_size)


@pytest.mark.parametrize(
    "factory",
    [HdrfPartitioner, LdgPartitioner, TwoPsLPartitioner],
    ids=lambda f: f.__name__,
)
def test_degenerate_topologies(star_graph, two_cliques, factory):
    """Hub-dominated and clique graphs hit the conflict-heavy scalar
    fallbacks; equivalence must survive them."""
    for graph in (star_graph, two_cliques):
        if factory is TwoPsLPartitioner:
            _assert_twops_identical(graph, 3, seed=0)
        else:
            _assert_identical(factory, graph, 3, seed=0)


def test_hdrf_lambda_zero_equivalence(tiny_or):
    """The balance-free (pure greedy) configuration uses a separate
    code path in the vectorised kernel."""
    _assert_identical(HdrfPartitioner, tiny_or, 4, seed=0, lambda_balance=0.0)
