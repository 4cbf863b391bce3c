"""Structural guard: a graph and its views cost one integer sort each.

The constructor's dedup, the symmetric CSR and the undirected edge list
are each one sort of a pair key ``src * n + dst`` — never a ``lexsort`` or a
row-wise ``np.unique(axis=0)``, which cost several times as much — and
an undirected graph's edge list *is* its stored edge array. Every view
is read-only, so handing out the stored array is safe.
"""

import numpy as np
import pytest

from repro.graph import Graph
from repro.graph import csr


@pytest.fixture
def no_row_wise_sorts(monkeypatch):
    """Make ``np.lexsort`` and a row-wise ``np.unique`` raise."""
    unique = np.unique

    def lexsort(*args, **kwargs):
        raise AssertionError("np.lexsort called")

    def unique_1d(values, *args, axis=None, **kwargs):
        if axis is not None:
            raise AssertionError("row-wise np.unique called")
        return unique(values, *args, **kwargs)

    monkeypatch.setattr(csr.np, "lexsort", lexsort)
    monkeypatch.setattr(csr.np, "unique", unique_1d)


def _views(graph):
    return [
        graph.edges, graph.undirected_edges(), *graph.symmetric_csr(),
    ]


@pytest.mark.parametrize("directed", [False, True])
def test_views_need_no_row_wise_sort(
    tiny_or, tiny_di, directed, no_row_wise_sorts
):
    source = tiny_di if directed else tiny_or
    repeats = source.edges[::3] if directed else source.edges[::3, ::-1]
    rows = np.concatenate([source.edges, repeats])
    graph = Graph(source.num_vertices, rows, directed=directed)
    _views(graph)
    assert graph.fingerprint() == source.fingerprint()


def test_undirected_edges_is_the_stored_array(tiny_or):
    graph = Graph(tiny_or.num_vertices, tiny_or.edges)
    assert graph.undirected_edges() is graph.edges
    assert not graph.edges.flags.writeable


@pytest.mark.parametrize("directed", [False, True])
def test_views_are_read_only(directed):
    graph = Graph(4, np.array([[2, 1], [1, 2], [0, 3]]), directed=directed)
    for view in _views(graph):
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[:1] = 0


def test_constructor_does_not_freeze_its_input():
    rows = np.array([[0, 1], [1, 2]], dtype=np.int64)
    Graph(3, rows)
    Graph(3, rows[:0])
    assert rows.flags.writeable
