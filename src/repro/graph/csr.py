"""Core graph data structure.

The study's substrate is a static graph that is read once, partitioned, and
then used for GNN training. We therefore optimise for immutable bulk access:
the graph is stored as a read-only edge array plus a lazily-built, read-only
symmetric CSR adjacency index (the view partitioners and samplers use),
each one sort of a pair key.

Vertex ids are dense integers ``0 .. num_vertices - 1``.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = ["Graph", "build_csr", "sorted_unique"]


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` of an integer array, by a sort and a
    neighbour compare: same values, dtype and order. numpy >= 2.3
    hashes a 1-D ``unique`` before sorting, which costs several times
    a plain sort.
    """
    values = np.sort(values, axis=None)
    keep = np.empty(values.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def build_csr(
    num_vertices: int, sources: np.ndarray, targets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Build a read-only CSR index (indptr, indices) for the given arcs.

    ``sources`` and ``targets`` are parallel arrays of ids below
    ``num_vertices``; ``indices[indptr[v]:indptr[v + 1]]`` holds the
    targets of arcs leaving ``v``, sorted: one sort of a pair key.
    """
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    if sources.shape != targets.shape:
        raise ValueError("sources and targets must have the same shape")
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(sources, minlength=num_vertices), out=indptr[1:])
    indices = np.sort(sources * num_vertices + targets) % num_vertices
    indptr.setflags(write=False)
    indices.setflags(write=False)
    return indptr, indices


class Graph:
    """An immutable graph over dense integer vertex ids.

    Parameters
    ----------
    num_vertices:
        Number of vertices; ids are ``0 .. num_vertices - 1``.
    edges:
        ``(m, 2)`` integer array. For undirected graphs each edge appears
        once (in either orientation); for directed graphs rows are arcs.
    directed:
        Whether ``edges`` rows are directed arcs.
    name:
        Optional human-readable name (dataset key).
    """

    def __init__(
        self,
        num_vertices: int,
        edges: np.ndarray,
        directed: bool = False,
        name: str = "",
    ) -> None:
        edges = np.asarray(edges, dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError("edges must be an (m, 2) array")
        if num_vertices <= 0:
            raise ValueError("num_vertices must be positive")
        if edges.size and (edges.min() < 0 or edges.max() >= num_vertices):
            raise ValueError("edge endpoint out of range")
        self._num_vertices = int(num_vertices)
        self._edges = _dedup_edges(edges, self._num_vertices, directed)
        self._directed = bool(directed)
        self.name = name
        self._sym_csr: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._undirected_edges: Optional[np.ndarray] = None
        self._fingerprint: Optional[str] = None

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        """Number of (deduplicated) edges / arcs as stored."""
        return int(self._edges.shape[0])

    @property
    def directed(self) -> bool:
        """Whether edges were loaded as directed arcs."""
        return self._directed

    @property
    def edges(self) -> np.ndarray:
        """The ``(m, 2)`` edge array. Do not mutate."""
        return self._edges

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "directed" if self._directed else "undirected"
        label = f" {self.name!r}" if self.name else ""
        return (
            f"Graph({kind}{label}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges})"
        )

    # ------------------------------------------------------------------
    # Adjacency views
    # ------------------------------------------------------------------
    def symmetric_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR over the symmetrised adjacency (each edge in both directions).

        This is the view used by partitioners and neighbourhood samplers:
        GNN message passing and partitioning both treat the graph as
        undirected connectivity, as in the paper.
        """
        if self._sym_csr is None:
            src, dst = self._edges[:, 0], self._edges[:, 1]
            mirror = src != dst  # a self loop appears once
            self._sym_csr = build_csr(
                self._num_vertices,
                np.concatenate([src, dst[mirror]]),
                np.concatenate([dst, src[mirror]]),
            )
        return self._sym_csr

    def neighbors(self, vertex: int) -> np.ndarray:
        """Symmetric neighbourhood of ``vertex`` (sorted, may include dups
        only if the input had parallel edges, which the constructor removes).
        """
        indptr, indices = self.symmetric_csr()
        return indices[indptr[vertex] : indptr[vertex + 1]]

    def degrees(self) -> np.ndarray:
        """Symmetric degree of every vertex."""
        indptr, _ = self.symmetric_csr()
        return np.diff(indptr)

    # ------------------------------------------------------------------
    # Edge-centric helpers (used by edge partitioners)
    # ------------------------------------------------------------------
    def undirected_edges(self) -> np.ndarray:
        """Edges as canonical undirected pairs ``u <= v``, deduplicated.

        Edge partitioners operate on undirected edges; for directed inputs
        reciprocal arc pairs collapse into one undirected edge. An
        undirected graph returns its stored (read-only) edge array.
        """
        if not self._directed:
            return self._edges
        if self._undirected_edges is None:
            self._undirected_edges = _dedup_edges(
                self._edges, self._num_vertices, directed=False
            )
        return self._undirected_edges

    def fingerprint(self) -> str:
        """Stable content hash of the graph structure.

        Identifies the graph by value (vertex count, directedness, edge
        array) rather than by object identity, so caches keyed on it stay
        correct across garbage collection and process boundaries. Cached
        after the first call; the graph is immutable.
        """
        if self._fingerprint is None:
            digest = hashlib.sha1()
            digest.update(
                f"{self._num_vertices}:{int(self._directed)}:".encode()
            )
            digest.update(np.ascontiguousarray(self._edges).tobytes())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph with vertices relabelled ``0..len(vertices)-1``
        in the order given; ids must be distinct and in range.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        n = self._num_vertices
        if vertices.size and not 0 <= vertices.min() <= vertices.max() < n:
            raise ValueError("subgraph vertex id out of range")
        if sorted_unique(vertices).size != vertices.size:
            raise ValueError("subgraph vertex ids must be distinct")
        mapping = np.full(n, -1, dtype=np.int64)
        mapping[vertices] = np.arange(len(vertices), dtype=np.int64)
        src = mapping[self._edges[:, 0]]
        dst = mapping[self._edges[:, 1]]
        keep = (src >= 0) & (dst >= 0)
        sub_edges = np.stack([src[keep], dst[keep]], axis=1)
        return Graph(
            max(len(vertices), 1),
            sub_edges,
            directed=self._directed,
            name=f"{self.name}/sub" if self.name else "",
        )


def _dedup_edges(edges: np.ndarray, n: int, directed: bool) -> np.ndarray:
    """Distinct rows of ``edges``, row-sorted and read-only; undirected
    rows are made ``lo <= hi`` first. One sort of the key ``src * n +
    dst``, whose order is the rows' lexicographic order while
    ``n * n < 2**63``.
    """
    src, dst = edges[:, 0], edges[:, 1]
    if not directed:
        src, dst = np.minimum(src, dst), np.maximum(src, dst)
    rows = np.stack(np.divmod(sorted_unique(src * n + dst), n), axis=1)
    rows.setflags(write=False)
    return rows
