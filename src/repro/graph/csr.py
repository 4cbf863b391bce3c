"""Core graph data structure.

The study's substrate is a static graph that is read once, partitioned, and
then used for GNN training. We therefore optimise for immutable bulk access:
the graph is stored as an edge array plus lazily-built CSR adjacency indexes
(one symmetric view used by partitioners and samplers, one out-edge view for
directed statistics).

Vertex ids are dense integers ``0 .. num_vertices - 1``.
"""

from __future__ import annotations

import hashlib
from typing import Iterator, Optional, Sequence, Tuple

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
    """Build a CSR index (indptr, indices) for the given directed arcs.

    ``sources`` and ``targets`` are parallel int arrays; the result stores,
    for each vertex ``v``, the targets of arcs leaving ``v`` in a contiguous
    slice ``indices[indptr[v]:indptr[v + 1]]`` sorted by target id.
    """
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    if sources.shape != targets.shape:
        raise ValueError("sources and targets must have the same shape")
    order = np.lexsort((targets, sources))
    sources = sources[order]
    targets = targets[order]
    counts = np.bincount(sources, minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, targets


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
        self._edges = _dedup_edges(edges, directed)
        self._directed = bool(directed)
        self.name = name
        self._sym_indptr: Optional[np.ndarray] = None
        self._sym_indices: Optional[np.ndarray] = None
        self._out_indptr: Optional[np.ndarray] = None
        self._out_indices: Optional[np.ndarray] = None
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
        if self._sym_indptr is None:
            src = np.concatenate([self._edges[:, 0], self._edges[:, 1]])
            dst = np.concatenate([self._edges[:, 1], self._edges[:, 0]])
            keep = src != dst  # drop self-loop duplicates from mirroring
            loops = self._edges[:, 0] == self._edges[:, 1]
            src = np.concatenate([src[keep], self._edges[loops, 0]])
            dst = np.concatenate([dst[keep], self._edges[loops, 1]])
            self._sym_indptr, self._sym_indices = build_csr(
                self._num_vertices, src, dst
            )
        return self._sym_indptr, self._sym_indices

    def out_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR over out-arcs (equals the symmetric view when undirected)."""
        if not self._directed:
            return self.symmetric_csr()
        if self._out_indptr is None:
            self._out_indptr, self._out_indices = build_csr(
                self._num_vertices, self._edges[:, 0], self._edges[:, 1]
            )
        return self._out_indptr, self._out_indices

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

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex, shape ``(n,)``."""
        indptr, _ = self.out_csr()
        return np.diff(indptr)

    # ------------------------------------------------------------------
    # Edge-centric helpers (used by edge partitioners)
    # ------------------------------------------------------------------
    def undirected_edges(self) -> np.ndarray:
        """Edges as canonical undirected pairs ``u <= v``, deduplicated.

        Edge partitioners operate on undirected edges; for directed inputs
        reciprocal arc pairs collapse into one undirected edge.
        """
        if self._undirected_edges is None:
            lo = np.minimum(self._edges[:, 0], self._edges[:, 1])
            hi = np.maximum(self._edges[:, 0], self._edges[:, 1])
            pairs = np.stack([lo, hi], axis=1)
            self._undirected_edges = np.unique(pairs, axis=0)
        return self._undirected_edges

    def iter_edges(self) -> Iterator[Tuple[int, int]]:
        """Yield edges one ``(u, v)`` tuple at a time."""
        for u, v in self._edges:
            yield int(u), int(v)

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
        in the order given.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        mapping = np.full(self._num_vertices, -1, dtype=np.int64)
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

    @classmethod
    def from_edge_list(
        cls,
        pairs: Sequence[Tuple[int, int]],
        directed: bool = False,
        num_vertices: Optional[int] = None,
        name: str = "",
    ) -> "Graph":
        """Build a graph from Python pairs, inferring |V| when omitted."""
        edges = np.asarray(list(pairs), dtype=np.int64).reshape(-1, 2)
        if num_vertices is None:
            num_vertices = int(edges.max()) + 1 if edges.size else 1
        return cls(num_vertices, edges, directed=directed, name=name)


def _dedup_edges(edges: np.ndarray, directed: bool) -> np.ndarray:
    """Remove duplicate edges (and mirrored duplicates when undirected)."""
    if edges.size == 0:
        return edges.reshape(0, 2)
    if directed:
        return np.unique(edges, axis=0)
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    return np.unique(np.stack([lo, hi], axis=1), axis=0)
