"""Row-wise bodies of the graph layer's constructor views, verbatim.

``oracle_holme_kim_edges``, ``oracle_dedup_edges``, ``oracle_build_csr``,
``oracle_symmetric_csr``, ``oracle_out_csr``, ``oracle_undirected_edges``
and ``oracle_fingerprint`` are the bodies of ``repro.graph`` as they stood
before every view became one sort of an integer pair key: a
row-wise ``np.unique(axis=0)`` dedup, a ``lexsort`` CSR, a
``np.unique(axis=0)`` undirected view for both directednesses, and a
Holme-Kim loop that picks a triangle-closing neighbour with
``rng.choice``. The graph methods take the stored edge array (and vertex
count) instead of ``self``. Do not tidy the bodies — they are the
reference the rewrite is pinned against (see
``tests/oracles/test_graph_identity.py``).
"""

from __future__ import annotations

import hashlib
from typing import List, Tuple

import numpy as np

__all__ = [
    "oracle_build_csr",
    "oracle_dedup_edges",
    "oracle_fingerprint",
    "oracle_holme_kim_edges",
    "oracle_out_csr",
    "oracle_symmetric_csr",
    "oracle_undirected_edges",
]


def oracle_holme_kim_edges(
    num_vertices: int,
    edges_per_vertex: int,
    triangle_prob: float,
    rng: np.random.Generator,
    offset: int = 0,
) -> List[tuple]:
    """Holme-Kim edge list over ``offset .. offset+num_vertices-1``."""
    m = min(edges_per_vertex, max(num_vertices - 1, 1))
    out: List[tuple] = []
    repeated: List[int] = list(range(m))
    adjacency: List[set] = [set() for _ in range(num_vertices)]
    for i in range(m):  # seed clique over the first m vertices
        for j in range(i + 1, m):
            out.append((offset + i, offset + j))
            adjacency[i].add(j)
            adjacency[j].add(i)
    for new in range(m, num_vertices):
        chosen: set = set()
        target = int(repeated[rng.integers(len(repeated))])
        while len(chosen) < m:
            if target not in chosen and target != new:
                chosen.add(target)
                out.append((offset + new, offset + target))
                adjacency[new].add(target)
                adjacency[target].add(new)
            if len(chosen) == m:
                break
            if rng.random() < triangle_prob and adjacency[target]:
                candidates = adjacency[target] - chosen - {new}
                if candidates:
                    target = int(
                        rng.choice(np.fromiter(candidates, dtype=np.int64))
                    )
                    continue
            target = int(repeated[rng.integers(len(repeated))])
        repeated.extend(chosen)
        repeated.extend([new] * m)
    return out


def oracle_dedup_edges(edges: np.ndarray, directed: bool) -> np.ndarray:
    """Remove duplicate edges (and mirrored duplicates when undirected)."""
    if edges.size == 0:
        return edges.reshape(0, 2)
    if directed:
        return np.unique(edges, axis=0)
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    return np.unique(np.stack([lo, hi], axis=1), axis=0)


def oracle_build_csr(
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


def oracle_symmetric_csr(
    num_vertices: int, edges: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``Graph.symmetric_csr`` over a stored edge array."""
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    keep = src != dst  # drop self-loop duplicates from mirroring
    loops = edges[:, 0] == edges[:, 1]
    src = np.concatenate([src[keep], edges[loops, 0]])
    dst = np.concatenate([dst[keep], edges[loops, 1]])
    return oracle_build_csr(num_vertices, src, dst)


def oracle_out_csr(
    num_vertices: int, edges: np.ndarray, directed: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """``Graph.out_csr`` over a stored edge array."""
    if not directed:
        return oracle_symmetric_csr(num_vertices, edges)
    return oracle_build_csr(num_vertices, edges[:, 0], edges[:, 1])


def oracle_undirected_edges(edges: np.ndarray) -> np.ndarray:
    """``Graph.undirected_edges`` over a stored edge array."""
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    pairs = np.stack([lo, hi], axis=1)
    return np.unique(pairs, axis=0)


def oracle_fingerprint(
    num_vertices: int, directed: bool, edges: np.ndarray
) -> str:
    """``Graph.fingerprint`` over a stored edge array."""
    digest = hashlib.sha1()
    digest.update(f"{num_vertices}:{int(directed)}:".encode())
    digest.update(np.ascontiguousarray(edges).tobytes())
    return digest.hexdigest()
