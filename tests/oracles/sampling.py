"""Neighbourhood sampling as it stood before the layer generator, verbatim.

``sample_blocks`` and ``_sample_layer`` are the bodies that built one
``Block`` per layer with three hash-path ``np.unique`` calls (seeds, new
sources, and the ``return_index`` (dst, src) dedup). The DistDGL oracle
engine samples through them, and ``test_sampling_identity.py`` pins
``repro.gnn.sample_blocks`` to them block for block and draw for draw.
Do not tidy the bodies — they are the reference.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.gnn import Block, MiniBatch
from repro.graph import Graph

__all__ = ["sample_blocks"]


def sample_blocks(
    graph: Graph,
    seeds: np.ndarray,
    fanouts: Sequence[int],
    rng: np.random.Generator,
) -> MiniBatch:
    """Sample a multi-layer computation graph from ``seeds``.

    ``fanouts[i]`` is the fan-out of GNN layer ``i``; sampling proceeds
    from the seeds inward (last layer first), as in DGL. Vertices with
    degree below the fan-out keep all their neighbours; higher-degree
    vertices draw ``fanout`` samples with replacement, deduplicated per
    (source, destination) pair — statistically close to DGL's
    without-replacement sampling and fully vectorisable.

    ``rng`` is consumed by one ``integers`` call per layer that has a
    frontier vertex of degree above the fan-out, and by nothing else;
    the result is a function of ``(graph, seeds, fanouts, generator
    state)`` alone. The DistDGL engine relies on that: it records the
    counts of a sampled step once and replays them for every model
    configuration (:mod:`repro.distdgl.trace`).
    """
    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    if seeds.size == 0:
        raise ValueError("cannot sample an empty mini-batch")
    indptr, indices = graph.symmetric_csr()
    blocks_reversed: List[Block] = []
    frontier = seeds
    num_vertices = indptr.shape[0] - 1
    local_of = np.full(num_vertices, -1, dtype=np.int64)
    for fanout in reversed(list(fanouts)):
        if fanout <= 0:
            raise ValueError("fanouts must be positive")
        edge_src_global, edge_dst_local = _sample_layer(
            frontier, indptr, indices, fanout, rng
        )
        # Sources: frontier first (prefix convention), then new vertices.
        local_of[frontier] = np.arange(frontier.shape[0])
        new_mask = local_of[edge_src_global] < 0
        extra = np.unique(edge_src_global[new_mask])
        local_of[extra] = frontier.shape[0] + np.arange(extra.shape[0])
        edge_src_local = local_of[edge_src_global]
        src_ids = np.concatenate([frontier, extra])
        local_of[src_ids] = -1  # reset for the next layer / call
        blocks_reversed.append(
            Block(
                src_ids=src_ids,
                num_dst=frontier.shape[0],
                edge_src=edge_src_local,
                edge_dst=edge_dst_local,
            )
        )
        frontier = src_ids
    return MiniBatch(seeds=seeds, blocks=list(reversed(blocks_reversed)))


def _sample_layer(
    frontier: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    fanout: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample up to ``fanout`` neighbours per frontier vertex.

    Returns global source ids and local (frontier-index) destinations.
    """
    degrees = indptr[frontier + 1] - indptr[frontier]
    src_parts: List[np.ndarray] = []
    dst_parts: List[np.ndarray] = []
    # Low-degree vertices keep everything - fully vectorised.
    small = degrees <= fanout
    if small.any():
        small_idx = np.flatnonzero(small)
        take = degrees[small_idx]
        starts = indptr[frontier[small_idx]]
        # Expand the per-vertex CSR ranges in one batch: repeat each
        # start `take` times and add the within-range offset
        # (a global arange minus each range's cumulative start).
        total = int(take.sum())
        within = np.arange(total) - np.repeat(np.cumsum(take) - take, take)
        offsets = np.repeat(starts, take) + within
        src_parts.append(indices[offsets])
        dst_parts.append(np.repeat(small_idx, take))
    # High-degree vertices: `fanout` draws with replacement, deduplicated
    # per (dst, src) pair - vectorised across the whole frontier.
    big_idx = np.flatnonzero(~small)
    if big_idx.size:
        draws = rng.integers(
            0, degrees[big_idx][:, None], size=(big_idx.size, fanout)
        )
        sampled = indices[indptr[frontier[big_idx]][:, None] + draws]
        dst = np.repeat(big_idx, fanout)
        src = sampled.ravel()
        # Injective (dst, src) key: src < |V|, so |V| as multiplier
        # suffices — no O(E) indices.max() scan, and no overflow risk
        # from a needlessly larger base.
        num_vertices = indptr.shape[0] - 1
        pair = dst * num_vertices + src
        _, keep = np.unique(pair, return_index=True)
        src_parts.append(src[keep])
        dst_parts.append(dst[keep])
    if src_parts:
        return (
            np.concatenate(src_parts).astype(np.int64),
            np.concatenate(dst_parts).astype(np.int64),
        )
    return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
