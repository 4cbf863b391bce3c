"""Message-flow blocks: the unit of GNN computation.

A :class:`Block` is a bipartite message-passing structure from source
vertices to destination vertices, exactly like DGL's message-flow graphs
(MFGs): sampling a mini-batch builds one block per layer.

Convention (as in DGL): the destination vertices are a *prefix* of the
source vertices, i.e. ``src_ids[:num_dst] == dst_ids``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Block"]


@dataclass(frozen=True)
class Block:
    """One layer's message-passing structure.

    Attributes
    ----------
    src_ids:
        Global vertex ids of source (input) vertices; the first
        ``num_dst`` entries are the destination vertices.
    num_dst:
        Number of destination (output) vertices.
    edge_src / edge_dst:
        Local indices (into ``src_ids`` / the dst prefix) of each message.
    """

    src_ids: np.ndarray
    num_dst: int
    edge_src: np.ndarray
    edge_dst: np.ndarray

    def __post_init__(self) -> None:
        if self.num_dst > self.src_ids.shape[0]:
            raise ValueError("num_dst exceeds number of source vertices")
        if self.edge_src.shape != self.edge_dst.shape:
            raise ValueError("edge arrays must be parallel")
        if self.edge_src.size:
            if self.edge_src.max() >= self.src_ids.shape[0]:
                raise ValueError("edge_src index out of range")
            if self.edge_dst.max() >= self.num_dst:
                raise ValueError("edge_dst index out of range")
