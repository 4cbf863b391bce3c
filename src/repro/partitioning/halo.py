"""Halo statistics for vertex partitions.

DistDGL stores, per machine, the *inner* vertices it owns plus a *halo*
of remote vertices adjacent to them (their features are fetched on
demand). These statistics quantify the storage and communication surface
a partition induces — the structural counterpart of the engine's measured
remote-vertex counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import VertexPartition

__all__ = ["HaloStats", "halo_statistics"]


@dataclass(frozen=True)
class HaloStats:
    """Per-machine halo structure of a vertex partition.

    Attributes
    ----------
    inner:
        Owned vertices per machine.
    boundary:
        Owned vertices with at least one remote neighbour (these emit
    	cross-machine messages).
    halo:
        Distinct remote vertices adjacent to the machine's owned vertices
        (their features/state must be fetchable).
    """

    inner: np.ndarray
    boundary: np.ndarray
    halo: np.ndarray

    @property
    def num_machines(self) -> int:
        """Number of machines the statistics cover."""
        return int(self.inner.shape[0])

    def halo_ratio(self) -> np.ndarray:
        """Halo size relative to inner size (storage overhead factor)."""
        return self.halo / np.maximum(self.inner, 1)


def halo_statistics(partition: VertexPartition) -> HaloStats:
    """Compute :class:`HaloStats` for a partition."""
    graph = partition.graph
    owner = partition.assignment
    k = partition.num_partitions
    edges = graph.undirected_edges()
    pu = owner[edges[:, 0]]
    pv = owner[edges[:, 1]]
    cut = pu != pv
    cut_edges = edges[cut]
    cut_pu = pu[cut]
    cut_pv = pv[cut]

    inner = np.bincount(owner, minlength=k).astype(np.int64)

    # Boundary: distinct owned endpoints of cut edges, per owner.
    boundary_pairs = np.unique(
        np.concatenate(
            [
                np.stack([cut_pu.astype(np.int64), cut_edges[:, 0]], axis=1),
                np.stack([cut_pv.astype(np.int64), cut_edges[:, 1]], axis=1),
            ]
        ),
        axis=0,
    )
    boundary = np.bincount(
        boundary_pairs[:, 0].astype(np.int64), minlength=k
    ).astype(np.int64)

    # Halo: distinct remote endpoints per machine (endpoint charged to
    # the *other* side's machine).
    halo_pairs = np.unique(
        np.concatenate(
            [
                np.stack([cut_pu.astype(np.int64), cut_edges[:, 1]], axis=1),
                np.stack([cut_pv.astype(np.int64), cut_edges[:, 0]], axis=1),
            ]
        ),
        axis=0,
    )
    halo = np.bincount(
        halo_pairs[:, 0].astype(np.int64), minlength=k
    ).astype(np.int64)

    return HaloStats(inner=inner, boundary=boundary, halo=halo)
