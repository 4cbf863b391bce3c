"""DistGNN's halo exchange executed on real arrays.

:func:`halo_reduce` aggregates vertex states over an edge partition the
way DistGNN's machines do (Md et al., SC 2021): every machine sums
messages along its local edges only, pushes the partial rows of the
vertices it does not master to their master (``partition.masters()``),
and each master broadcasts the reduced row back to the machines holding
a replica. The message row counts come from the rows it moves, not from
``EdgePartition.replica_stats``, so they are a second derivation of the
traffic ``DistGnnEngine`` prices (``tests/oracles/test_halo_reduce.py``).
"""

from __future__ import annotations

import numpy as np

from repro.partitioning import EdgePartition

__all__ = ["halo_reduce"]


def halo_reduce(partition: EdgePartition, states: np.ndarray) -> tuple:
    """One layer's neighbour sums of ``states`` (``(n, d)``), exchanged.

    Returns ``(views, held, push, bcast)``: machine ``i``'s rows after
    the broadcast ``views[i]`` (``(k, n, d)``, zero where it holds no
    replica), the replicas it holds ``held[i]`` (``(k, n)``), and the
    ``src x dst`` rows pushed to masters and broadcast back (``(k, k)``).
    """
    k = partition.num_partitions
    masters = partition.masters()
    held = np.zeros((k, states.shape[0]), dtype=bool)
    partials = np.zeros((k,) + states.shape)
    for machine in range(k):
        edges = partition.edges[partition.assignment == machine]
        held[machine, edges.ravel()] = True
        np.add.at(partials[machine], edges[:, 0], states[edges[:, 1]])
        np.add.at(partials[machine], edges[:, 1], states[edges[:, 0]])
    push = np.zeros((k, k), dtype=np.int64)
    bcast = np.zeros((k, k), dtype=np.int64)
    reduced = np.zeros_like(states)  # each vertex's row on its master
    for machine in range(k):
        rows = held[machine].nonzero()[0]
        remote = rows[masters[rows] != machine]
        np.add.at(push, (machine, masters[remote]), 1)
        reduced[rows] += partials[machine, rows]
    views = np.zeros_like(partials)
    for machine in range(k):
        rows = held[machine].nonzero()[0]
        remote = rows[masters[rows] != machine]
        np.add.at(bcast, (masters[remote], machine), 1)
        views[machine, rows] = reduced[rows]
    return views, held, push, bcast
