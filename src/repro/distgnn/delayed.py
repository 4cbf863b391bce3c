"""Delayed partial aggregation (DistGNN's cd-r optimisation).

Md et al., SC 2021, Section 4: instead of synchronising every replica's
partial aggregate every epoch, DistGNN's ``cd-r`` variants let each
machine reuse *stale* remote partials for up to ``r`` epochs, cutting the
halo-synchronisation traffic by ~``(r-1)/r`` at the cost of slightly
stale gradients. The paper under reproduction benchmarks the synchronous
variant; this module implements cd-r in the executable trainer as a
documented extension, so the communication/accuracy trade-off can be
studied end to end (``examples/delayed_aggregation.py`` trains it beside
the synchronous trainer).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..partitioning import EdgePartition
from .fullbatch import DistributedFullBatchTrainer

__all__ = ["DelayedAggregationTrainer"]


class DelayedAggregationTrainer(DistributedFullBatchTrainer):
    """Full-batch GraphSAGE with cd-r delayed partial aggregation.

    ``refresh_interval = 1`` degenerates to the exact synchronous trainer
    (and the test suite asserts bit-equality in that case). For
    ``r > 1``, each machine refreshes its *remote* partial-aggregate
    contribution only every ``r`` epochs; in between, the cached stale
    partials are reused and only the local partial is recomputed.
    """

    def __init__(
        self,
        partition: EdgePartition,
        features: np.ndarray,
        labels: np.ndarray,
        train_mask: np.ndarray,
        refresh_interval: int = 2,
        **kwargs,
    ) -> None:
        if refresh_interval < 1:
            raise ValueError("refresh_interval must be >= 1")
        super().__init__(partition, features, labels, train_mask, **kwargs)
        self.refresh_interval = refresh_interval
        self._epoch_counter = 0
        # Stale remote partials, keyed by aggregate-call index within the
        # epoch (the call sequence — L forward + L backward aggregations —
        # is deterministic, so indices align across epochs).
        self._stale_forward: Dict[int, np.ndarray] = {}
        self._aggregate_calls = 0
        self.synchronised_bytes = 0.0
        self.saved_bytes = 0.0
        # Owner machine per vertex: the master holds the fresh total; the
        # "remote" share of vertex v's aggregate is what machines other
        # than the master contributed.
        self._masters = partition.masters()
        self._local_edges_of_master: List[np.ndarray] = []
        for machine, edges in enumerate(self._machine_edges):
            if edges.size == 0:
                self._local_edges_of_master.append(edges)
                continue
            keep = (self._masters[edges[:, 0]] == machine) | (
                self._masters[edges[:, 1]] == machine
            )
            self._local_edges_of_master.append(edges[keep])

    # ------------------------------------------------------------------
    def _aggregate(self, states: np.ndarray) -> np.ndarray:
        """Aggregate with staleness: remote shares refresh every r epochs.

        The aggregate for every vertex is split into a *local* share
        (edges stored on the vertex's master machine — always fresh) and
        a *remote* share (edges on other machines — refreshed every
        ``refresh_interval`` epochs, reused stale otherwise).
        """
        call_id = self._aggregate_calls
        self._aggregate_calls += 1
        fresh_epoch = (
            self._epoch_counter % self.refresh_interval == 0
            or call_id not in self._stale_forward
        )
        dim_bytes = states.shape[1] * 8.0

        local = np.zeros_like(states)
        partial = np.empty_like(states)
        for edges in self._local_edges_of_master:
            if edges.size == 0:
                continue
            partial.fill(0.0)
            np.add.at(partial, edges[:, 0], states[edges[:, 1]])
            np.add.at(partial, edges[:, 1], states[edges[:, 0]])
            local += partial

        if fresh_epoch:
            total = super()._aggregate(states)
            remote = total - local
            self._stale_forward[call_id] = remote
            copies = self.partition.copies_per_vertex()
            self.synchronised_bytes += float(
                np.maximum(copies - 1, 0).sum()
            ) * dim_bytes
            return total
        remote = self._stale_forward[call_id]
        copies = self.partition.copies_per_vertex()
        self.saved_bytes += float(
            np.maximum(copies - 1, 0).sum()
        ) * dim_bytes
        return local + remote

    def train_epoch(self) -> float:
        """Train one epoch, counting aggregator calls for staleness accounting."""
        self._aggregate_calls = 0
        loss = super().train_epoch()
        self._epoch_counter += 1
        return loss

    @property
    def communication_saving(self) -> float:
        """Fraction of halo traffic avoided so far."""
        total = self.synchronised_bytes + self.saved_bytes
        return self.saved_bytes / total if total > 0 else 0.0

