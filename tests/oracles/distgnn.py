"""The DistGNN epoch as it stood before it was priced in one pass.

:class:`OracleDistGnnEngine` carries the verbatim bodies of
``DistGnnEngine.simulate_epoch`` from before the layer axis: one
``run_compute_phase`` / ``run_comm_phase`` call per phase and layer
(``_run_sync_phase`` and the per-layer helpers), and the all-reduce
matrix built by a Python loop. Everything else — construction, memory,
faults, training — is inherited, so an oracle engine and a production
engine driven the same way must agree field for field
(``tests/oracles/test_distgnn_identity.py``). Do not tidy the bodies.
"""

from __future__ import annotations

import numpy as np

from repro.costmodel import BACKWARD_FACTOR, aggregation_bytes, gemm_flops
from repro.distgnn import DistGnnEngine, EpochBreakdown
from repro.obs import api as obs

__all__ = ["OracleDistGnnEngine"]


class OracleDistGnnEngine(DistGnnEngine):
    """``DistGnnEngine`` with the per-layer, per-phase epoch."""

    def _layer_compute_seconds(
        self, dim_in: int, dim_out: int
    ) -> np.ndarray:
        """Per-machine forward seconds for one layer."""
        cm = self.cost_model
        # Aggregation: every local edge moves a dim_in message both ways.
        agg_bytes = aggregation_bytes(
            2 * self.edges_per_machine, dim_in, cm.float_bytes
        )
        agg_flops = 2.0 * 2 * self.edges_per_machine * dim_in
        # Dense transform on mastered vertices (two GEMMs for SAGE).
        transform = 2.0 * gemm_flops(
            self.masters_per_machine, dim_in, dim_out
        )
        return (
            cm.memory_seconds(agg_bytes)
            + cm.compute_seconds(agg_flops + transform)
        )

    def _layer_sync(
        self, dim_in: int, dim_out: int
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Per-machine (sent, received) bytes for one layer's halo sync."""
        cm = self.cost_model
        push = cm.feature_bytes(self.nonmaster_per_machine, dim_in)
        push_recv = cm.feature_bytes(self.master_excess_per_machine, dim_in)
        bcast = cm.feature_bytes(self.master_excess_per_machine, dim_out)
        bcast_recv = cm.feature_bytes(self.nonmaster_per_machine, dim_out)
        sent = push + bcast
        received = push_recv + bcast_recv
        return sent, received, float(sent.sum())

    def _layer_sync_matrix(self, dim_in: int, dim_out: int) -> np.ndarray:
        """``src x dst`` bytes of one layer's halo sync.

        Replica machine ``i`` pushes ``dim_in`` partial aggregates to
        the master machine ``j`` and receives the ``dim_out`` result
        back, so the matrix is the pair-count matrix weighted one way
        plus its transpose weighted the other. Row/column sums equal the
        sent/received vectors of :meth:`_layer_sync`; the backward sync
        is the same matrix with the dimensions swapped.
        """
        cm = self.cost_model
        return (
            cm.feature_bytes(self.pair_counts, dim_in)
            + cm.feature_bytes(self.pair_counts, dim_out).T
        )

    def _allreduce_matrix(self, grad_bytes: float) -> np.ndarray:
        """``src x dst`` bytes of the ring gradient all-reduce."""
        k = self.num_machines
        matrix = np.zeros((k, k), dtype=np.float64)
        if k > 1:
            per_link = 2.0 * grad_bytes * (k - 1) / k
            for i in range(k):
                matrix[i, (i + 1) % k] = per_link
        return matrix

    def _run_sync_phase(
        self,
        name: str,
        sent: np.ndarray,
        received: np.ndarray,
        matrix: np.ndarray,
    ) -> tuple[float, float]:
        """Run one halo-sync comm phase through the codec.

        Returns ``(straggler seconds, wire bytes)``. The null codec
        takes the exact baseline path; otherwise the payload shrinks
        by the codec ratio and every machine is charged a ``codec``
        compute phase for its encode+decode passes over the raw bytes.
        """
        codec = self._codec
        raw_total = float(sent.sum())
        self.comm.raw_bytes += raw_total
        if codec.is_null():
            self.comm.wire_bytes += raw_total
            seconds = self.cluster.run_comm_phase(
                name, sent, received, matrix=matrix
            )
            return seconds, raw_total
        codec_seconds = (
            codec.work_factor * (sent + received)
            / self.cost_model.memory_bandwidth
        )
        self.comm.codec_seconds += float(codec_seconds.sum())
        wire_sent = codec.wire_bytes(sent)
        wire_total = float(wire_sent.sum())
        self.comm.wire_bytes += wire_total
        seconds = self.cluster.run_compute_phase("codec", codec_seconds)
        seconds += self.cluster.run_comm_phase(
            name,
            wire_sent,
            codec.wire_bytes(received),
            matrix=codec.wire_bytes(matrix),
        )
        return seconds, wire_total

    def simulate_epoch(
        self, speed_multipliers: np.ndarray | None = None
    ) -> EpochBreakdown:
        """Account one epoch; updates the cluster timeline and fabric.

        ``speed_multipliers`` (optional, per machine, >= 1) stretch a
        machine's compute phases — transient stragglers injected by a
        :class:`~repro.cluster.FaultPlan` slowdown event.

        With ``refresh_interval`` r > 1, only every r-th epoch runs
        the halo syncs (the first epoch always does); the epochs in
        between compute on stale replica aggregates, moving no halo
        bytes and paying no sync time — the gradient all-reduce still
        runs every epoch, as in cd-r, so the model stays consistent.
        """
        cm = self.cost_model
        cluster = self.cluster
        codec = self._codec
        if speed_multipliers is None:
            stretch = np.ones(self.num_machines)
        else:
            stretch = np.asarray(speed_multipliers, dtype=np.float64)
        stale = (
            self.refresh_interval > 1
            and self._epoch_index % self.refresh_interval != 0
        )
        self._epoch_index += 1
        self.comm.total_epochs += 1
        if stale:
            self.comm.stale_epochs += 1
        forward = backward = 0.0
        total_bytes = 0.0
        for layer in range(self.num_layers):
            dim_in, dim_out = self.dims[layer], self.dims[layer + 1]
            compute = self._layer_compute_seconds(dim_in, dim_out) * stretch
            sent, received, layer_bytes = self._layer_sync(dim_in, dim_out)

            forward += cluster.run_compute_phase(
                f"forward-l{layer}", compute
            )
            if not stale:
                seconds, wire = self._run_sync_phase(
                    f"forward-sync-l{layer}", sent, received,
                    self._layer_sync_matrix(dim_in, dim_out),
                )
                forward += seconds
                total_bytes += wire
            else:
                # Skipped sync: the bytes it would have moved are the
                # delayed-aggregation saving.
                self.comm.raw_bytes += layer_bytes
            # Backward mirrors the forward: same sync volume (gradients
            # flow along the same replica links), ~2x the compute.
            backward += cluster.run_compute_phase(
                f"backward-l{layer}", BACKWARD_FACTOR * compute
            )
            if not stale:
                seconds, wire = self._run_sync_phase(
                    f"backward-sync-l{layer}", received, sent,
                    self._layer_sync_matrix(dim_out, dim_in),
                )
                backward += seconds
                total_bytes += wire
            else:
                self.comm.raw_bytes += float(received.sum())

        grad_bytes = self.num_params * cm.float_bytes
        ring_factor = 2.0 * max(self.num_machines - 1, 0)
        self.comm.raw_bytes += grad_bytes * ring_factor
        if codec.is_null():
            wire_grad_bytes = grad_bytes
        else:
            wire_grad_bytes = codec.wire_bytes(grad_bytes)
            # Each machine encodes its own gradient once and decodes
            # the reduced result once.
            codec_seconds = np.full(
                self.num_machines,
                codec.codec_seconds(2.0 * grad_bytes, cm),
            )
            self.comm.codec_seconds += float(codec_seconds.sum())
            backward += cluster.run_compute_phase("codec", codec_seconds)
        self.comm.wire_bytes += wire_grad_bytes * ring_factor
        sync_seconds = cm.allreduce_seconds(
            wire_grad_bytes, self.num_machines
        )
        cluster.add_phase(
            "gradient-allreduce",
            np.full(self.num_machines, sync_seconds),
        )
        allreduce_matrix = self._allreduce_matrix(wire_grad_bytes)
        cluster.record_traffic(
            "gradient-allreduce",
            allreduce_matrix.sum(axis=1),
            allreduce_matrix.sum(axis=0),
            matrix=allreduce_matrix,
        )
        total_bytes += wire_grad_bytes * ring_factor

        optimizer_seconds = cm.compute_seconds(6.0 * self.num_params)
        cluster.add_phase(
            "optimizer",
            np.full(self.num_machines, optimizer_seconds) * stretch,
        )
        breakdown = EpochBreakdown(
            forward_seconds=forward,
            backward_seconds=backward,
            sync_seconds=sync_seconds,
            optimizer_seconds=optimizer_seconds,
            network_bytes=total_bytes,
        )
        if obs.enabled():
            obs.count("distgnn.epochs")
            obs.observe("distgnn.epoch_seconds", breakdown.epoch_seconds)
            obs.count("distgnn.network_bytes", total_bytes)
        return breakdown
