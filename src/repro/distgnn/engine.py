"""DistGNN-style full-batch distributed training engine.

Models the system the paper pairs with *edge partitioning* (vertex-cut):
every machine owns one edge partition; cut vertices are replicated, one
replica per vertex being the *master* (it holds the authoritative state and
runs the neural-network update). Each epoch consists of, per layer:

1. local partial aggregation over the partition's edges,
2. replica synchronisation (partial aggregates to masters, updated
   representations back to replicas) — the traffic the replication factor
   governs,
3. the dense transform on the masters,

followed by the backward mirror of the same phases, a gradient all-reduce,
and the optimizer step. Phase times come from the cost model; the epoch
time is the sum over barrier-separated phases of the slowest machine
(straggler) in each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..cluster import Cluster, FaultPlan, FaultSummary, RecoveryPolicy
from ..comm import CommSummary, make_codec
from ..costmodel import (
    DEFAULT_COST_MODEL,
    BACKWARD_FACTOR,
    CostModel,
    aggregation_bytes,
    gemm_flops,
)
from ..obs import api as obs
from ..obs.profiling import capture as profiling
from ..partitioning import EdgePartition

__all__ = ["DistGnnEngine", "EpochBreakdown"]


@dataclass(frozen=True)
class EpochBreakdown:
    """Straggler seconds per phase for one full-batch epoch."""

    forward_seconds: float
    backward_seconds: float
    sync_seconds: float
    optimizer_seconds: float
    network_bytes: float

    @property
    def epoch_seconds(self) -> float:
        """Total simulated epoch time (forward + backward + sync + optimizer)."""
        return (
            self.forward_seconds
            + self.backward_seconds
            + self.sync_seconds
            + self.optimizer_seconds
        )


class DistGnnEngine:
    """Cost-accounted full-batch training over an edge partition.

    Parameters mirror the paper's sweep dimensions (Table 3). DistGNN only
    supports GraphSAGE (paper Section 4.1), so no ``arch`` parameter.
    """

    def __init__(
        self,
        partition: EdgePartition,
        feature_size: int,
        hidden_dim: int,
        num_layers: int,
        num_classes: int = 10,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        machine_speeds: np.ndarray | None = None,
        compression: str = "none",
        refresh_interval: int = 1,
    ) -> None:
        """``compression`` names a :mod:`repro.comm` codec applied to
        the halo syncs and the gradient all-reduce; ``refresh_interval``
        is cd-r delayed aggregation (Md et al., SC 2021): halo syncs run
        only every r-th epoch and the replicas compute on stale
        aggregates in between. The defaults execute the exact baseline
        code path bit for bit.
        """
        if feature_size <= 0 or hidden_dim <= 0 or num_layers <= 0:
            raise ValueError("model dimensions must be positive")
        if refresh_interval < 1:
            raise ValueError("refresh_interval must be >= 1")
        self.partition = partition
        self.feature_size = feature_size
        self.hidden_dim = hidden_dim
        self.num_layers = num_layers
        self.num_classes = num_classes
        self.cost_model = cost_model
        self.num_machines = partition.num_partitions
        self.refresh_interval = refresh_interval
        self._codec = make_codec(compression)
        #: Comm-reduction accounting (raw vs wire bytes, codec time,
        #: stale epochs) accumulated over every simulated epoch.
        self.comm = CommSummary(
            codec_error=(
                0.0 if self._codec.is_null()
                else self._codec.error_per_value
            )
        )
        self._epoch_index = 0

        self.dims = (
            [feature_size] + [hidden_dim] * (num_layers - 1) + [num_classes]
        )
        self.cluster = Cluster(
            self.num_machines, cost_model, machine_speeds=machine_speeds
        )
        #: Counters of the last faulty run (all zero when none was run).
        self.fault_summary = FaultSummary()
        # Everything the phases need from the partition, derived once
        # per partition whatever the model (read-only, shared).
        (
            self.edges_per_machine,
            self.vertices_per_machine,
            self.masters_per_machine,
            self.nonmaster_per_machine,
            self.master_excess_per_machine,
            self.pair_counts,
        ) = partition.replica_stats()
        self.num_params = sum(
            2 * self.dims[i] * self.dims[i + 1] + self.dims[i + 1]
            for i in range(self.num_layers)
        )
        self._account_memory()

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    def _account_memory(self) -> None:
        cm = self.cost_model
        machines = np.arange(self.num_machines)
        edges, vertices = self.edges_per_machine, self.vertices_per_machine
        activation_dims = sum(self.dims[1:])  # one stored output per layer
        # Forward + reverse CSR over the local edges plus per-edge halo
        # metadata (DistGNN tracks, per edge, whether the counterpart
        # is a replica and where its master lives).
        self.cluster.allocate(
            machines, "structure", (5 * edges + 2 * vertices) * cm.index_bytes,
        )
        self.cluster.allocate(
            machines, "features", cm.feature_bytes(vertices, self.feature_size)
        )
        # Intermediate representations are kept for the backward pass,
        # one per vertex copy and layer (gradients are transient: they
        # live only while the layer's backward step runs).
        self.cluster.allocate(
            machines, "activations",
            cm.feature_bytes(vertices, activation_dims),
        )
        # Model + optimizer state is identical on every machine and
        # partitioner-independent; at the paper's graph scale it is a
        # negligible share of the footprint (<0.1%), so including it
        # at our deliberately reduced graph scale would only distort
        # the relative footprints the study compares. It is therefore
        # excluded from the ledger.
        # Halo exchanges are streamed in chunks; the resident buffer
        # holds a slice of the replica payload, not all of it.
        max_dim = max(self.dims)
        chunk_fraction = 0.1
        self.cluster.allocate(
            machines,
            "comm-buffers",
            2
            * chunk_fraction
            * cm.feature_bytes(self.nonmaster_per_machine, max_dim),
        )

    def memory_per_machine(self) -> np.ndarray:
        """Peak bytes per machine (paper's memory footprint metric)."""
        return self.cluster.memory_per_machine()

    def total_memory(self) -> float:
        """Total peak memory across all machines."""
        return float(self.memory_per_machine().sum())

    def memory_utilization_balance(self) -> float:
        """max/mean of per-machine peak memory (paper Figure 5)."""
        return self.cluster.memory_utilization_balance()

    def check_memory_budget(self) -> None:
        """Raise OutOfMemoryError when a machine exceeds the budget."""
        self.cluster.check_memory_budget()

    # ------------------------------------------------------------------
    # Epoch simulation
    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------
    def _model_state_bytes(self) -> float:
        """Checkpoint payload per machine: weights + two Adam moments."""
        return 3.0 * self.num_params * self.cost_model.float_bytes

    def _partition_state_bytes(self) -> np.ndarray:
        """Per-machine graph + feature bytes a restarted worker reloads.

        This is where partition skew hurts recovery: the machine holding
        the biggest partition is the restore straggler.
        """
        cm = self.cost_model
        structure = (
            5 * self.edges_per_machine + 2 * self.vertices_per_machine
        ) * cm.index_bytes
        features = cm.feature_bytes(
            self.vertices_per_machine, self.feature_size
        )
        return structure + features

    def _run_crash_recovery(
        self, epoch: int, crashes, recovery: RecoveryPolicy
    ) -> None:
        """Charge detection, restore and replay for a crash at ``epoch``.

        The crash strikes at the epoch boundary: everything since the
        last checkpoint — ``epoch % checkpoint_every`` epochs — is lost
        and re-executed (as ``replay:*`` phases), after a restore whose
        cost covers model state plus the crashed machines' partition
        state.
        """
        cm = self.cost_model
        cluster = self.cluster
        k = self.num_machines
        crashed = sorted({event.machine % k for event in crashes})
        for machine in crashed:
            cluster.machines[machine].record_crash()
            cluster.timeline.add_mark(
                f"crash:machine-{machine}", "fault", machine
            )
        self.fault_summary.crashes += len(crashes)
        cluster.add_phase(
            "fault-detect",
            np.full(k, recovery.detection_timeout_seconds),
            interrupted=True,
        )
        restore = np.full(k, cm.transfer_seconds(self._model_state_bytes()))
        partition_state = self._partition_state_bytes()
        for machine in crashed:
            restore[machine] = cm.transfer_seconds(
                self._model_state_bytes() + float(partition_state[machine])
            )
            cluster.machines[machine].record_restart()
        cluster.add_phase("fault-restore", restore)
        cluster.timeline.add_mark("restore-checkpoint", "recovery")
        lost_epochs = epoch % recovery.checkpoint_every
        self.fault_summary.reexecuted_epochs += lost_epochs
        obs.count("distgnn.replayed_epochs", lost_epochs)
        cluster.phase_prefix = "replay:"
        try:
            for _ in range(lost_epochs):
                self.simulate_epoch()
        finally:
            cluster.phase_prefix = ""

    def simulate_training(
        self,
        num_epochs: int,
        fault_plan: FaultPlan | None = None,
        recovery: RecoveryPolicy | None = None,
    ) -> List[EpochBreakdown]:
        """Run ``num_epochs`` (full-batch epochs are deterministic).

        With a ``fault_plan``, injected crashes trigger checkpoint/restart
        recovery under ``recovery`` (defaulted), slowdowns stretch the
        affected machines' compute phases, and lost messages charge a
        retransmit stall. The returned breakdowns cover the ``num_epochs``
        *logical* epochs; recovery work appears in the cluster timeline
        (``fault-*``, ``replay:*`` and ``checkpoint`` phases) and in
        :attr:`fault_summary`.
        """
        if fault_plan is None and recovery is None:
            with profiling.profile_scope("distgnn.epochs"):
                return [
                    self.simulate_epoch() for _ in range(num_epochs)
                ]
        if fault_plan is None:
            fault_plan = FaultPlan()
        if recovery is None:
            recovery = RecoveryPolicy()
        cm = self.cost_model
        cluster = self.cluster
        k = self.num_machines
        self.fault_summary = FaultSummary()
        breakdowns: List[EpochBreakdown] = []
        for epoch in range(num_epochs):
            crashes = fault_plan.crashes_at(epoch)
            if crashes:
                self._run_crash_recovery(epoch, crashes, recovery)
            slowdowns = fault_plan.slowdowns_at(epoch)
            stretch = np.ones(k)
            for event in slowdowns:
                cluster.timeline.add_mark(
                    f"slowdown:machine-{event.machine % k}",
                    "fault",
                    event.machine % k,
                )
                stretch[event.machine % k] *= event.magnitude
            self.fault_summary.slowdowns += len(slowdowns)
            breakdowns.append(
                self.simulate_epoch(
                    speed_multipliers=stretch if slowdowns else None
                )
            )
            for event in fault_plan.losses_at(epoch):
                machine = event.machine % k
                cluster.fabric.record_lost_message(machine)
                cluster.timeline.add_mark(
                    f"lost-message:machine-{machine}", "fault", machine
                )
                retransmit = np.zeros(k)
                retransmit[machine] = (
                    recovery.detection_timeout_seconds
                    + cm.transfer_seconds(
                        cm.feature_bytes(
                            self.nonmaster_per_machine[machine],
                            self.feature_size,
                        )
                    )
                )
                cluster.add_phase("fault-retransmit", retransmit)
                self.fault_summary.lost_messages += 1
            if (epoch + 1) % recovery.checkpoint_every == 0 \
                    and epoch + 1 < num_epochs:
                cluster.add_phase(
                    "checkpoint",
                    np.full(
                        k, cm.transfer_seconds(self._model_state_bytes())
                    ),
                )
                cluster.timeline.add_mark("checkpoint", "checkpoint")
                self.fault_summary.checkpoints += 1
        return breakdowns

    def phase_summary(self) -> Dict[str, float]:
        """Total simulated seconds per phase name."""
        return self.cluster.timeline.phase_totals()

    def comm_summary(self) -> CommSummary:
        """Accumulated communication-reduction accounting."""
        return self.comm
