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
from functools import cached_property
from typing import List

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
        aggregates in between. The defaults price the exact baseline
        bit for bit.
        """
        if min(feature_size, hidden_dim, num_layers, num_classes) <= 0:
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
        self.cluster.memory.allocate(
            machines, "structure", (5 * edges + 2 * vertices) * cm.index_bytes,
        )
        self.cluster.memory.allocate(
            machines, "features", cm.feature_bytes(vertices, self.feature_size)
        )
        # Intermediate representations are kept for the backward pass,
        # one per vertex copy and layer (gradients are transient: they
        # live only while the layer's backward step runs).
        self.cluster.memory.allocate(
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
        self.cluster.memory.allocate(
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
    @cached_property
    def _layer_costs(self) -> tuple:
        """Every layer's costs at once: nominal forward compute seconds
        ``(L, k)`` (``dims`` as a column), and for each layer's two halo
        syncs — forward, then backward — the bytes sent and received
        ``(L, 2, k)`` and the ``src x dst`` bytes ``(L, 2, k, k)``.

        In the forward sync, replica machine ``i`` pushes ``dim_in``
        partial aggregates to the master machine ``j`` and receives the
        ``dim_out`` result back, so its matrix is the pair-count matrix
        weighted one way plus its transpose weighted the other (row and
        column sums: the sent and received vectors). Backward gradients
        flow along the same replica links, the two dimensions swapped.
        """
        cm = self.cost_model
        dims = np.array(self.dims)[:, np.newaxis]
        dim_in, dim_out = dims[:-1], dims[1:]
        # Aggregation: every local edge moves a dim_in message both ways.
        agg_bytes = aggregation_bytes(
            2 * self.edges_per_machine, dim_in, cm.float_bytes
        )
        agg_flops = 2.0 * 2 * self.edges_per_machine * dim_in
        # Dense transform on mastered vertices (two GEMMs for SAGE).
        transform = 2.0 * gemm_flops(self.masters_per_machine, dim_in, dim_out)
        compute = (
            cm.memory_seconds(agg_bytes)
            + cm.compute_seconds(agg_flops + transform)
        )
        # Bytes per machine (per machine pair) at every layer boundary's
        # dimension: row l is a layer's dim_in, row l + 1 its dim_out.
        nonmasters = cm.feature_bytes(self.nonmaster_per_machine, dims)
        excess = cm.feature_bytes(self.master_excess_per_machine, dims)
        pairs = cm.feature_bytes(self.pair_counts, dims[..., np.newaxis])
        sent = nonmasters[:-1] + excess[1:]
        received = excess[:-1] + nonmasters[1:]
        forward = pairs[:-1] + pairs[1:].swapaxes(1, 2)
        backward = pairs[1:] + pairs[:-1].swapaxes(1, 2)
        layers, k = compute.shape
        return (
            compute,
            np.concatenate([sent, received], 1).reshape(layers, 2, k),
            np.concatenate([received, sent], 1).reshape(layers, 2, k),
            np.concatenate([forward, backward], 1).reshape(layers, 2, k, k),
        )

    def simulate_epoch(
        self, speed_multipliers: np.ndarray | None = None
    ) -> EpochBreakdown:
        """Account one epoch; updates the cluster timeline and fabric.

        ``speed_multipliers`` (optional, per machine, finite, >= 1)
        stretch a machine's compute phases — transient stragglers
        injected by a :class:`~repro.cluster.FaultPlan` slowdown event.

        With ``refresh_interval`` r > 1, only every r-th epoch runs
        the halo syncs (the first epoch always does); the epochs in
        between compute on stale replica aggregates, moving no halo
        bytes and paying no sync time — the gradient all-reduce still
        runs every epoch, as in cd-r, so the model stays consistent.

        All layers are priced at once, in one ``(phases x k)`` block:
        per layer, ``forward-l``, [``codec``], ``forward-sync-l``,
        ``backward-l``, [``codec``], ``backward-sync-l``; then
        [``codec``], ``gradient-allreduce`` and ``optimizer``. A codec
        shrinks every sync payload by its ratio and charges a ``codec``
        compute phase for its encode+decode passes over the raw bytes
        (the null codec: ratio 1.0, exact, and no codec phases).
        """
        cm, cluster, codec, comm = (
            self.cost_model, self.cluster, self._codec, self.comm
        )
        k, layers = self.num_machines, self.num_layers
        stretch = np.ones(k)
        if speed_multipliers is not None:
            stretch = np.asarray(speed_multipliers, dtype=np.float64)
            if stretch.shape != (k,) or not (
                (stretch >= 1) & (stretch < np.inf)
            ).all():
                raise ValueError(
                    f"speed_multipliers must be {k} finite factors >= 1"
                )
        fresh = self._epoch_index % self.refresh_interval == 0
        coded = int(not codec.is_null())
        self._epoch_index += 1
        comm.total_epochs += 1
        comm.stale_epochs += not fresh
        compute, sent, received, matrices = self._layer_costs
        compute = compute * stretch
        # Raw bytes count every sync, run or skipped: a skipped (stale)
        # sync's bytes are the delayed-aggregation saving.
        for raw in np.add.reduce(sent, -1).ravel().tolist():
            comm.raw_bytes += raw
        # Per layer and direction: the compute row, then, when the halo
        # syncs run, the codec row and the sync row.
        both = np.concatenate([compute, BACKWARD_FACTOR * compute], 1)
        busy = [both.reshape(layers, 2, 1, k)]
        kinds = ["{}-l{}"]
        if fresh:
            if coded:
                codec_seconds = codec.codec_seconds(sent + received, cm)
                busy.append(codec_seconds[:, :, np.newaxis])
                kinds.append("codec")
            kinds.append("{}-sync-l{}")
            sent, received = codec.wire_bytes(sent), codec.wire_bytes(received)
            matrices = codec.wire_bytes(matrices)
        grad_bytes = self.num_params * cm.float_bytes
        ring_factor = 2.0 * max(k - 1, 0)
        comm.raw_bytes += grad_bytes * ring_factor
        wire_grad_bytes = codec.wire_bytes(grad_bytes)
        # Each machine encodes its own gradient once and decodes the
        # reduced result once.
        tail = np.full((coded, k), codec.codec_seconds(2.0 * grad_bytes, cm))
        codec_rows = [block.reshape(-1, k) for block in busy[1:]] + [tail]
        for seconds in np.add.reduce(np.concatenate(codec_rows), -1).tolist():
            comm.codec_seconds += seconds
        busy = np.concatenate([np.concatenate(busy, 2).reshape(-1, k), tail])
        busy = busy / cluster.machine_speeds
        sync_seconds = cm.allreduce_seconds(wire_grad_bytes, k)
        optimizer_seconds = cm.compute_seconds(6.0 * self.num_params)
        rows = busy[: len(busy) - coded].reshape(layers, 2, -1, k)
        syncs = 2 * layers * fresh
        sent = sent.reshape(-1, k)[:syncs]
        received = received.reshape(-1, k)[:syncs]
        if fresh:
            rows = np.concatenate([
                rows,
                cluster.comm_seconds(sent, received).reshape(layers, 2, 1, k),
            ], 2)
        cells = [
            (direction, layer)
            for layer in range(layers) for direction in ("forward", "backward")
        ]
        durations = iter(cluster.add_phases(
            [kind.format(*cell) for cell in cells for kind in kinds]
            + ["codec"] * coded + ["gradient-allreduce", "optimizer"],
            np.concatenate([
                rows.reshape(-1, k),
                busy[len(busy) - coded:],
                np.full((1, k), sync_seconds),
                np.full((1, k), optimizer_seconds) * stretch,
            ]),
        ))
        # Explicit left-to-right ``+=`` in phase order: the builtin
        # ``sum`` is compensated on Python 3.12+ and would change bits.
        straggler = [0.0, 0.0]  # forward, backward
        for cell in range(2 * layers):
            straggler[cell % 2] += next(durations)
            if fresh:
                seconds = next(durations)
                if coded:
                    seconds += next(durations)
                straggler[cell % 2] += seconds
        forward, backward = straggler
        if coded:
            backward += next(durations)
        total_bytes = 0.0
        for wire in np.add.reduce(sent, -1).tolist():
            comm.wire_bytes += wire
            total_bytes += wire
        comm.wire_bytes += wire_grad_bytes * ring_factor
        total_bytes += wire_grad_bytes * ring_factor
        # The ring all-reduce: machine i sends to machine (i + 1) mod k.
        ring = np.full((1, k), 2.0 * wire_grad_bytes * (k - 1) / k)
        links = np.zeros((1, k, k))
        links[0, np.arange(k), np.arange(1, k + 1) % k] = ring[0]
        cluster.record_traffic_rows(
            ["{}-sync-l{}".format(*cell) for cell in cells][:syncs]
            + ["gradient-allreduce"],
            np.concatenate([sent, ring]),
            np.concatenate([received, ring]),
            np.concatenate([matrices.reshape(-1, k, k)[:syncs], links]),
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
            cluster.timeline.add_mark(
                f"crash:machine-{machine}", "fault", machine
            )
        self.fault_summary.crashes += len(crashes)
        cluster.add_phases(
            ["fault-detect"],
            np.full((1, k), recovery.detection_timeout_seconds),
            interrupted=True,
        )
        restore = np.full(k, cm.transfer_seconds(self._model_state_bytes()))
        partition_state = self._partition_state_bytes()
        for machine in crashed:
            restore[machine] = cm.transfer_seconds(
                self._model_state_bytes() + float(partition_state[machine])
            )
        cluster.add_phases(["fault-restore"], restore[np.newaxis])
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
        if num_epochs < 1:
            raise ValueError("num_epochs must be >= 1")
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
                cluster.add_phases(
                    ["fault-retransmit"], retransmit[np.newaxis]
                )
                self.fault_summary.lost_messages += 1
            if (epoch + 1) % recovery.checkpoint_every == 0 \
                    and epoch + 1 < num_epochs:
                cluster.add_phases(
                    ["checkpoint"],
                    np.full(
                        (1, k), cm.transfer_seconds(self._model_state_bytes())
                    ),
                )
                cluster.timeline.add_mark("checkpoint", "checkpoint")
                self.fault_summary.checkpoints += 1
        return breakdowns

    def comm_summary(self) -> CommSummary:
        """Accumulated communication-reduction accounting."""
        return self.comm
