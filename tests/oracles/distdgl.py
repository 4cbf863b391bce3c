"""The DistDGL step as it stood before the measure/price split (PR 15).

:class:`OracleDistDglEngine` carries the verbatim pre-PR bodies of
``DistDglEngine.run_step`` (one loop over the workers that samples,
counts and prices in one go, on the engine's own
``default_rng(seed)``), ``_account_memory`` (k scans over the edges)
and the ``train_per_worker`` construction (k boolean masks), plus the
verbatim ``run_epoch`` from before epochs were priced in one pass (one
``run_step`` per step). Everything else — training, restarts — is
inherited, so an oracle engine and a production engine driven the same
way must agree field for field.
"""

from __future__ import annotations

from typing import Collection, Dict, List, Optional

import numpy as np

from repro.cluster import FaultPlan, RecoveryPolicy
from repro.costmodel import BACKWARD_FACTOR, aggregation_bytes
from repro.distdgl import DistDglEngine, EpochReport, StepBreakdown
from repro.distdgl.engine import PHASES
from repro.obs import api as obs

from .sampling import sample_blocks


class OracleDistDglEngine(DistDglEngine):
    """``DistDglEngine`` with the pre-PR step, ledger and train pools."""

    def __init__(self, partition, split, *args, seed: int = 0, **kwargs):
        super().__init__(partition, split, *args, seed=seed, **kwargs)
        self._rng = np.random.default_rng(seed)
        # Each worker samples seeds from its own partition's train vertices.
        self.train_per_worker: List[np.ndarray] = [
            self.split.train[self.owner[self.split.train] == w]
            for w in range(self.num_machines)
        ]

    def _account_memory(self) -> None:
        cm = self.cost_model
        edges = self.graph.undirected_edges()
        # DistDGL stores each edge on the owner(s) of its endpoints (inner
        # edges once, halo edges on both sides).
        owners_u = self.owner[edges[:, 0]]
        owners_v = self.owner[edges[:, 1]]
        self._local_edges_per_worker = np.zeros(
            self.num_machines, dtype=np.int64
        )
        self._owned_per_worker = np.zeros(self.num_machines, dtype=np.int64)
        for w in range(self.num_machines):
            local_edges = int(((owners_u == w) | (owners_v == w)).sum())
            owned = int((self.owner == w).sum())
            self._local_edges_per_worker[w] = local_edges
            self._owned_per_worker[w] = owned
            self.cluster.allocate(
                w, "structure", (2 * local_edges + owned) * cm.index_bytes
            )
            self.cluster.allocate(
                w, "features", cm.feature_bytes(owned, self.feature_size)
            )
            if self._cached is not None:
                self.cluster.allocate(
                    w,
                    "feature-cache",
                    cm.feature_bytes(
                        int(self._cached.sum()), self.feature_size
                    ),
                )
            # Model/optimizer state is partitioner-independent and (at the
            # paper's graph scale) negligible - excluded from the ledger,
            # as in the DistGNN engine.

    def run_step(
        self,
        active: Optional[Collection[int]] = None,
        slow_factors: Optional[np.ndarray] = None,
        lost_workers: Collection[int] = (),
        retransmit_timeout: float = 0.0,
    ) -> StepBreakdown:
        """Execute one global training step across all workers.

        ``active`` restricts the step to the surviving workers (graceful
        degradation after a crash): the global batch is redistributed
        over them and dead workers contribute no time. ``slow_factors``
        stretches per-worker compute phases (injected stragglers).
        ``lost_workers`` lose one feature-fetch RPC each this step and
        pay ``retransmit_timeout`` plus a refetch.
        """
        cm = self.cost_model
        k = self.num_machines
        active_set = set(range(k)) if active is None else set(active)
        if not active_set:
            raise ValueError("need at least one active worker")
        stretch = (
            np.ones(k) if slow_factors is None
            else np.asarray(slow_factors, dtype=np.float64)
        )
        per_worker = {phase: np.zeros(k) for phase in PHASES}
        fetch_bytes_per_worker = np.zeros(k)
        raw_fetch_per_worker = np.zeros(k)
        input_counts = np.zeros(k)
        local_inputs = remote_inputs = cache_hits = 0
        sampled_edges = 0
        step_bytes = 0.0
        # src x dst byte attribution for this step (owners -> worker for
        # sampling/fetching, ring for the all-reduce). Bookkeeping only;
        # phase timing stays a function of the per-worker scalars above.
        sample_matrix = np.zeros((k, k), dtype=np.float64)
        fetch_matrix = np.zeros((k, k), dtype=np.float64)
        batch_per_worker = max(
            self.global_batch_size // len(active_set), 1
        )

        for w in range(k):
            if w not in active_set:
                continue  # crashed worker: survivors carry the step
            pool = self.train_per_worker[w]
            if pool.size == 0:
                continue  # worker idles this step (train imbalance!)
            take = min(batch_per_worker, pool.size)
            seeds = self._rng.choice(pool, size=take, replace=False)
            batch = sample_blocks(self.graph, seeds, self.fanouts, self._rng)

            # ---- sampling phase -------------------------------------
            sample_sec = 0.0
            remote_frontier = 0
            edge_list_bytes = self.fanouts[0] * 2 * cm.index_bytes
            for block in batch.blocks:
                dst_owned = self.owner[block.src_ids[: block.num_dst]]
                remote = int((dst_owned != w).sum())
                remote_frontier += remote
                sampled_edges += int(block.num_edges)
                sample_sec += (
                    block.num_edges * cm.sample_seconds_per_edge
                    + remote * cm.remote_sample_overhead
                )
                # Remote frontiers ship their sampled edge lists back,
                # each remote vertex's owner -> this worker.
                step_bytes += remote * edge_list_bytes
                sample_matrix[:, w] += (
                    np.bincount(dst_owned[dst_owned != w], minlength=k)
                    * edge_list_bytes
                )
            per_worker["sample"][w] = sample_sec * stretch[w]

            # ---- feature fetching phase -----------------------------
            inputs = batch.input_ids
            owners = self.owner[inputs]
            remote_mask = owners != w
            if self._cached is not None:
                hits = remote_mask & self._cached[inputs]
                n_hits = int(hits.sum())
                cache_hits += n_hits
                remote_mask = remote_mask & ~self._cached[inputs]
                if n_hits:
                    # A cache hit is a remote fetch the wire never
                    # carries: its raw bytes count as saved.
                    self.comm.raw_bytes += cm.feature_bytes(
                        n_hits, self.feature_size
                    )
            n_remote = int(remote_mask.sum())
            n_local = int(inputs.shape[0] - n_remote)
            local_inputs += n_local
            remote_inputs += n_remote
            input_counts[w] = inputs.shape[0]
            raw_fetch = cm.feature_bytes(n_remote, self.feature_size)
            raw_fetch_per_worker[w] = raw_fetch
            owner_bytes = cm.feature_bytes(
                np.bincount(owners[remote_mask], minlength=k),
                self.feature_size,
            )
            # One RPC per peer that actually owns remote inputs: a good
            # partition talks to few peers, not to all k-1 of them.
            peers = int(np.unique(owners[remote_mask]).size)
            if self._codec.is_null():
                fetch_bytes = raw_fetch
                fetch_matrix[:, w] += owner_bytes
                per_worker["fetch"][w] = cm.transfer_seconds(
                    fetch_bytes, num_messages=max(peers, 1)
                ) + cm.memory_seconds(
                    cm.feature_bytes(n_local, self.feature_size)
                )
            else:
                # Compressed fetch: the wire carries codec-ratio bytes;
                # the owners encode and this worker decodes, both
                # charged on the raw payload.
                fetch_bytes = self._codec.wire_bytes(raw_fetch)
                fetch_matrix[:, w] += self._codec.wire_bytes(owner_bytes)
                codec_seconds = self._codec.codec_seconds(raw_fetch, cm)
                self.comm.codec_seconds += codec_seconds
                per_worker["fetch"][w] = cm.transfer_seconds(
                    fetch_bytes, num_messages=max(peers, 1)
                ) + cm.memory_seconds(
                    cm.feature_bytes(n_local, self.feature_size)
                ) + codec_seconds
            fetch_bytes_per_worker[w] = fetch_bytes
            step_bytes += fetch_bytes
            self.comm.raw_bytes += raw_fetch
            self.comm.wire_bytes += fetch_bytes

            # ---- compute phases -------------------------------------
            fwd = 0.0
            for layer, block in enumerate(batch.blocks):
                fwd += cm.compute_seconds(
                    self._layer_flops(
                        block.num_dst, block.num_src, block.num_edges, layer
                    )
                )
                fwd += cm.memory_seconds(
                    aggregation_bytes(
                        block.num_edges, self.dims[layer], cm.float_bytes
                    )
                )
            per_worker["forward"][w] = fwd * stretch[w]
            per_worker["backward"][w] = BACKWARD_FACTOR * fwd * stretch[w]

        # Injected lost messages: the affected worker's fetch RPC times
        # out and is refetched in full.
        for w in lost_workers:
            if w not in active_set:
                continue
            self.cluster.fabric.record_lost_message(w)
            per_worker["fetch"][w] += (
                retransmit_timeout
                + cm.transfer_seconds(fetch_bytes_per_worker[w])
            )
            step_bytes += fetch_bytes_per_worker[w]
            # The full fetch is re-sent by the same owners; the dropped
            # copy itself is a pure count on the fabric, no bytes. The
            # resend ships the already-encoded payload, so no fresh
            # codec time is charged.
            self.comm.raw_bytes += raw_fetch_per_worker[w]
            self.comm.wire_bytes += fetch_bytes_per_worker[w]
            fetch_matrix[:, w] *= 2.0

        # Gradient all-reduce is part of the backward phase, as in the
        # paper's measurement methodology (Section 5.3).
        grad_bytes = self.num_params * cm.float_bytes
        allreduce = cm.allreduce_seconds(grad_bytes, len(active_set))
        active_index = sorted(active_set)
        per_worker["backward"][active_index] += allreduce
        step_bytes += 2 * grad_bytes * max(len(active_set) - 1, 0)
        per_worker["update"][active_index] = (
            cm.compute_seconds(6.0 * self.num_params)
            * stretch[active_index]
        )

        # Ring all-reduce over the surviving workers.
        allreduce_matrix = np.zeros((k, k), dtype=np.float64)
        num_active = len(active_index)
        if num_active > 1:
            per_link = 2.0 * grad_bytes * (num_active - 1) / num_active
            for i, src in enumerate(active_index):
                allreduce_matrix[
                    src, active_index[(i + 1) % num_active]
                ] = per_link

        total_per_worker = sum(per_worker[phase] for phase in PHASES)
        for phase in PHASES:
            self.cluster.add_phase(phase, per_worker[phase])
        for phase, matrix in (
            ("sample", sample_matrix),
            ("fetch", fetch_matrix),
            ("backward", allreduce_matrix),  # all-reduce rides backward
        ):
            if matrix.any():
                self.cluster.record_traffic(
                    phase,
                    matrix.sum(axis=1),
                    matrix.sum(axis=0),
                    matrix=matrix,
                )
        self.comm.cache_hits += cache_hits
        self._comm_remote_inputs += remote_inputs
        active = input_counts[input_counts > 0]
        balance = (
            float(active.max() / active.mean()) if active.size else 1.0
        )
        if obs.enabled():
            obs.count("distdgl.steps")
            obs.observe(
                "distdgl.step_seconds",
                float(sum(per_worker[p].max() for p in PHASES)),
            )
            obs.count("distdgl.network_bytes", step_bytes)
            obs.count("distdgl.sampled_edges", sampled_edges)
            obs.count("distdgl.local_input_vertices", local_inputs)
            obs.count("distdgl.remote_input_vertices", remote_inputs)
            obs.count("distdgl.cache_hits", cache_hits)
            if len(active_set) < k:
                obs.count("distdgl.degraded_steps")
        return StepBreakdown(
            sample_seconds=float(per_worker["sample"].max()),
            fetch_seconds=float(per_worker["fetch"].max()),
            forward_seconds=float(per_worker["forward"].max()),
            backward_seconds=float(per_worker["backward"].max()),
            update_seconds=float(per_worker["update"].max()),
            network_bytes=step_bytes,
            local_input_vertices=local_inputs,
            remote_input_vertices=remote_inputs,
            input_vertex_balance=balance,
            per_worker_seconds=total_per_worker,
            cache_hits=cache_hits,
        )

    def run_epoch(
        self,
        fault_plan: Optional[FaultPlan] = None,
        recovery: Optional[RecoveryPolicy] = None,
        epoch_index: int = 0,
    ) -> EpochReport:
        """One epoch = enough steps to touch every training vertex once.

        With a ``fault_plan``, crashes at their step trigger retry with
        exponential backoff and then graceful degradation to the
        surviving workers; slowdowns stretch the affected worker's
        compute for the whole epoch; lost messages charge a fetch
        retransmit. Dead workers restart at the next epoch boundary.
        """
        steps = self._steps_per_epoch()
        report = EpochReport()
        self.comm.total_epochs += 1
        if fault_plan is None and recovery is None:
            for _ in range(steps):
                report.steps.append(self.run_step())
            return report
        if fault_plan is None:
            fault_plan = FaultPlan()
        if recovery is None:
            recovery = RecoveryPolicy()
        k = self.num_machines
        if self._dead_workers:
            self._restart_dead_workers()
        active = set(range(k))
        crash_by_step: Dict[int, list] = {}
        loss_by_step: Dict[int, list] = {}
        for event in fault_plan.crashes_at(epoch_index):
            crash_by_step.setdefault(event.step % steps, []).append(event)
        for event in fault_plan.losses_at(epoch_index):
            loss_by_step.setdefault(event.step % steps, []).append(event)
        stretch = np.ones(k)
        for event in fault_plan.slowdowns_at(epoch_index):
            machine = event.machine % k
            stretch[machine] *= event.magnitude
            self.cluster.timeline.add_mark(
                f"slowdown:worker-{machine}", "fault", machine
            )
            self.fault_summary.slowdowns += 1
        for step in range(steps):
            for event in crash_by_step.get(step, ()):
                machine = event.machine % k
                if machine not in active or len(active) <= 1:
                    # Never kill the last survivor: a cluster-wide outage
                    # has no recovery path inside one training run.
                    continue
                active.discard(machine)
                self._dead_workers.add(machine)
                self.fault_summary.crashes += 1
                self.cluster.machines[machine].record_crash()
                self.cluster.timeline.add_mark(
                    f"crash:worker-{machine}", "fault", machine
                )
                self.cluster.add_phase(
                    "fault-detect",
                    np.full(k, recovery.detection_timeout_seconds),
                    interrupted=True,
                )
                backoff = recovery.backoff_seconds()
                if backoff > 0:
                    self.cluster.add_phase(
                        "fault-backoff", np.full(k, backoff)
                    )
                self.fault_summary.retries += recovery.max_retries
            lost = {
                event.machine % k
                for event in loss_by_step.get(step, ())
                if event.machine % k in active
            }
            self.fault_summary.lost_messages += len(lost)
            for machine in sorted(lost):
                self.cluster.timeline.add_mark(
                    f"lost-message:worker-{machine}", "fault", machine
                )
            if len(active) < k:
                self.fault_summary.degraded_steps += 1
            report.steps.append(
                self.run_step(
                    active=active,
                    slow_factors=stretch,
                    lost_workers=lost,
                    retransmit_timeout=recovery.detection_timeout_seconds,
                )
            )
        return report

