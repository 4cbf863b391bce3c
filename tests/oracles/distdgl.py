"""The DistDGL step as it stood before the measure/price split, in
today's draw order, and the per-worker sampling step it replaced.

:class:`OracleDistDglEngine` carries the original bodies of
``DistDglEngine.run_step`` (one loop over the workers that samples,
counts and prices in one go, on the engine's own
``default_rng(seed)``), ``_account_memory`` (k scans over the edges)
and the ``train_per_worker`` construction (k boolean masks), plus the
verbatim ``run_epoch`` from before epochs were priced in one pass (one
``run_step`` per step). Everything else — training, restarts — is
inherited, so an oracle engine and a production engine driven the same
way must agree field for field.

Its sampling follows the engine's batched draw order, written out with
plain per-worker code (:func:`sample_blocks`): every worker's seeds are
drawn first, then each layer makes one ``rng.integers`` call over the
workers' high-degree frontier vertices in turn, and each worker expands
its own frontier from its rows. The order the step had before — one
worker's seeds and layers, then the next worker's — lives on as
:class:`PerWorkerSamplingEngine`, the production engine with its
pre-batching ``_sample`` verbatim: it pins the batched step exactly
where no layer draws, and in distribution everywhere else.
"""

from __future__ import annotations

from typing import Collection, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster import FaultPlan, RecoveryPolicy
from repro.costmodel import BACKWARD_FACTOR, aggregation_bytes
from repro.distdgl import DistDglEngine, EpochReport, StepBreakdown
from repro.distdgl.engine import PHASES
from repro.distdgl.trace import StepCounts
from repro.gnn import Block, MiniBatch, sample_layers
from repro.graph import Graph
from repro.obs import api as obs


def sample_blocks(
    graph: Graph,
    seeds: Sequence[np.ndarray],
    fanouts: Sequence[int],
    rng: np.random.Generator,
) -> List[MiniBatch]:
    """One mini-batch per seed array, in the batched draw order: per
    layer, one ``rng.integers`` call draws the rows of every batch's
    high-degree frontier vertices, batch by batch, each in frontier
    order; each batch then expands its frontier on its own, with the
    pre-layer-generator sampler's body (:mod:`tests.oracles.sampling`).
    """
    indptr, indices = graph.symmetric_csr()
    num_vertices = indptr.shape[0] - 1
    frontiers = [np.unique(np.asarray(s, dtype=np.int64)) for s in seeds]
    all_seeds = list(frontiers)
    blocks_reversed: List[List[Block]] = [[] for _ in seeds]
    local_of = np.full(num_vertices, -1, dtype=np.int64)
    for fanout in reversed(list(fanouts)):
        degrees = [indptr[f + 1] - indptr[f] for f in frontiers]
        bigs = [np.flatnonzero(d > fanout) for d in degrees]
        big_degrees = np.concatenate(
            [d[big] for d, big in zip(degrees, bigs)]
        )
        draws = np.zeros((0, fanout), dtype=np.int64)
        if big_degrees.size:
            draws = rng.integers(
                0, big_degrees[:, None], size=(big_degrees.size, fanout)
            )
        rows = np.split(draws, np.cumsum([big.size for big in bigs])[:-1])
        for i, frontier in enumerate(frontiers):
            edge_src_global, edge_dst_local = _expand(
                frontier, degrees[i], bigs[i], rows[i], indptr, indices,
                fanout,
            )
            # Sources: frontier first (prefix convention), then new
            # vertices.
            local_of[frontier] = np.arange(frontier.shape[0])
            new_mask = local_of[edge_src_global] < 0
            extra = np.unique(edge_src_global[new_mask])
            local_of[extra] = frontier.shape[0] + np.arange(extra.shape[0])
            edge_src_local = local_of[edge_src_global]
            src_ids = np.concatenate([frontier, extra])
            local_of[src_ids] = -1  # reset for the next batch / layer
            blocks_reversed[i].append(
                Block(
                    src_ids=src_ids,
                    num_dst=frontier.shape[0],
                    edge_src=edge_src_local,
                    edge_dst=edge_dst_local,
                )
            )
            frontiers[i] = src_ids
    return [
        MiniBatch(seeds=batch_seeds, blocks=list(reversed(blocks)))
        for batch_seeds, blocks in zip(all_seeds, blocks_reversed)
    ]


def _expand(
    frontier: np.ndarray,
    degrees: np.ndarray,
    big_idx: np.ndarray,
    draws: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    fanout: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """The old ``_sample_layer`` with the high-degree draws handed in:
    global source ids and local (frontier-index) destinations."""
    src_parts: List[np.ndarray] = []
    dst_parts: List[np.ndarray] = []
    # Low-degree vertices keep everything - fully vectorised.
    small = degrees <= fanout
    if small.any():
        small_idx = np.flatnonzero(small)
        take = degrees[small_idx]
        starts = indptr[frontier[small_idx]]
        total = int(take.sum())
        within = np.arange(total) - np.repeat(np.cumsum(take) - take, take)
        offsets = np.repeat(starts, take) + within
        src_parts.append(indices[offsets])
        dst_parts.append(np.repeat(small_idx, take))
    # High-degree vertices: their `fanout` draws with replacement,
    # deduplicated per (dst, src) pair.
    if big_idx.size:
        sampled = indices[indptr[frontier[big_idx]][:, None] + draws]
        dst = np.repeat(big_idx, fanout)
        src = sampled.ravel()
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

        # Crashed workers and workers without training vertices idle:
        # the others draw their seeds in turn, then sample together.
        drawing = [
            w for w in range(k)
            if w in active_set and self.train_per_worker[w].size
        ]
        seeds = [
            self._rng.choice(
                self.train_per_worker[w],
                size=min(batch_per_worker, self.train_per_worker[w].size),
                replace=False,
            )
            for w in drawing
        ]
        batches = dict(zip(drawing, sample_blocks(
            self.graph, seeds, self.fanouts, self._rng
        ) if drawing else ()))

        for w in drawing:
            batch = batches[w]

            # ---- sampling phase -------------------------------------
            sample_sec = 0.0
            remote_frontier = 0
            edge_list_bytes = self.fanouts[0] * 2 * cm.index_bytes
            for block in batch.blocks:
                dst_owned = self.owner[block.src_ids[: block.num_dst]]
                remote = int((dst_owned != w).sum())
                remote_frontier += remote
                sampled_edges += int(block.edge_src.shape[0])
                sample_sec += (
                    block.edge_src.shape[0] * cm.sample_seconds_per_edge
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
            inputs = batch.blocks[0].src_ids
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
                        block.num_dst, block.src_ids.shape[0],
                        block.edge_src.shape[0], layer,
                    )
                )
                fwd += cm.memory_seconds(
                    aggregation_bytes(
                        block.edge_src.shape[0], self.dims[layer],
                        cm.float_bytes,
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


class PerWorkerSamplingEngine(DistDglEngine):
    """``DistDglEngine`` with its ``_sample`` from before the batched
    frontier expansion, verbatim: each worker draws its seeds and
    samples its layers before the next worker draws."""

    def _sample(
        self, active: Tuple[int, ...], rng: np.random.Generator
    ) -> StepCounts:
        """Draw and sample one step's mini-batches; keep only their
        counts. Per active worker with training vertices, in ascending
        order: one ``rng.choice`` of seeds from its pool, then
        :func:`~repro.gnn.sample_layers`, whose layers are counted as
        they come — no blocks are built."""
        k = self.num_machines
        rng_state = rng.bit_generator.state
        workers = [w for w in active if self.train_per_worker[w].size]
        take = max(self.global_batch_size // len(active), 1)
        blocks = np.zeros((4, self.num_layers, len(workers)), dtype=np.int64)
        inputs = np.zeros((4, len(workers)), dtype=np.int64)
        sample_owners = np.zeros((len(workers), k), dtype=np.int64)
        fetch_owners = np.zeros((len(workers), k), dtype=np.int64)
        try:
            for i, w in enumerate(workers):
                pool = self.train_per_worker[w]
                seeds = rng.choice(
                    pool, size=min(take, pool.size), replace=False
                )
                layers = sample_layers(self.graph, seeds, self.fanouts, rng)
                # Layers come seeds inward: the last GNN layer first.
                for layer, (frontier, src, _, extra) in zip(
                    reversed(range(self.num_layers)), layers
                ):
                    # Frontier vertices owned elsewhere need a sampling RPC.
                    looked_up = np.bincount(self.owner[frontier], minlength=k)
                    looked_up[w] = 0
                    sample_owners[i] += looked_up
                    blocks[:, layer, i] = (
                        frontier.size, frontier.size + extra.size, src.size,
                        looked_up.sum(),
                    )
                ids = np.concatenate([frontier, extra])
                owners = self.owner[ids]
                remote = owners != w
                hits = 0
                if self._cached is not None:
                    # A cached remote vertex is never fetched over the wire.
                    hot = self._cached[ids]
                    hits = np.count_nonzero(remote & hot)
                    remote &= ~hot
                fetch_owners[i] = np.bincount(owners[remote], minlength=k)
                fetched = fetch_owners[i].sum()
                inputs[:, i] = (ids.size, ids.size - fetched, fetched, hits)
        except BaseException:
            # Leave the stream where the step found it: a shared trace's
            # generator must always stand after its last recorded step.
            rng.bit_generator.state = rng_state
            raise
        # The two (m, k) histograms are most of a trace: keep them in the
        # narrowest unsigned type that holds them (pricing widens).
        sample_owners, fetch_owners = (
            owners.astype(np.min_scalar_type(owners.max(initial=0)))
            for owners in (sample_owners, fetch_owners)
        )
        arrays = (
            np.array(workers, dtype=np.intp), blocks, sample_owners, inputs,
            fetch_owners,
        )
        for array in arrays:
            array.setflags(write=False)
        return StepCounts(active, rng_state, *arrays)
