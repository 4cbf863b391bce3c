"""DistDGL-style mini-batch distributed training engine.

Models the system the paper pairs with *vertex partitioning* (edge-cut):
every machine owns one vertex partition (graph structure + features of its
vertices) and one worker. Each training step, every worker

1. draws ``GBS / |W|`` seeds from *its own* partition's training vertices,
2. samples the k-hop computation graph (remote frontier vertices require a
   neighbour lookup on their owner — the sampling RPCs),
3. fetches features of remote input vertices (the feature-loading phase),
4. runs forward and backward over the sampled blocks, and
5. all-reduces gradients and updates the model.

The engine *executes* the sampling on the real graph — mini-batch overlap,
remote-vertex counts and input-vertex balance are measured, not modelled —
and converts the measured counts into phase seconds with the cost model.
Per step and phase, the slowest worker (straggler) sets the barrier time,
exactly the paper's Section 5.3 methodology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..cluster import Cluster, FaultPlan, FaultSummary, RecoveryPolicy
from ..comm import CommSummary, make_codec
from ..costmodel import (
    BACKWARD_FACTOR,
    DEFAULT_COST_MODEL,
    CostModel,
    aggregation_bytes,
    gat_layer_flops,
    gcn_layer_flops,
    sage_layer_flops,
)
from ..gnn import default_fanouts, sample_layers
from ..graph import VertexSplit
from ..obs import api as obs
from ..obs.profiling import capture as profiling
from ..partitioning import VertexPartition
from .trace import SamplingTrace, StepCounts, TraceError, shared_trace

__all__ = ["DistDglEngine", "StepBreakdown", "EpochReport"]

PHASES = ("sample", "fetch", "forward", "backward", "update")
SAMPLE, FETCH, FORWARD, BACKWARD, UPDATE = range(len(PHASES))
#: Bound on one block of an epoch's traffic matrices (see ``_traffic``).
_TRAFFIC_BLOCK_BYTES = 1 << 20


def _running_sum(start: float, terms: np.ndarray) -> float:
    """``start + terms[0] + terms[1] + ...`` strictly left to right, the
    order a per-worker loop adds in (``np.sum`` adds pairwise)."""
    return float(np.cumsum(np.concatenate(([start], np.ravel(terms))))[-1])


@dataclass(frozen=True)
class StepBreakdown:
    """Straggler seconds per phase plus the step's measured counts."""

    sample_seconds: float
    fetch_seconds: float
    forward_seconds: float
    backward_seconds: float
    update_seconds: float
    network_bytes: float
    local_input_vertices: int
    remote_input_vertices: int
    input_vertex_balance: float
    per_worker_seconds: np.ndarray
    cache_hits: int = 0

    @property
    def step_seconds(self) -> float:
        """Simulated duration of this step (sum of its five phases)."""
        return (
            self.sample_seconds
            + self.fetch_seconds
            + self.forward_seconds
            + self.backward_seconds
            + self.update_seconds
        )


@dataclass
class EpochReport:
    """Aggregated phase times and counts over one epoch's steps."""

    steps: List[StepBreakdown] = field(default_factory=list)

    @property
    def epoch_seconds(self) -> float:
        """Total simulated epoch time, summed over steps."""
        return sum(s.step_seconds for s in self.steps)

    @property
    def network_bytes(self) -> float:
        """Bytes moved over the network during the epoch."""
        return sum(s.network_bytes for s in self.steps)

    @property
    def remote_input_vertices(self) -> int:
        """Input vertices fetched from remote machines during the epoch."""
        return sum(s.remote_input_vertices for s in self.steps)

    @property
    def cache_hits(self) -> int:
        """Remote fetches that were served by the feature cache instead."""
        return sum(s.cache_hits for s in self.steps)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of would-be remote fetches served by the cache."""
        would_be_remote = self.remote_input_vertices + self.cache_hits
        if would_be_remote == 0:
            return 0.0
        return self.cache_hits / would_be_remote

    @property
    def local_input_vertices(self) -> int:
        """Input vertices already resident on their sampling machine."""
        return sum(s.local_input_vertices for s in self.steps)

    def phase_seconds(self) -> Dict[str, float]:
        """Per-phase simulated seconds summed over the epoch's steps."""
        return {
            phase: sum(getattr(s, phase + "_seconds") for s in self.steps)
            for phase in PHASES
        }

    @property
    def mean_input_vertex_balance(self) -> float:
        """Mean per-step balance (max/mean) of input vertices across workers."""
        if not self.steps:
            return 1.0
        return float(
            np.mean([s.input_vertex_balance for s in self.steps])
        )

    def training_time_balance(self) -> float:
        """max/mean of summed per-worker busy seconds (paper Figure 17);
        1.0 for a report without steps."""
        if not self.steps:
            return 1.0
        total = sum(s.per_worker_seconds for s in self.steps)
        mean = total.mean()
        return float(total.max() / mean) if mean > 0 else 1.0


class DistDglEngine:
    """Mini-batch distributed training over a vertex partition."""

    def __init__(
        self,
        partition: VertexPartition,
        split: VertexSplit,
        arch: str = "sage",
        feature_size: int = 64,
        hidden_dim: int = 64,
        num_layers: int = 3,
        num_classes: int = 10,
        global_batch_size: int = 128,
        fanouts: Optional[Sequence[int]] = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        seed: int = 0,
        cache_fraction: float = 0.0,
        compression: str = "none",
    ) -> None:
        """``cache_fraction`` > 0 enables a PaGraph-style static feature
        cache: every worker keeps the features of the highest-degree
        vertices it does not own (that fraction of |V|) in local memory,
        so fetching them costs nothing. An extension beyond the paper's
        DistDGL, used by the cache ablation benchmark.

        ``compression`` names a :mod:`repro.comm` codec applied to the
        remote feature fetches: wire bytes shrink by the codec ratio
        and every fetch pays the codec's encode+decode time on the raw
        payload. The default null codec executes the exact baseline
        code path bit for bit.
        """
        if min(feature_size, hidden_dim, num_layers, num_classes) <= 0:
            raise ValueError("model dimensions must be positive")
        if global_batch_size <= 0:
            raise ValueError("global_batch_size must be positive")
        arch = arch.lower()
        if arch not in ("sage", "gcn", "gat"):
            raise ValueError(f"unknown architecture {arch!r}")
        self.partition = partition
        self.graph = partition.graph
        self.split = split
        self.arch = arch
        self.feature_size = feature_size
        self.hidden_dim = hidden_dim
        self.num_layers = num_layers
        self.num_classes = num_classes
        self.global_batch_size = global_batch_size
        self.fanouts = (
            tuple(fanouts) if fanouts is not None
            else default_fanouts(num_layers)
        )
        if len(self.fanouts) != num_layers:
            raise ValueError("need one fanout per layer")
        self.cost_model = cost_model
        self.num_machines = partition.num_partitions

        self.dims = (
            [feature_size] + [hidden_dim] * (num_layers - 1) + [num_classes]
        )
        self.num_params = self._count_params()
        self.owner = partition.assignment
        # Each worker samples seeds from its own partition's train
        # vertices: split.train grouped by owner, order kept.
        train_owner = self.owner[split.train]
        pool_sizes = np.bincount(train_owner, minlength=self.num_machines)
        self.train_per_worker: List[np.ndarray] = np.split(
            split.train[np.argsort(train_owner, kind="stable")],
            np.cumsum(pool_sizes)[:-1],
        )
        if not 0.0 <= cache_fraction < 1.0:
            raise ValueError("cache_fraction must be in [0, 1)")
        self.cache_fraction = cache_fraction
        self._cached = self._build_feature_cache()
        #: The measured half of every step, shared with every engine
        #: that samples the same way; ``None`` once this engine's history
        #: has left the recorded one and it samples from ``_rng``, its
        #: private continuation.
        self._trace: Optional[SamplingTrace] = shared_trace(
            partition, split.train, self.fanouts, global_batch_size, seed,
            cache_fraction,
        )
        self._rng: Optional[np.random.Generator] = None
        self._step_index = 0
        self._codec = make_codec(compression)
        #: Comm-reduction accounting (raw vs wire fetch bytes, codec
        #: time, cache hits) accumulated over every simulated step.
        self.comm = CommSummary(
            codec_error=(
                0.0 if self._codec.is_null()
                else self._codec.error_per_value
            )
        )
        self._comm_remote_inputs = 0
        self.cluster = Cluster(self.num_machines, cost_model)
        #: Counters of the last faulty run (all zero when none was run).
        self.fault_summary = FaultSummary()
        #: Workers that crashed and have not been restarted yet; they
        #: rejoin (and pay a partition reload) at the next epoch boundary.
        self._dead_workers: Set[int] = set()
        self._account_memory()

    # ------------------------------------------------------------------
    def _count_params(self) -> int:
        # Weight matrices and per-output vectors (biases, attention).
        weights, vectors = {"sage": (2, 1), "gcn": (1, 1), "gat": (1, 3)}[
            self.arch
        ]
        return sum(
            weights * d_in * d_out + vectors * d_out
            for d_in, d_out in zip(self.dims, self.dims[1:])
        )

    def _build_feature_cache(self) -> Optional[np.ndarray]:
        """Boolean ``(n,)`` mask of globally cached high-degree vertices.

        Static degree-based caching (as in PaGraph): the hottest vertices
        in sampled neighbourhoods are the high-degree ones, so every
        worker pins the top ``cache_fraction`` of vertices by degree.
        The mask is global; per worker, hits are cached vertices it does
        not own.
        """
        if self.cache_fraction <= 0.0:
            return None
        budget = int(self.cache_fraction * self.graph.num_vertices)
        if budget == 0:
            return None
        degrees = self.graph.degrees()
        hottest = np.argsort(-degrees, kind="stable")[:budget]
        mask = np.zeros(self.graph.num_vertices, dtype=bool)
        mask[hottest] = True
        return mask

    def _account_memory(self) -> None:
        cm = self.cost_model
        # DistDGL stores each edge on the owner(s) of its endpoints (inner
        # edges once, halo edges on both sides): a per-partition tally.
        self._local_edges_per_worker, self._owned_per_worker = (
            self.partition.owner_tallies()
        )
        workers = np.arange(self.num_machines)
        owned = self._owned_per_worker
        self.cluster.memory.allocate(
            workers,
            "structure",
            (2 * self._local_edges_per_worker + owned) * cm.index_bytes,
        )
        self.cluster.memory.allocate(
            workers, "features", cm.feature_bytes(owned, self.feature_size)
        )
        if self._cached is not None:
            self.cluster.memory.allocate(
                workers,
                "feature-cache",
                cm.feature_bytes(int(self._cached.sum()), self.feature_size),
            )
        # Model/optimizer state is partitioner-independent and (at the
        # paper's graph scale) negligible - excluded from the ledger, as
        # in the DistGNN engine.

    def memory_per_machine(self) -> np.ndarray:
        """Per-machine peak memory of the underlying cluster."""
        return self.cluster.memory_per_machine()

    # ------------------------------------------------------------------
    # Per-layer cost primitives
    # ------------------------------------------------------------------
    def _layer_flops(
        self,
        num_dst: np.ndarray,
        num_src: np.ndarray,
        num_edges: np.ndarray,
        layer: int,
    ) -> np.ndarray:
        d_in, d_out = self.dims[layer], self.dims[layer + 1]
        if self.arch == "sage":
            return sage_layer_flops(num_dst, num_edges, d_in, d_out)
        if self.arch == "gcn":
            return gcn_layer_flops(num_dst, num_edges, d_in, d_out)
        return gat_layer_flops(num_dst, num_src, num_edges, d_in, d_out)

    # ------------------------------------------------------------------
    # Step execution: measure (sample, count) -> price (seconds, bytes)
    # ------------------------------------------------------------------
    def run_step(
        self,
        active: Optional[Collection[int]] = None,
        slow_factors: Optional[np.ndarray] = None,
        lost_workers: Collection[int] = (),
        retransmit_timeout: float = 0.0,
    ) -> StepBreakdown:
        """Execute one global training step across all workers.

        The step is *measured* — seeds drawn, computation graphs
        sampled and reduced to counts, or the same counts replayed from
        the shared :class:`~.trace.SamplingTrace` — and then *priced*
        for this engine's model, cost model, codec and faults.

        ``active`` restricts the step to the surviving workers (graceful
        degradation after a crash): the global batch is redistributed
        over them and dead workers contribute no time. ``slow_factors``
        stretches per-worker compute phases (injected stragglers).
        ``lost_workers`` lose one feature-fetch RPC each this step and
        pay ``retransmit_timeout`` plus a refetch.
        """
        k = self.num_machines
        active_workers = (
            tuple(range(k)) if active is None else tuple(sorted(set(active)))
        )
        if not active_workers:
            raise ValueError("need at least one active worker")
        stretch = (
            np.ones(k) if slow_factors is None
            else np.asarray(slow_factors, dtype=np.float64)
        )
        return self._price(
            [self._measure(active_workers)], active_workers, stretch,
            lost_workers, retransmit_timeout,
        )[0]

    def _measure(self, active: Tuple[int, ...]) -> StepCounts:
        """This step's sampling counts: replayed while this engine's
        history of active sets equals the shared trace's, recorded when
        it reaches the trace's end, and drawn from a private generator —
        restored to where a fresh ``default_rng(seed)`` would stand —
        from the first step that departs (or overruns a full trace)."""
        trace, index = self._trace, self._step_index
        recorded = trace is not None and index < len(trace.steps)
        if recorded and trace.steps[index].active == active:
            counts = trace.steps[index]
            if counts.workers.tolist() != [
                w for w in active if self.train_per_worker[w].size
            ]:
                raise TraceError(
                    f"step {index} was recorded for workers "
                    f"{counts.workers.tolist()}, not this engine's"
                )
        else:
            if recorded or (trace is not None and trace.full):
                self._rng = trace.rng_at(index)
                trace = self._trace = None
            counts = self._sample(
                active, self._rng if trace is None else trace.rng
            )
            if trace is not None:
                trace.append(counts)
        # Only a step that was measured counts: one that raised is
        # retried at the same position of the trace.
        self._step_index = index + 1
        return counts

    def _sample(
        self, active: Tuple[int, ...], rng: np.random.Generator
    ) -> StepCounts:
        """Draw and sample one step's mini-batches; keep only their
        counts. First one ``rng.choice`` of seeds per active worker with
        training vertices, in ascending order; then one call of
        :func:`~repro.gnn.sample_layers` expands every worker's frontier
        together, keyed ``i * |V| + vertex`` for the ``i``-th of them,
        and each layer's counts are read off the key's worker column
        with ``bincount``s — no blocks are built."""
        k, n = self.num_machines, self.graph.num_vertices
        rng_state = rng.bit_generator.state
        workers = np.array(
            [w for w in active if self.train_per_worker[w].size],
            dtype=np.intp,
        )
        m = workers.size
        take = max(self.global_batch_size // len(active), 1)
        blocks = np.zeros((4, self.num_layers, m), dtype=np.int64)
        inputs = np.zeros((4, m), dtype=np.int64)
        sample_owners = np.zeros((m, k), dtype=np.int64)
        fetch_owners = np.zeros((m, k), dtype=np.int64)
        rows = np.arange(m)
        try:
            seeds = [
                rng.choice(pool, size=min(take, pool.size), replace=False)
                for pool in (self.train_per_worker[w] for w in workers)
            ]
            if m:
                layers = sample_layers(
                    self.graph, np.concatenate(seeds), self.fanouts, rng,
                    batch=rows.repeat([len(batch) for batch in seeds]),
                )
                # Layers come seeds inward: the last GNN layer first.
                for layer, (frontier, src, dst, extra) in zip(
                    reversed(range(self.num_layers)), layers
                ):
                    row, vertex = np.divmod(frontier, n)
                    # Frontier keys owned elsewhere need a sampling RPC.
                    looked_up = np.bincount(
                        row * k + self.owner[vertex], minlength=m * k
                    ).reshape(m, k)
                    looked_up[rows, workers] = 0
                    sample_owners += looked_up
                    num_dst = np.bincount(row, minlength=m)
                    blocks[:, layer] = (
                        num_dst,
                        num_dst + np.bincount(extra // n, minlength=m),
                        np.bincount(row[dst], minlength=m),
                        looked_up.sum(axis=1),
                    )
                ids = np.concatenate([frontier, extra])
                row, vertex = np.divmod(ids, n)
                owners = self.owner[vertex]
                remote = owners != workers[row]
                if self._cached is not None:
                    # A cached remote key is never fetched over the wire.
                    hot = remote & self._cached[vertex]
                    inputs[3] = np.bincount(row[hot], minlength=m)
                    remote &= ~hot
                fetch_owners = np.bincount(
                    row[remote] * k + owners[remote], minlength=m * k
                ).reshape(m, k)
                inputs[0] = np.bincount(row, minlength=m)
                inputs[2] = fetch_owners.sum(axis=1)
                inputs[1] = inputs[0] - inputs[2]
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
        arrays = (workers, blocks, sample_owners, inputs, fetch_owners)
        for array in arrays:
            array.setflags(write=False)
        return StepCounts(active, rng_state, *arrays)

    def _price(
        self,
        steps: Sequence[StepCounts],
        active: Tuple[int, ...],
        stretch: np.ndarray,
        lost_workers: Collection[int],
        retransmit_timeout: float,
    ) -> List[StepBreakdown]:
        """Phase seconds, bytes and traffic matrices of measured steps
        with one active set, priced together: ``(S, m)`` array
        expressions over the S steps and the workers that drew a batch.
        Every worker's value is computed by the floating-point
        operations, in the order, of the per-worker loop this replaced
        (``tests/oracles/distdgl.py``) — elementwise arithmetic gives the
        same bits in any shape, and every reduction that reaches a
        record keeps its order — so records are byte-identical to one
        step at a time. Lost messages only come with single steps.
        """
        cm = self.cost_model
        k, num, w = self.num_machines, len(steps), steps[0].workers
        # Each block / input count as a (layers, S, m) / (S, m) array.
        num_dst, num_src, num_edges, remote_frontier = np.array(
            [counts.blocks for counts in steps]).transpose(1, 2, 0, 3)
        num_inputs, num_local, num_remote, cache_hits = np.array(
            [counts.inputs for counts in steps]).transpose(1, 0, 2)
        sample_owners, fetch_owners = (
            np.array([getattr(c, owners) for c in steps], dtype=np.int64)
            for owners in ("sample_owners", "fetch_owners")
        )
        per_worker = np.zeros((num, len(PHASES), k))

        # ---- sampling and compute phases, layer by layer ------------
        sample_sec = np.zeros((num, w.size))
        fwd = np.zeros((num, w.size))
        for layer in range(self.num_layers):
            sample_sec += (
                num_edges[layer] * cm.sample_seconds_per_edge
                + remote_frontier[layer] * cm.remote_sample_overhead
            )
            fwd += cm.compute_seconds(
                self._layer_flops(
                    num_dst[layer], num_src[layer], num_edges[layer], layer
                )
            )
            fwd += cm.memory_seconds(
                aggregation_bytes(
                    num_edges[layer], self.dims[layer], cm.float_bytes
                )
            )
        per_worker[:, SAMPLE, w] = sample_sec * stretch[w]
        per_worker[:, FORWARD, w] = fwd * stretch[w]
        per_worker[:, BACKWARD, w] = BACKWARD_FACTOR * fwd * stretch[w]
        # Remote frontiers ship their sampled edge lists back, each
        # remote vertex's owner -> this worker. src x dst byte
        # attribution (owners -> worker for sampling/fetching, ring for
        # the all-reduce) is bookkeeping only; phase timing stays a
        # function of the per-worker vectors. Whole-number counts times
        # whole-number widths: summing a worker's blocks first is exact.
        edge_list_bytes = self.fanouts[0] * 2 * cm.index_bytes

        # ---- feature fetching phase ---------------------------------
        raw_fetch = cm.feature_bytes(num_remote, self.feature_size)
        owner_bytes = cm.feature_bytes(fetch_owners, self.feature_size)
        # The wire carries codec-ratio bytes; the owners encode and this
        # worker decodes, both charged on the raw payload. (The null
        # codec's x 1.0 and + 0.0 are exact: its baseline is bit for bit
        # the uncompressed arithmetic.)
        wire_fetch = self._codec.wire_bytes(raw_fetch)
        wire_owner = self._codec.wire_bytes(owner_bytes)
        codec_seconds = self._codec.codec_seconds(raw_fetch, cm)
        self.comm.codec_seconds = _running_sum(
            self.comm.codec_seconds, codec_seconds
        )
        # One RPC per peer that actually owns remote inputs: a good
        # partition talks to few peers, not to all k-1 of them.
        peers = np.count_nonzero(fetch_owners, axis=2)
        per_worker[:, FETCH, w] = cm.transfer_seconds(
            wire_fetch, np.maximum(peers, 1)
        ) + cm.memory_seconds(
            cm.feature_bytes(num_local, self.feature_size)
        ) + codec_seconds
        # Per step, per worker: its blocks' edge-list bytes, then its
        # fetch, summed left to right from 0.0.
        terms = np.concatenate(
            [remote_frontier * edge_list_bytes, wire_fetch[np.newaxis]]
        ).transpose(1, 2, 0).reshape(num, -1)
        step_bytes = np.cumsum(
            np.concatenate([np.zeros((num, 1)), terms], axis=1), axis=1
        )[:, -1]
        # A cache hit is a remote fetch the wire never carries: its raw
        # bytes count as saved.
        self.comm.raw_bytes = _running_sum(self.comm.raw_bytes, np.stack(
            [cm.feature_bytes(cache_hits, self.feature_size), raw_fetch],
            axis=2,
        ))
        self.comm.wire_bytes = _running_sum(self.comm.wire_bytes, wire_fetch)

        # Injected lost messages (single steps): the affected worker's
        # fetch RPC times out and is refetched in full.
        lost_active = [lost for lost in lost_workers if lost in active]
        fetched, raw = np.zeros((2, k))
        if lost_active:
            fetched[w], raw[w] = wire_fetch[0], raw_fetch[0]
        for lost in lost_active:
            self.cluster.fabric.record_lost_message(lost)
            per_worker[0, FETCH, lost] += (
                retransmit_timeout + cm.transfer_seconds(fetched[lost])
            )
            step_bytes[0] += fetched[lost]
            # The full fetch is re-sent by the same owners; the dropped
            # copy itself is a pure count on the fabric, no bytes. The
            # resend ships the already-encoded payload, so no fresh
            # codec time is charged.
            self.comm.raw_bytes += raw[lost]
            self.comm.wire_bytes += fetched[lost]

        # Gradient all-reduce is part of the backward phase, as in the
        # paper's measurement methodology (Section 5.3).
        grad_bytes = self.num_params * cm.float_bytes
        num_active = len(active)
        active_index = list(active)
        per_worker[:, BACKWARD, active_index] += cm.allreduce_seconds(
            grad_bytes, num_active
        )
        step_bytes += 2 * grad_bytes * max(num_active - 1, 0)
        per_worker[:, UPDATE, active_index] = (
            cm.compute_seconds(6.0 * self.num_params)
            * stretch[active_index]
        )

        # Ring all-reduce over the surviving workers.
        allreduce_matrix = np.zeros((k, k), dtype=np.float64)
        if num_active > 1:
            per_link = 2.0 * grad_bytes * (num_active - 1) / num_active
            for i, src in enumerate(active_index):
                allreduce_matrix[
                    src, active_index[(i + 1) % num_active]
                ] = per_link

        total_per_worker = sum(per_worker[:, p] for p in range(len(PHASES)))
        self.cluster.add_phases(PHASES * num, per_worker.reshape(-1, k))
        self.cluster.record_traffics(
            ("sample", "fetch", "backward") * num,  # all-reduce: backward
            self._traffic(
                w, sample_owners * edge_list_bytes, wire_owner, lost_active,
                allreduce_matrix,
            ),
        )
        local_inputs = num_local.sum(axis=1).tolist()
        remote_inputs = num_remote.sum(axis=1).tolist()
        hits = cache_hits.sum(axis=1).tolist()
        self.comm.cache_hits += sum(hits)
        self._comm_remote_inputs += sum(remote_inputs)
        loads = num_inputs.astype(np.float64)
        balance = (
            (loads.max(axis=1) / loads.mean(axis=1)).tolist() if loads.size
            else [1.0] * num
        )
        step_bytes = step_bytes.tolist()
        if obs.enabled():
            for network, remote, hit in zip(step_bytes, remote_inputs, hits):
                obs.count("distdgl.network_bytes", network)
                obs.count("distdgl.remote_input_vertices", remote)
                obs.count("distdgl.cache_hits", hit)
                if num_active < k:
                    obs.count("distdgl.degraded_steps")
        return [
            StepBreakdown(*seconds, *counts)  # the fields' order
            for seconds, *counts in zip(
                per_worker.max(axis=2).tolist(), step_bytes, local_inputs,
                remote_inputs, balance, total_per_worker, hits,
            )
        ]

    def _traffic(self, w, sample_bytes, wire_owner, doubled, ring):
        """Per step, the sample and fetch phases' ``src x dst`` byte
        matrices and the all-reduce ring, in recording order, as
        ``(3 x steps, k, k)`` blocks of at most ``_TRAFFIC_BLOCK_BYTES``.
        """
        k = self.num_machines
        chunk = max(_TRAFFIC_BLOCK_BYTES // (3 * 8 * k * k), 1)
        for start in range(0, len(sample_bytes), chunk):
            steps = slice(start, start + chunk)
            block = np.zeros((len(sample_bytes[steps]), 3, k, k))
            block[:, 0][:, :, w] = sample_bytes[steps].transpose(0, 2, 1)
            block[:, 1][:, :, w] = wire_owner[steps].transpose(0, 2, 1)
            for lost in doubled:
                block[:, 1, :, lost] *= 2.0
            block[:, 2] = ring
            yield block.reshape(-1, k, k)

    def _steps_per_epoch(self) -> int:
        num_train = self.split.train.shape[0]
        return max(int(np.ceil(num_train / self.global_batch_size)), 1)

    def _restart_dead_workers(self) -> None:
        """Dead trainers rejoin at the epoch boundary (DistDGL-style
        restartable trainers): each reloads its partition's structure and
        features, so restarting the owner of a skewed partition is the
        straggler of the restart phase."""
        cm = self.cost_model
        k = self.num_machines
        restart = np.zeros(k)
        for w in sorted(self._dead_workers):
            reload_bytes = (
                2 * self._local_edges_per_worker[w] * cm.index_bytes
                + cm.feature_bytes(
                    int(self._owned_per_worker[w]), self.feature_size
                )
            )
            restart[w] = cm.transfer_seconds(float(reload_bytes))
            self.cluster.timeline.add_mark(
                f"restart:worker-{w}", "recovery", w
            )
        self.cluster.add_phases(["fault-restart"], restart[np.newaxis])
        self._dead_workers.clear()

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
            # Measure every step, then price them in one pass; a step
            # that raises leaves the ones before it priced, as a
            # step-by-step loop would.
            active = tuple(range(self.num_machines))
            measured: List[StepCounts] = []
            try:
                for _ in range(steps):
                    measured.append(self._measure(active))
            finally:
                if measured:
                    report.steps = self._price(
                        measured, active, np.ones(self.num_machines), (), 0.0
                    )
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
                self.cluster.timeline.add_mark(
                    f"crash:worker-{machine}", "fault", machine
                )
                self.cluster.add_phases(
                    ["fault-detect"],
                    np.full((1, k), recovery.detection_timeout_seconds),
                    interrupted=True,
                )
                backoff = recovery.backoff_seconds()
                if backoff > 0:
                    self.cluster.add_phases(
                        ["fault-backoff"], np.full((1, k), backoff)
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

    def run_training(
        self,
        num_epochs: int,
        fault_plan: Optional[FaultPlan] = None,
        recovery: Optional[RecoveryPolicy] = None,
    ) -> List[EpochReport]:
        """Run ``num_epochs`` epochs, optionally under a fault plan."""
        if num_epochs < 1:
            raise ValueError("num_epochs must be >= 1")
        if fault_plan is None and recovery is None:
            with profiling.profile_scope("distdgl.epochs"):
                return [self.run_epoch() for _ in range(num_epochs)]
        if recovery is None:
            recovery = RecoveryPolicy()
        self.fault_summary = FaultSummary()
        self._dead_workers = set()
        with profiling.profile_scope("distdgl.epochs"):
            return [
                self.run_epoch(
                    fault_plan=fault_plan, recovery=recovery,
                    epoch_index=epoch,
                )
                for epoch in range(num_epochs)
            ]

    def comm_summary(self) -> CommSummary:
        """Accumulated communication-reduction accounting.

        ``cache_hit_rate`` is the fraction of would-be remote fetches
        the static feature cache served locally.
        """
        would_be_remote = self._comm_remote_inputs + self.comm.cache_hits
        self.comm.cache_hit_rate = (
            self.comm.cache_hits / would_be_remote
            if would_be_remote else 0.0
        )
        return self.comm
