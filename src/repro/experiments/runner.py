"""Experiment runner: one call per (graph, partitioner, k, params) cell.

Wraps partitioning (cached), engine construction and epoch simulation into
flat result records, with the out-of-memory behaviour the paper reports
(random partitioning pushing machines over budget) surfaced as a flag
rather than an exception.

A :class:`~.config.FaultConfig` turns any run into a fault sweep: the
config deterministically expands into a fault plan for the cell's cluster
size, the engines recover under the configured policy, and the records
gain recovery accounting (crashes, re-executed epochs, degraded steps,
recovery/checkpoint seconds, makespan), so partitioners can be compared
by robustness as well as by raw epoch time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..cluster import OutOfMemoryError
from ..costmodel import DEFAULT_COST_MODEL, CostModel
from ..distdgl import DistDglEngine
from ..distgnn import DistGnnEngine
from ..graph import Graph, VertexSplit, random_split
from ..obs import api as obs
from ..partitioning import (
    EDGE_PARTITIONER_NAMES,
    VERTEX_PARTITIONER_NAMES,
    edge_partition_quality,
    vertex_partition_quality,
)
from .analysis import record_speedups
from .cache import cached_edge_partition, cached_vertex_partition
from .config import CommConfig, FaultConfig, TrainingParams
from .records import DistDglRecord, DistGnnRecord

__all__ = [
    "run_distgnn",
    "run_distdgl",
    "Engine",
    "ENGINES",
    "speedup_vs_random",
]


def _obs_record_metrics(
    engine, comm_config: Optional[CommConfig] = None
) -> Dict[str, object]:
    """Deterministic telemetry summary embedded in a result record.

    Every quantity is derived from *simulated* cluster state (timeline,
    fabric, memory ledger) — never from a wall clock — so serial and
    process-parallel sweeps produce identical records. The ``comm``
    section appears only when a non-default ``comm_config`` is active,
    keeping default-knob records identical to pre-comm ones.
    """
    cluster = engine.cluster
    timeline = cluster.timeline
    marks: Dict[str, int] = {}
    for mark in timeline.marks:
        marks[mark.kind] = marks.get(mark.kind, 0) + 1
    cluster.check_traffic_invariant()
    matrix = cluster.fabric.traffic_matrix()
    metrics: Dict[str, object] = {
        "phase_seconds": timeline.phase_totals(),
        "marks": marks,
        "bytes_sent_total": float(cluster.fabric.sent.sum()),
        "bytes_received_total": float(cluster.fabric.received.sum()),
        "lost_messages_total": int(cluster.fabric.lost_messages.sum()),
        "memory_peak_bytes_max": float(
            cluster.memory_per_machine().max()
        ),
        # Resource depth (PR 5): pairwise traffic and the per-phase
        # memory profile, all simulated quantities.
        "traffic_matrix": [
            [float(x) for x in row] for row in matrix
        ],
        "traffic_phase_bytes": {
            phase: float(m.sum())
            for phase, m in cluster.fabric.traffic_matrix_phases().items()
        },
        "memory_category_peaks": cluster.memory_category_peaks(),
        "memory_timeline": {
            phase: [float(x) for x in watermark]
            for phase, watermark
            in cluster.memory_watermark_timeline().items()
        },
    }
    if comm_config:
        metrics["comm"] = engine.comm_summary().as_dict()
    return metrics


def _begin_run(
    num_epochs: int, comm_config: Optional[CommConfig]
) -> CommConfig:
    """Shared prologue: validate the epoch count and default the comm
    knobs (``None`` means every knob at its bit-identical default)."""
    if num_epochs < 1:
        raise ValueError("num_epochs must be >= 1")
    return comm_config or CommConfig()


def _train(epoch_loop, num_machines, num_epochs, fault_config):
    """Run an engine's epoch loop, under the config's fault plan if any."""
    if fault_config:
        return epoch_loop(
            num_epochs,
            fault_plan=fault_config.plan(num_machines, num_epochs),
            recovery=fault_config.policy(),
        )
    return epoch_loop(num_epochs)


def _shared_fields(
    engine,
    num_epochs: int,
    fault_config: Optional[FaultConfig],
    comm_config: Optional[CommConfig],
) -> Dict[str, object]:
    """Shared epilogue: the obs tail plus the fault/comm accounting
    fields both record types carry."""
    timeline = engine.cluster.timeline
    summary = engine.fault_summary
    obs_metrics = None
    if obs.enabled():
        obs_metrics = _obs_record_metrics(engine, comm_config)
    # Per-epoch means, same normalization as network_bytes, so
    # saved / (network + saved) is the wire reduction directly.
    epochs = max(engine.comm.total_epochs, 1)
    return {
        "num_epochs": num_epochs,
        "makespan_seconds": timeline.total_seconds,
        "crashes": summary.crashes,
        "slowdowns": summary.slowdowns,
        "lost_messages": summary.lost_messages,
        "recovery_seconds": timeline.recovery_seconds(),
        "fault_config": fault_config,
        "comm_config": comm_config,
        "traffic_saved_bytes": engine.comm.saved_bytes / epochs,
        "codec_seconds": engine.comm.codec_seconds / epochs,
        "accuracy_proxy_error": engine.comm.accuracy_proxy_error,
        "obs_metrics": obs_metrics,
    }


def run_distgnn(
    graph: Graph,
    partitioner: str,
    num_machines: int,
    params: TrainingParams,
    seed: int = 0,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    enforce_memory_budget: bool = False,
    fault_config: Optional[FaultConfig] = None,
    num_epochs: int = 1,
    comm_config: Optional[CommConfig] = None,
) -> DistGnnRecord:
    """Simulate one DistGNN full-batch configuration.

    ``comm_config`` applies the communication-reduction knobs DistGNN
    supports — ``compression`` and ``refresh_interval`` (cd-r delayed
    aggregation); ``cache_fraction`` is a DistDGL mechanism and is
    ignored here. The partition itself is comm-independent, so the
    partition cache is shared across comm configurations.
    """
    comm = _begin_run(num_epochs, comm_config)
    partition, part_seconds = cached_edge_partition(
        graph, partitioner, num_machines, seed
    )
    quality = edge_partition_quality(partition)
    engine = DistGnnEngine(
        partition,
        feature_size=params.feature_size,
        hidden_dim=params.hidden_dim,
        num_layers=params.num_layers,
        num_classes=params.num_classes,
        cost_model=cost_model,
        compression=comm.compression,
        refresh_interval=comm.refresh_interval,
    )
    out_of_memory = False
    if enforce_memory_budget:
        try:
            engine.check_memory_budget()
        except OutOfMemoryError:
            out_of_memory = True
    breakdowns = _train(
        engine.simulate_training, num_machines, num_epochs, fault_config
    )
    n = len(breakdowns)
    shared = _shared_fields(engine, num_epochs, fault_config, comm_config)
    return DistGnnRecord(
        graph=graph.name,
        partitioner=partitioner,
        num_machines=num_machines,
        params=params,
        epoch_seconds=sum(b.epoch_seconds for b in breakdowns) / n,
        forward_seconds=sum(b.forward_seconds for b in breakdowns) / n,
        backward_seconds=sum(b.backward_seconds for b in breakdowns) / n,
        sync_seconds=sum(b.sync_seconds for b in breakdowns) / n,
        network_bytes=sum(b.network_bytes for b in breakdowns) / n,
        total_memory_bytes=engine.total_memory(),
        memory_balance=engine.memory_utilization_balance(),
        replication_factor=quality.replication_factor,
        edge_balance=quality.edge_balance,
        vertex_balance=quality.vertex_balance,
        partitioning_seconds=part_seconds,
        out_of_memory=out_of_memory,
        memory_per_machine=tuple(engine.memory_per_machine()),
        reexecuted_epochs=engine.fault_summary.reexecuted_epochs,
        checkpoint_seconds=engine.cluster.timeline.checkpoint_seconds(),
        staleness_epochs=engine.comm.stale_epochs,
        **shared,
    )


def run_distdgl(
    graph: Graph,
    partitioner: str,
    num_machines: int,
    params: TrainingParams,
    split: Optional[VertexSplit] = None,
    num_epochs: int = 1,
    seed: int = 0,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    fault_config: Optional[FaultConfig] = None,
    comm_config: Optional[CommConfig] = None,
) -> DistDglRecord:
    """Run one DistDGL mini-batch configuration (sampling is executed).

    ``comm_config`` applies the communication-reduction knobs DistDGL
    supports — ``compression`` (on remote feature fetches) and
    ``cache_fraction`` (PaGraph-style static cache);
    ``refresh_interval`` is a DistGNN mechanism and is ignored here.
    """
    comm = _begin_run(num_epochs, comm_config)
    if split is None:
        split = random_split(graph, seed=seed)
    partition, part_seconds = cached_vertex_partition(
        graph, partitioner, num_machines, seed
    )
    quality = vertex_partition_quality(partition, split.train)
    engine = DistDglEngine(
        partition,
        split,
        arch=params.arch,
        feature_size=params.feature_size,
        hidden_dim=params.hidden_dim,
        num_layers=params.num_layers,
        num_classes=params.num_classes,
        global_batch_size=params.global_batch_size,
        cost_model=cost_model,
        seed=seed,
        cache_fraction=comm.cache_fraction,
        compression=comm.compression,
    )
    reports = _train(
        engine.run_training, num_machines, num_epochs, fault_config
    )
    epoch_seconds = sum(r.epoch_seconds for r in reports) / len(reports)
    per_report = [r.phase_seconds() for r in reports]
    phases = {
        phase: sum(p[phase] for p in per_report) / len(reports)
        for phase in per_report[0]
    }
    shared = _shared_fields(engine, num_epochs, fault_config, comm_config)
    return DistDglRecord(
        graph=graph.name,
        partitioner=partitioner,
        num_machines=num_machines,
        params=params,
        epoch_seconds=epoch_seconds,
        phase_seconds=phases,
        network_bytes=sum(r.network_bytes for r in reports) / len(reports),
        remote_input_vertices=int(
            sum(r.remote_input_vertices for r in reports) / len(reports)
        ),
        local_input_vertices=int(
            sum(r.local_input_vertices for r in reports) / len(reports)
        ),
        input_vertex_balance=float(
            sum(r.mean_input_vertex_balance for r in reports) / len(reports)
        ),
        training_time_balance=float(
            sum(r.training_time_balance() for r in reports) / len(reports)
        ),
        edge_cut=quality.edge_cut,
        vertex_balance=quality.vertex_balance,
        training_vertex_balance=quality.training_vertex_balance,
        partitioning_seconds=part_seconds,
        retries=engine.fault_summary.retries,
        degraded_steps=engine.fault_summary.degraded_steps,
        cache_hit_rate=engine.comm_summary().cache_hit_rate,
        **shared,
    )


@dataclass(frozen=True)
class Engine:
    """What differs between the two training systems, for every driver
    that handles both (``run_cell``, the CLI, the serve daemon)."""

    label: str
    partitioner_names: Tuple[str, ...]
    run: Callable
    needs_split: bool


#: The two training systems the paper compares, by record ``engine`` name.
ENGINES: Dict[str, Engine] = {
    "distgnn": Engine(
        "DistGNN", tuple(EDGE_PARTITIONER_NAMES), run_distgnn, False
    ),
    "distdgl": Engine(
        "DistDGL", tuple(VERTEX_PARTITIONER_NAMES), run_distdgl, True
    ),
}


def speedup_vs_random(records: Sequence) -> dict:
    """Speedup of each record over the Random baseline with the same
    (graph, k, params, comm and fault config); keyed by (graph,
    partitioner, k, params). Records without a baseline are left out.
    """
    return {
        (r.graph, r.partitioner, r.num_machines, r.params): speedup
        for r, speedup in record_speedups(records)
    }
