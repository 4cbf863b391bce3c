"""Result records produced by the experiment runner."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, Optional

from .config import CommConfig, FaultConfig, TrainingParams

__all__ = ["DistGnnRecord", "DistDglRecord"]


@dataclass(frozen=True)
class DistGnnRecord:
    """One DistGNN experiment: graph x partitioner x k x params.

    ``epoch_seconds`` is the mean over the run's *logical* epochs;
    ``makespan_seconds`` is the full simulated wall clock including
    checkpoints and recovery, so ``makespan - num_epochs * epoch_seconds``
    is the run's fault overhead ("time-to-accuracy under failures").
    """

    #: Key into ``ENGINES``; a class attribute, not a serialised field.
    engine: ClassVar[str] = "distgnn"

    graph: str
    partitioner: str
    num_machines: int
    params: TrainingParams
    epoch_seconds: float
    forward_seconds: float
    backward_seconds: float
    sync_seconds: float
    network_bytes: float
    total_memory_bytes: float
    memory_balance: float
    replication_factor: float
    edge_balance: float
    vertex_balance: float
    partitioning_seconds: float
    out_of_memory: bool = False
    memory_per_machine: Optional[tuple] = None
    # Fault-sweep fields (defaults keep pre-fault records loadable).
    num_epochs: int = 1
    makespan_seconds: float = 0.0
    crashes: int = 0
    slowdowns: int = 0
    lost_messages: int = 0
    reexecuted_epochs: int = 0
    recovery_seconds: float = 0.0
    checkpoint_seconds: float = 0.0
    fault_config: Optional[FaultConfig] = None
    # Comm-sweep fields (defaults keep pre-comm records loadable).
    comm_config: Optional[CommConfig] = None
    traffic_saved_bytes: float = 0.0
    codec_seconds: float = 0.0
    accuracy_proxy_error: float = 0.0
    staleness_epochs: int = 0
    #: Deterministic telemetry summary (phase totals, traffic, marks),
    #: populated only when observability is enabled for the run.
    obs_metrics: Optional[Dict[str, object]] = field(
        hash=False, default=None
    )


@dataclass(frozen=True)
class DistDglRecord:
    """One DistDGL experiment: graph x partitioner x k x params.

    Fault fields mirror :class:`DistGnnRecord`, with the mini-batch
    recovery shape: retried steps with exponential backoff and graceful
    degradation to the surviving workers instead of checkpoint/restart.
    """

    engine: ClassVar[str] = "distdgl"

    graph: str
    partitioner: str
    num_machines: int
    params: TrainingParams
    epoch_seconds: float
    phase_seconds: Dict[str, float] = field(hash=False, default=None)
    network_bytes: float = 0.0
    remote_input_vertices: int = 0
    local_input_vertices: int = 0
    input_vertex_balance: float = 1.0
    training_time_balance: float = 1.0
    edge_cut: float = 0.0
    vertex_balance: float = 1.0
    training_vertex_balance: float = 1.0
    partitioning_seconds: float = 0.0
    # Fault-sweep fields (defaults keep pre-fault records loadable).
    num_epochs: int = 1
    makespan_seconds: float = 0.0
    crashes: int = 0
    slowdowns: int = 0
    lost_messages: int = 0
    retries: int = 0
    degraded_steps: int = 0
    recovery_seconds: float = 0.0
    fault_config: Optional[FaultConfig] = None
    # Comm-sweep fields (defaults keep pre-comm records loadable).
    comm_config: Optional[CommConfig] = None
    traffic_saved_bytes: float = 0.0
    codec_seconds: float = 0.0
    accuracy_proxy_error: float = 0.0
    cache_hit_rate: float = 0.0
    #: Deterministic telemetry summary (phase totals, traffic, marks),
    #: populated only when observability is enabled for the run.
    obs_metrics: Optional[Dict[str, object]] = field(
        hash=False, default=None
    )
