"""Simulated cluster substrate: memory ledger, network fabric, BSP
timeline, fault injection and recovery."""

from .cluster import Cluster, OutOfMemoryError
from .faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    FaultSummary,
    RecoveryPolicy,
)
from .machine import MemoryLedger
from .network import NetworkFabric
from .timeline import PhaseRecord, Timeline, TimelineMark

__all__ = [
    "Cluster",
    "OutOfMemoryError",
    "MemoryLedger",
    "NetworkFabric",
    "PhaseRecord",
    "TimelineMark",
    "Timeline",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "FaultSummary",
    "RecoveryPolicy",
]
