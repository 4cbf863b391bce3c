"""Fixtures for analysis tests: synthetic records and snapshots.

The analyzers duck-type sweep records (``engine`` names the training
system, as on the record dataclasses), so these stubs carry exactly the fields the
analysis layer reads — keeping the tests independent of the engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, Optional

import pytest


@dataclass(frozen=True)
class StubParams:
    tag: str = "f64-h64-l3"

    def label(self) -> str:
        return self.tag


@dataclass
class StubRecord:
    """DistGNN-shaped sweep record."""

    engine: ClassVar[str] = "distgnn"

    graph: str = "OR"
    partitioner: str = "random"
    num_machines: int = 4
    params: StubParams = field(default_factory=StubParams)
    epoch_seconds: float = 1.0
    network_bytes: float = 1e6
    forward_seconds: float = 0.4
    backward_seconds: float = 0.5
    sync_seconds: float = 0.1
    makespan_seconds: float = 0.0
    recovery_seconds: float = 0.0
    partitioning_seconds: float = 0.5
    obs_metrics: Optional[Dict[str, object]] = None
    comm_config: Optional[object] = None
    traffic_saved_bytes: float = 0.0
    codec_seconds: float = 0.0
    accuracy_proxy_error: float = 0.0


@dataclass
class StubDglRecord(StubRecord):
    """DistDGL-shaped record: has ``degraded_steps`` + phase table."""

    engine: ClassVar[str] = "distdgl"

    degraded_steps: int = 0
    phase_seconds: Dict[str, float] = field(
        default_factory=lambda: {
            "sample": 0.2, "fetch": 0.3, "forward": 0.2,
            "backward": 0.2, "update": 0.1,
        }
    )


@pytest.fixture
def make_record():
    def factory(**kwargs):
        return StubRecord(**kwargs)

    return factory


@pytest.fixture
def make_dgl_record():
    def factory(**kwargs):
        return StubDglRecord(**kwargs)

    return factory


def snapshot_entry(name, kind="counter", value=0.0, unit="count",
                   labels=None, **extra):
    entry = {
        "name": name, "kind": kind, "unit": unit,
        "labels": labels or {}, "value": value,
    }
    entry.update(extra)
    return entry


@pytest.fixture
def machine_snapshot():
    """Four-machine snapshot with machine 3 visibly overloaded."""
    entries = []
    for machine, busy in enumerate((1.0, 1.1, 0.9, 2.5)):
        entries.append(
            snapshot_entry(
                "cluster.machine_busy_seconds", kind="gauge",
                value=busy, unit="seconds",
                labels={"machine": machine},
            )
        )
    return entries
