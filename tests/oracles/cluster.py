"""The cluster layer as it stood before the columnar ledger, verbatim.

:class:`OracleCluster`, :class:`OracleTimeline`, :class:`OracleMemoryLedger`
and :class:`OracleMachine` are the pre-rewrite bodies of ``Cluster``,
``Timeline``, ``MemoryLedger`` and ``Machine``: one ``Machine`` object
per worker with its own dict ledger, a list of frozen ``PhaseRecord`` s,
and every per-machine update and metric emission a Python loop.
:class:`OracleNetworkFabric` carries the pre-rewrite per-call emission
of ``NetworkFabric.transfer_bulk``; the rest of the fabric is shared.

The engines' pre-rewrite ``_account_memory`` (k scalar ``allocate``
calls) ride on :class:`OracleClusterDistGnnEngine` and
:class:`OracleClusterDistDglEngine`; inside :func:`oracle_cluster` the
runners build those engines, and the engines build an
:class:`OracleCluster`. Do not tidy the bodies — they are the reference
the rewrite is pinned against (``tests/oracles/test_cluster_identity.py``).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional
from unittest import mock

import numpy as np

from repro.cluster import NetworkFabric, OutOfMemoryError, PhaseRecord
from repro.cluster import TimelineMark
from repro.cluster.timeline import RECOVERY_PHASE_PREFIXES
from repro.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.distdgl import DistDglEngine
from repro.distdgl import engine as distdgl_engine
from repro.distgnn import DistGnnEngine
from repro.distgnn import engine as distgnn_engine
from repro.experiments import runner
from repro.obs import api as obs

__all__ = [
    "OracleCluster",
    "OracleClusterDistDglEngine",
    "OracleClusterDistGnnEngine",
    "OracleMachine",
    "OracleMemoryLedger",
    "OracleNetworkFabric",
    "OracleTimeline",
    "oracle_cluster",
]

_ZERO_BYTES = 1e-9


class OracleMemoryLedger:
    """Tracks bytes allocated per category, with peak watermarks."""

    def __init__(self) -> None:
        self._current: Dict[str, float] = {}
        self._peak_total = 0.0
        self._peak_by_category: Dict[str, float] = {}

    def allocate(self, category: str, num_bytes: float) -> None:
        if num_bytes < 0:
            raise ValueError("allocate takes non-negative sizes; use free")
        held = self._current.get(category, 0.0) + num_bytes
        self._current[category] = held
        if held > self._peak_by_category.get(category, 0.0):
            self._peak_by_category[category] = held
        self._peak_total = max(self._peak_total, self.total_bytes)

    def free(self, category: str, num_bytes: float) -> None:
        held = self._current.get(category, 0.0)
        if num_bytes > held + 1e-6:
            raise ValueError(
                f"freeing {num_bytes} bytes of {category!r} "
                f"but only {held} allocated"
            )
        remaining = held - num_bytes
        if remaining <= _ZERO_BYTES:
            self._current.pop(category, None)
        else:
            self._current[category] = remaining

    @property
    def total_bytes(self) -> float:
        return sum(self._current.values())

    @property
    def peak_bytes(self) -> float:
        return self._peak_total

    def by_category(self) -> Dict[str, float]:
        return dict(self._current)

    def peak_by_category(self) -> Dict[str, float]:
        return dict(self._peak_by_category)


class OracleMachine:
    """One worker of the simulated cluster."""

    def __init__(self, machine_id: int) -> None:
        self.machine_id = machine_id
        self.memory = OracleMemoryLedger()
        self.compute_seconds = 0.0
        self.bytes_sent = 0.0
        self.bytes_received = 0.0
        self.crashes = 0
        self.restarts = 0

    def add_compute(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("compute time must be non-negative")
        self.compute_seconds += seconds

    def record_crash(self) -> None:
        self.crashes += 1

    def record_restart(self) -> None:
        self.restarts += 1


@dataclass
class OracleTimeline:
    """Ordered log of phase records and point-in-time marks for one run."""
    records: List[PhaseRecord] = field(default_factory=list)
    marks: List[TimelineMark] = field(default_factory=list)

    def add_phase(
        self,
        name: str,
        per_machine_seconds: np.ndarray,
        interrupted: bool = False,
    ) -> float:
        per_machine_seconds = np.asarray(per_machine_seconds, dtype=np.float64)
        if (per_machine_seconds < 0).any():
            raise ValueError("phase times must be non-negative")
        record = PhaseRecord(name, per_machine_seconds, interrupted)
        self.records.append(record)
        if obs.enabled():
            obs.observe(
                "cluster.phase_seconds", record.duration, phase=name
            )
            for machine, seconds in enumerate(record.per_machine_seconds):
                obs.count(
                    "cluster.machine_busy_seconds",
                    float(seconds),
                    machine=machine,
                )
            obs.event(
                "phase", name,
                seconds=record.duration, interrupted=interrupted,
            )
        return record.duration

    def add_mark(
        self,
        name: str,
        kind: str = "fault",
        machine: Optional[int] = None,
    ) -> TimelineMark:
        mark = TimelineMark(name, kind, self.total_seconds, machine)
        self.marks.append(mark)
        obs.event(
            "mark", name,
            kind=kind, at_seconds=mark.at_seconds, machine=machine,
        )
        return mark

    @property
    def total_seconds(self) -> float:
        return sum(record.duration for record in self.records)

    def phase_totals(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for record in self.records:
            totals[record.name] = totals.get(record.name, 0.0) + record.duration
        return totals

    def straggler_phase_totals(self) -> Dict[str, float]:
        return self.phase_totals()

    def interrupted_records(self) -> List[PhaseRecord]:
        return [record for record in self.records if record.interrupted]

    def recovery_seconds(self) -> float:
        return sum(
            record.duration
            for record in self.records
            if record.name.startswith(RECOVERY_PHASE_PREFIXES)
        )

    def checkpoint_seconds(self) -> float:
        return self.phase_totals().get("checkpoint", 0.0)

    def per_machine_totals(self) -> np.ndarray:
        if not self.records:
            return np.zeros(0)
        total = np.zeros_like(self.records[0].per_machine_seconds)
        for record in self.records:
            total += record.per_machine_seconds
        return total


class OracleNetworkFabric(NetworkFabric):
    """``NetworkFabric`` with the pre-rewrite per-call emission."""

    def transfer_bulk(
        self,
        sent_per_machine: np.ndarray,
        received_per_machine: np.ndarray,
        messages_per_machine: np.ndarray | None = None,
    ) -> None:
        self.sent += sent_per_machine
        self.received += received_per_machine
        if messages_per_machine is not None:
            self.messages += messages_per_machine
        if obs.enabled():
            for machine in range(self.num_machines):
                if sent_per_machine[machine]:
                    obs.count(
                        "cluster.bytes_sent",
                        float(sent_per_machine[machine]),
                        machine=machine,
                    )
                if received_per_machine[machine]:
                    obs.count(
                        "cluster.bytes_received",
                        float(received_per_machine[machine]),
                        machine=machine,
                    )


class OracleCluster:
    """``num_machines`` workers, a shared fabric, and a BSP timeline."""

    def __init__(
        self,
        num_machines: int,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        machine_speeds: np.ndarray | None = None,
    ) -> None:
        if num_machines <= 0:
            raise ValueError("need at least one machine")
        self.cost_model = cost_model
        if machine_speeds is None:
            machine_speeds = np.ones(num_machines)
        machine_speeds = np.asarray(machine_speeds, dtype=np.float64)
        if machine_speeds.shape != (num_machines,):
            raise ValueError("need one speed factor per machine")
        if (machine_speeds <= 0).any():
            raise ValueError("speed factors must be positive")
        self.machine_speeds = machine_speeds
        self.machines: List[OracleMachine] = [
            OracleMachine(i) for i in range(num_machines)
        ]
        self.fabric = OracleNetworkFabric(num_machines, cost_model)
        self.timeline = OracleTimeline()
        self.phase_prefix = ""
        self._memory_watermarks: Dict[str, np.ndarray] = {}

    @property
    def num_machines(self) -> int:
        return len(self.machines)

    def add_phase(
        self,
        name: str,
        per_machine_seconds: np.ndarray,
        interrupted: bool = False,
    ) -> float:
        full_name = self.phase_prefix + name
        totals = np.array(
            [machine.memory.total_bytes for machine in self.machines]
        )
        watermark = self._memory_watermarks.get(full_name)
        if watermark is None:
            self._memory_watermarks[full_name] = totals
        else:
            np.maximum(watermark, totals, out=watermark)
        return self.timeline.add_phase(
            full_name, per_machine_seconds, interrupted
        )

    def add_phases(self, names, block) -> List[float]:
        # Adapter for the bulk entry: the per-phase calls it stands for.
        return [
            self.add_phase(name, seconds) for name, seconds in zip(names, block)
        ]

    def run_compute_phase(
        self, name: str, per_machine_seconds: np.ndarray
    ) -> float:
        per_machine_seconds = (
            np.asarray(per_machine_seconds, dtype=np.float64)
            / self.machine_speeds
        )
        for machine, seconds in zip(self.machines, per_machine_seconds):
            machine.add_compute(float(seconds))
        return self.add_phase(name, per_machine_seconds)

    def record_traffic(
        self,
        name: str,
        sent_per_machine: np.ndarray,
        received_per_machine: np.ndarray,
        messages_per_machine: np.ndarray | None = None,
        matrix: np.ndarray | None = None,
    ) -> None:
        sent = np.asarray(sent_per_machine, dtype=np.float64)
        received = np.asarray(received_per_machine, dtype=np.float64)
        self.fabric.transfer_bulk(sent, received, messages_per_machine)
        for machine, s, r in zip(self.machines, sent, received):
            machine.bytes_sent += float(s)
            machine.bytes_received += float(r)
        if matrix is not None:
            self.fabric.record_matrix(self.phase_prefix + name, matrix)

    def record_traffics(self, names, blocks) -> None:
        # Adapter for the bulk entry: the per-phase calls it stands for.
        matrices = (matrix for block in blocks for matrix in block)
        for name, matrix in zip(names, matrices):
            if matrix.any():
                self.record_traffic(
                    name, matrix.sum(axis=1), matrix.sum(axis=0),
                    matrix=matrix,
                )

    def run_comm_phase(
        self,
        name: str,
        sent_per_machine: np.ndarray,
        received_per_machine: np.ndarray,
        messages_per_machine: np.ndarray | None = None,
        matrix: np.ndarray | None = None,
    ) -> float:
        sent = np.asarray(sent_per_machine, dtype=np.float64)
        received = np.asarray(received_per_machine, dtype=np.float64)
        self.record_traffic(
            name, sent, received, messages_per_machine, matrix
        )
        if self.cost_model.fabric_model == "bisection":
            bisection_floor = (
                2.0 * float(sent.sum()) / max(self.num_machines, 1)
            )
        else:  # pure per-port model (ablation)
            bisection_floor = 0.0
        per_machine_seconds = np.array(
            [
                self.cost_model.transfer_seconds(
                    max(s, r, bisection_floor),
                    int(messages_per_machine[i])
                    if messages_per_machine is not None
                    else 1,
                )
                if max(s, r, bisection_floor) > 0
                else 0.0
                for i, (s, r) in enumerate(zip(sent, received))
            ]
        )
        return self.add_phase(name, per_machine_seconds)

    def check_traffic_invariant(self, tolerance: float = 1e-6) -> None:
        fabric_sent = float(self.fabric.sent.sum())
        fabric_received = float(self.fabric.received.sum())
        machine_sent = sum(m.bytes_sent for m in self.machines)
        machine_received = sum(m.bytes_received for m in self.machines)
        for side, fabric_total, machine_total in (
            ("sent", fabric_sent, machine_sent),
            ("received", fabric_received, machine_received),
        ):
            bound = tolerance * max(abs(fabric_total), 1.0)
            if abs(fabric_total - machine_total) > bound:
                raise RuntimeError(
                    f"traffic ledger mismatch ({side}): fabric total "
                    f"{fabric_total} != per-machine sum {machine_total}"
                )

    def allocate(
        self, machine_id: int, category: str, num_bytes: float
    ) -> None:
        self.machines[machine_id].memory.allocate(category, num_bytes)

    def check_memory_budget(self) -> None:
        budget = self.cost_model.memory_budget_bytes
        for machine in self.machines:
            obs.gauge(
                "cluster.memory_peak_bytes",
                machine.memory.peak_bytes,
                machine=machine.machine_id,
            )
            if machine.memory.peak_bytes > budget:
                raise OutOfMemoryError(
                    machine.machine_id, machine.memory.peak_bytes, budget
                )

    def memory_per_machine(self) -> np.ndarray:
        return np.array(
            [machine.memory.peak_bytes for machine in self.machines]
        )

    def memory_utilization_balance(self) -> float:
        peaks = self.memory_per_machine()
        mean = peaks.mean()
        return float(peaks.max() / mean) if mean > 0 else 1.0

    def memory_watermark_timeline(self) -> Dict[str, np.ndarray]:
        return {
            phase: watermark.copy()
            for phase, watermark in self._memory_watermarks.items()
        }

    def memory_category_peaks(self) -> Dict[str, List[float]]:
        per_machine = [
            machine.memory.peak_by_category() for machine in self.machines
        ]
        categories = sorted(set().union(*per_machine)) if per_machine else []
        return {
            category: [float(peaks.get(category, 0.0))
                       for peaks in per_machine]
            for category in categories
        }


class OracleClusterDistGnnEngine(DistGnnEngine):
    """``DistGnnEngine`` with the pre-rewrite per-machine ledger loop."""

    def _account_memory(self) -> None:
        cm = self.cost_model
        activation_dims = sum(self.dims[1:])  # one stored output per layer
        for i in range(self.num_machines):
            edges = self.edges_per_machine[i]
            vertices = self.vertices_per_machine[i]
            self.cluster.allocate(
                i, "structure", (5 * edges + 2 * vertices) * cm.index_bytes
            )
            self.cluster.allocate(
                i, "features", cm.feature_bytes(vertices, self.feature_size)
            )
            self.cluster.allocate(
                i,
                "activations",
                cm.feature_bytes(vertices, activation_dims),
            )
            max_dim = max(self.dims)
            chunk_fraction = 0.1
            self.cluster.allocate(
                i,
                "comm-buffers",
                2
                * chunk_fraction
                * cm.feature_bytes(self.nonmaster_per_machine[i], max_dim),
            )


class OracleClusterDistDglEngine(DistDglEngine):
    """``DistDglEngine`` with the pre-rewrite per-machine ledger loop."""

    def _account_memory(self) -> None:
        cm = self.cost_model
        edges = self.graph.undirected_edges()
        k = self.num_machines
        owners_u = self.owner[edges[:, 0]]
        owners_v = self.owner[edges[:, 1]]
        self._local_edges_per_worker = (
            np.bincount(owners_u, minlength=k)
            + np.bincount(owners_v, minlength=k)
            - np.bincount(owners_u[owners_u == owners_v], minlength=k)
        )
        self._owned_per_worker = np.bincount(self.owner, minlength=k)
        num_cached = 0 if self._cached is None else int(self._cached.sum())
        for w in range(k):
            local_edges = int(self._local_edges_per_worker[w])
            owned = int(self._owned_per_worker[w])
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
                    cm.feature_bytes(num_cached, self.feature_size),
                )


@contextlib.contextmanager
def oracle_cluster():
    """Inside the block the runners' engines run on :class:`OracleCluster`."""
    with contextlib.ExitStack() as stack:
        for module, name, replacement in (
            (distgnn_engine, "Cluster", OracleCluster),
            (distdgl_engine, "Cluster", OracleCluster),
            (runner, "DistGnnEngine", OracleClusterDistGnnEngine),
            (runner, "DistDglEngine", OracleClusterDistDglEngine),
        ):
            stack.enter_context(mock.patch.object(module, name, replacement))
        yield
