"""The simulated compute cluster tying machines, network and timeline."""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..costmodel import DEFAULT_COST_MODEL, CostModel
from ..obs import api as obs
from .machine import Machine
from .network import NetworkFabric
from .timeline import Timeline

__all__ = ["Cluster", "OutOfMemoryError"]


class OutOfMemoryError(RuntimeError):
    """Raised when a machine's footprint exceeds the memory budget.

    Mirrors the paper's observation that random partitioning makes some
    graph/cluster combinations untrainable (DI could never be processed
    under random partitioning) while better partitioners fit.
    """

    def __init__(self, machine_id: int, needed: float, budget: float) -> None:
        super().__init__(
            f"machine {machine_id} needs {needed / 1e6:.1f} MB "
            f"but the budget is {budget / 1e6:.1f} MB"
        )
        self.machine_id = machine_id
        self.needed = needed
        self.budget = budget


class Cluster:
    """``num_machines`` workers, a shared fabric, and a BSP timeline."""

    def __init__(
        self,
        num_machines: int,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        machine_speeds: np.ndarray | None = None,
    ) -> None:
        """``machine_speeds`` (optional) gives each machine a relative
        compute speed (1.0 = nominal, 0.5 = half speed). Used to inject
        stragglers/heterogeneity into otherwise balanced workloads.
        """
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
        self.machines: List[Machine] = [
            Machine(i) for i in range(num_machines)
        ]
        self.fabric = NetworkFabric(num_machines, cost_model)
        self.timeline = Timeline()
        #: Prepended to every phase name recorded through the cluster;
        #: the fault layer sets it to ``"replay:"`` while re-executing
        #: epochs after a restore, so recovery work is distinguishable
        #: in the timeline and Chrome trace.
        self.phase_prefix = ""
        #: Per-phase memory watermark: for every phase name recorded
        #: through :meth:`add_phase`, the per-machine ledger totals
        #: observed when the phase ran (elementwise max over
        #: occurrences). Bounded by (#phase names x machines); with
        #: engines that allocate only at construction the timeline is
        #: flat, but it captures any per-phase allocate/free churn.
        self._memory_watermarks: Dict[str, np.ndarray] = {}

    @property
    def num_machines(self) -> int:
        """Number of machines in the cluster."""
        return len(self.machines)

    # ------------------------------------------------------------------
    # Phase execution
    # ------------------------------------------------------------------
    def add_phase(
        self,
        name: str,
        per_machine_seconds: np.ndarray,
        interrupted: bool = False,
    ) -> float:
        """Record a raw timeline phase under the current phase prefix."""
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

    def run_compute_phase(
        self, name: str, per_machine_seconds: np.ndarray
    ) -> float:
        """Record a barrier-separated compute phase; returns its duration.

        ``per_machine_seconds`` is at nominal speed; heterogeneous
        machines stretch their share by ``1 / speed``.
        """
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
        """Record phase traffic on the fabric and machine ledgers.

        No time is charged — callers that model their own phase timing
        (e.g. the mini-batch engine, whose phases mix compute and
        communication) use this to keep the byte ledgers and the
        ``src x dst`` matrix consistent with what they simulated. The
        phase name is recorded under the current :attr:`phase_prefix`.
        """
        sent = np.asarray(sent_per_machine, dtype=np.float64)
        received = np.asarray(received_per_machine, dtype=np.float64)
        self.fabric.transfer_bulk(sent, received, messages_per_machine)
        for machine, s, r in zip(self.machines, sent, received):
            machine.bytes_sent += float(s)
            machine.bytes_received += float(r)
        if matrix is not None:
            self.fabric.record_matrix(self.phase_prefix + name, matrix)

    def run_comm_phase(
        self,
        name: str,
        sent_per_machine: np.ndarray,
        received_per_machine: np.ndarray,
        messages_per_machine: np.ndarray | None = None,
        matrix: np.ndarray | None = None,
    ) -> float:
        """Record a communication phase: traffic plus straggler time.

        ``matrix`` (optional, ``src x dst`` bytes) attributes the same
        traffic pairwise for the fabric's per-phase matrices; it never
        affects the returned duration.
        """
        sent = np.asarray(sent_per_machine, dtype=np.float64)
        received = np.asarray(received_per_machine, dtype=np.float64)
        self.record_traffic(
            name, sent, received, messages_per_machine, matrix
        )
        # Per-machine port bound, floored by the fabric's bisection bound:
        # with every machine communicating concurrently the shared fabric
        # sustains ~k/2 concurrent full-rate transfers, so a phase cannot
        # finish faster than 2 * total / (k * bandwidth). Mild imbalance is
        # therefore absorbed; extreme imbalance (a dominant port) stalls
        # the barrier, as the paper observes for 2PS-L.
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
        """Assert fabric totals equal the per-machine byte ledgers.

        The invariant: ``fabric.total_bytes`` == sum of per-machine
        ``bytes_sent`` (and the received side likewise), because every
        phase records both through :meth:`record_traffic`. Injected lost
        messages are pure *counts* — the dropped payload is charged to
        neither ledger, and retransmitted bytes re-enter both sides when
        actually resent — so they can never skew this balance. Raises
        ``RuntimeError`` on mismatch (an accounting bug).
        """
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

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    def allocate(
        self, machine_id: int, category: str, num_bytes: float
    ) -> None:
        """Record a memory allocation on one machine's ledger."""
        self.machines[machine_id].memory.allocate(category, num_bytes)

    def check_memory_budget(self) -> None:
        """Raise :class:`OutOfMemoryError` if any machine is over budget."""
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
        """Per-machine peak memory in bytes, indexed by machine id."""
        return np.array(
            [machine.memory.peak_bytes for machine in self.machines]
        )

    def memory_utilization_balance(self) -> float:
        """max/mean of per-machine peak memory (paper Figure 5)."""
        peaks = self.memory_per_machine()
        mean = peaks.mean()
        return float(peaks.max() / mean) if mean > 0 else 1.0

    def memory_watermark_timeline(self) -> Dict[str, np.ndarray]:
        """Per-phase memory watermark: phase name -> per-machine bytes.

        For each phase name recorded through :meth:`add_phase`, the
        elementwise max of the per-machine ledger totals observed when
        the phase ran, in first-occurrence order (copies).
        """
        return {
            phase: watermark.copy()
            for phase, watermark in self._memory_watermarks.items()
        }

    def memory_category_peaks(self) -> Dict[str, List[float]]:
        """Per-category peak bytes per machine: category -> [bytes, ...].

        Categories are the union across machines, sorted; a machine
        without the category contributes 0.0.
        """
        per_machine = [
            machine.memory.peak_by_category() for machine in self.machines
        ]
        categories = sorted(set().union(*per_machine)) if per_machine else []
        return {
            category: [float(peaks.get(category, 0.0))
                       for peaks in per_machine]
            for category in categories
        }
