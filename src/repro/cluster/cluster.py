"""The simulated compute cluster tying machines, network and timeline.

Every per-machine ledger is a k-vector: a phase costs the same Python
calls on 4 machines as on 64, and the same float operations per machine
as a loop over the machines."""

from __future__ import annotations

from functools import cached_property
from math import isfinite
from typing import Dict, Iterable, List, Sequence

import numpy as np

from ..costmodel import DEFAULT_COST_MODEL, CostModel
from ..obs import api as obs
from .machine import Machine, MemoryLedger
from .network import NetworkFabric, add_rows
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
        self.num_machines = num_machines
        self.machine_speeds = machine_speeds
        self.memory = MemoryLedger(num_machines)
        #: Rows: compute seconds, bytes sent, bytes received; per machine.
        self.work = np.zeros((3, num_machines))
        self._compute, self._sent, self._received = self.work
        self.fabric = NetworkFabric(num_machines, cost_model)
        self.timeline = Timeline(num_machines)
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

    @cached_property
    def machines(self) -> List[Machine]:
        """One :class:`Machine` view per column of the ledgers."""
        return [Machine(i, self.work) for i in range(self.num_machines)]

    def _checked(self, values, what: str, shape=None) -> np.ndarray:
        """Checked float64 ``values`` of ``shape`` (default ``(k,)``)."""
        array = np.asarray(values, dtype=np.float64)
        shape = shape or (self.num_machines,)
        if array.shape != shape:
            raise ValueError(
                f"{what} must have shape {shape}, not {array.shape}"
            )
        return array

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
        duration = self.timeline.add_phase(
            full_name, per_machine_seconds, interrupted
        )
        self._mark_memory(full_name)
        return duration

    def add_phases(
        self, names: Sequence[str], block: np.ndarray
    ) -> List[float]:
        """:meth:`add_phase` for each row of a ``(phases x k)`` block,
        in one append; a name's memory watermark is taken once (nothing
        allocates between the rows)."""
        full_names = [self.phase_prefix + name for name in names]
        durations = self.timeline.add_phases(full_names, block)
        for full_name in dict.fromkeys(full_names):
            self._mark_memory(full_name)
        return durations

    def _mark_memory(self, full_name: str) -> None:
        watermark = self._memory_watermarks.get(full_name)
        if watermark is None:
            self._memory_watermarks[full_name] = self.memory.total.copy()
        else:
            np.maximum(watermark, self.memory.total, out=watermark)

    def run_compute_phase(
        self, name: str, per_machine_seconds: np.ndarray
    ) -> float:
        """Record a barrier-separated compute phase; returns its duration.

        ``per_machine_seconds`` is at nominal speed; heterogeneous
        machines stretch their share by ``1 / speed``.
        """
        seconds = (
            self._checked(per_machine_seconds, "per_machine_seconds")
            / self.machine_speeds
        )
        duration = self.add_phase(name, seconds)
        self._compute += seconds
        return duration

    def record_traffic(
        self,
        name: str,
        sent_per_machine: np.ndarray,
        received_per_machine: np.ndarray,
        messages_per_machine: np.ndarray | None = None,
        matrix: np.ndarray | None = None,
    ) -> tuple:
        """Record phase traffic on the fabric and machine ledgers.

        No time is charged — callers that model their own phase timing
        (e.g. the mini-batch engine, whose phases mix compute and
        communication) use this to keep the byte ledgers and the
        ``src x dst`` matrix consistent with what they simulated. The
        phase name is recorded under the current :attr:`phase_prefix`.
        Every argument is checked before any ledger changes (shapes, and
        sent and received bytes finite and non-negative); returns the
        checked ``(sent, received, messages)``.
        """
        sent = self._checked(sent_per_machine, "sent_per_machine")
        received = self._checked(received_per_machine, "received")
        values = sent.tolist() + received.tolist()  # NaN, inf: sum is one
        if not (min(values) >= 0 and isfinite(sum(values))):
            raise ValueError("traffic bytes must be finite, non-negative")
        messages = messages_per_machine
        if messages is not None:
            messages = self._checked(messages, "messages").astype(np.int64)
        if matrix is not None:
            k = self.num_machines
            matrix = self._checked(matrix, "traffic matrix", (k, k))
        self.fabric.transfer_bulk(sent, received, messages)
        self._sent += sent
        self._received += received
        if matrix is not None:
            self.fabric.record_matrix(self.phase_prefix + name, matrix)
        return sent, received, messages

    def record_traffics(
        self, names: Sequence[str], blocks: Iterable[np.ndarray]
    ) -> None:
        """``record_traffic(name, m.sum(axis=1), m.sum(axis=0),
        matrix=m)`` for each non-zero ``src x dst`` byte matrix ``m``,
        given as ``(rows, k, k)`` blocks whose rows are the ``names`` in
        order. A block is checked before any of its rows is recorded."""
        start = 0
        for block in blocks:
            k, rows = self.num_machines, names[start:start + len(block)]
            block = self._checked(block, "traffic matrices", (len(rows), k, k))
            start += len(rows)
            kept = np.logical_or.reduce(block, axis=(1, 2))
            block, labels = block[kept], np.array(rows)[kept]
            # Stacked reductions give each matrix the bits of its own
            # sum(axis=1) / sum(axis=0).
            sent, received = np.add.reduce(block, 2), np.add.reduce(block, 1)
            values = sent.ravel().tolist() + received.ravel().tolist()
            if values and not (min(values) >= 0 and isfinite(sum(values))):
                raise ValueError("traffic bytes must be finite, non-negative")
            self.fabric.transfer_bulk(sent, received)
            add_rows(self._sent, sent)
            add_rows(self._received, received)
            for name in dict.fromkeys(labels.tolist()):
                self.fabric.record_matrix(
                    self.phase_prefix + name, block[labels == name]
                )

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
        sent, received, messages = self.record_traffic(
            name, sent_per_machine, received_per_machine,
            messages_per_machine, matrix,
        )
        # Per-machine port bound, floored by the fabric's bisection bound:
        # with every machine communicating concurrently the shared fabric
        # sustains ~k/2 concurrent full-rate transfers, so a phase cannot
        # finish faster than 2 * total / (k * bandwidth). Mild imbalance is
        # therefore absorbed; extreme imbalance (a dominant port) stalls
        # the barrier, as the paper observes for 2PS-L.
        if self.cost_model.fabric_model == "bisection":
            bisection_floor = (
                2.0 * float(np.add.reduce(sent)) / max(self.num_machines, 1)
            )
        else:  # pure per-port model (ablation)
            bisection_floor = 0.0
        port_bytes = np.maximum(np.maximum(sent, received), bisection_floor)
        per_machine_seconds = np.where(
            port_bytes > 0,
            self.cost_model.transfer_seconds(
                port_bytes, 1 if messages is None else messages
            ),
            0.0,
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
        machine_sent = sum(self._sent.tolist())
        machine_received = sum(self._received.tolist())
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
    def allocate(self, machine, category: str, num_bytes) -> None:
        """Record a memory allocation on one machine's ledger, or on
        every machine of an index array (``num_bytes`` then a scalar or
        one size per listed machine)."""
        self.memory.allocate(machine, category, num_bytes)

    def check_memory_budget(self) -> None:
        """Raise :class:`OutOfMemoryError` if any machine is over budget."""
        budget = self.cost_model.memory_budget_bytes
        for machine, peak in enumerate(self.memory.peak_total.tolist()):
            obs.gauge("cluster.memory_peak_bytes", peak, machine=machine)
            if peak > budget:
                raise OutOfMemoryError(machine, peak, budget)

    def memory_per_machine(self) -> np.ndarray:
        """Per-machine peak memory in bytes, indexed by machine id."""
        return self.memory.peak_total.copy()

    def memory_utilization_balance(self) -> float:
        """max/mean of per-machine peak memory (paper Figure 5)."""
        peaks = self.memory.peak_total
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
        """Per-category peak bytes per machine: category -> [bytes, ...]
        (categories any machine ever held bytes of, sorted)."""
        return {
            category: peak.tolist()
            for category, peak in sorted(self.memory.peak.items())
            if peak.any()
        }
