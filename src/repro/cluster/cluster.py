"""The simulated compute cluster tying memory, network and timeline.

Every per-machine ledger is a k-vector and every ledger has one bulk
entry: a phase costs the same Python calls on 4 machines as on 64, and
the same float operations per machine as a loop over the machines."""

from __future__ import annotations

from math import isfinite
from typing import Dict, Iterable, List, Sequence

import numpy as np

from ..costmodel import DEFAULT_COST_MODEL, CostModel
from ..obs import api as obs
from .machine import MemoryLedger
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
        compute speed (1.0 = nominal, 0.5 = half speed); engines stretch
        a machine's compute by ``1 / speed``. Used to inject
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
        speeds = machine_speeds.tolist()  # NaN, inf: sum is one
        if not (min(speeds) > 0 and isfinite(sum(speeds))):
            raise ValueError("speed factors must be positive and finite")
        self.num_machines = num_machines
        self.machine_speeds = machine_speeds
        self.memory = MemoryLedger(num_machines)
        self.fabric = NetworkFabric(num_machines, cost_model)
        self.timeline = Timeline(num_machines)
        #: Prepended to every phase name recorded through the cluster;
        #: the fault layer sets it to ``"replay:"`` while re-executing
        #: epochs after a restore, so recovery work is distinguishable
        #: in the timeline.
        self.phase_prefix = ""
        #: Per-phase memory watermark: for every phase name recorded
        #: through :meth:`add_phases`, the per-machine ledger totals
        #: observed when the phase ran (elementwise max over
        #: occurrences). Bounded by (#phase names x machines); with
        #: engines that allocate only at construction the timeline is
        #: flat, but it captures any per-phase allocate/free churn.
        self._memory_watermarks: Dict[str, np.ndarray] = {}

    def _checked(self, values, what: str, shape) -> np.ndarray:
        """Checked float64 ``values`` of ``shape``."""
        array = np.asarray(values, dtype=np.float64)
        if array.shape != shape:
            raise ValueError(
                f"{what} must have shape {shape}, not {array.shape}"
            )
        return array

    # ------------------------------------------------------------------
    # Phase execution
    # ------------------------------------------------------------------
    def add_phases(
        self,
        names: Sequence[str],
        block: np.ndarray,
        interrupted: bool = False,
    ) -> List[float]:
        """Record a ``(phases x k)`` block of per-machine seconds, row
        ``i`` named ``names[i]`` under the current phase prefix, in one
        timeline append; returns the phases' straggler durations. A
        name's memory watermark is taken once (nothing allocates between
        the rows)."""
        full_names = [self.phase_prefix + name for name in names]
        durations = self.timeline.add_phases(full_names, block, interrupted)
        for full_name in dict.fromkeys(full_names):
            watermark = self._memory_watermarks.get(full_name)
            if watermark is None:
                self._memory_watermarks[full_name] = self.memory.total.copy()
            else:
                np.maximum(watermark, self.memory.total, out=watermark)
        return durations

    def record_traffic_rows(
        self,
        names: Sequence[str],
        sent: np.ndarray,
        received: np.ndarray,
        matrices: np.ndarray,
    ) -> None:
        """Record each row of ``(n, k)`` ``sent`` and ``received`` bytes
        on the fabric, with the ``(k, k)`` ``src x dst`` matrix in the
        same position of ``(n, k, k)`` ``matrices``, under ``names`` (and
        the current :attr:`phase_prefix`), in order and in one append.

        No time is charged: engines price their phases themselves (see
        :meth:`comm_seconds`) and keep the byte ledgers and matrices
        consistent with what they simulated. Every argument is checked
        before any ledger changes (shapes, and sent and received bytes
        finite and non-negative).
        """
        n, k = len(names), self.num_machines
        sent = self._checked(sent, "sent", (n, k))
        received = self._checked(received, "received", (n, k))
        matrices = self._checked(matrices, "traffic matrices", (n, k, k))
        # A NaN propagates to the minimum, and a NaN or +inf to the sum.
        low = min(sent.min(initial=0.0), received.min(initial=0.0))
        if not (low >= 0 and isfinite(sent.sum() + received.sum())):
            raise ValueError("traffic bytes must be finite, non-negative")
        self.fabric.transfer_bulk(sent, received)
        self.fabric.record_matrices(
            [self.phase_prefix + name for name in names], matrices
        )

    def record_traffics(
        self, names: Sequence[str], blocks: Iterable[np.ndarray]
    ) -> None:
        """:meth:`record_traffic_rows` of each non-zero ``src x dst``
        byte matrix ``m``, with ``m.sum(axis=1)`` sent and
        ``m.sum(axis=0)`` received, given as ``(rows, k, k)`` blocks
        whose rows are the ``names`` in order. A block is checked before
        any of its rows is recorded."""
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
            self.record_traffic_rows(labels.tolist(), sent, received, block)

    def comm_seconds(
        self, sent: np.ndarray, received: np.ndarray
    ) -> np.ndarray:
        """Per-machine seconds of a communication phase from its ``(k,)``
        sent and received bytes — or of each row of ``(n, k)`` stacks.

        Per-machine port bound, floored by the fabric's bisection bound:
        with every machine communicating concurrently the shared fabric
        sustains ~k/2 concurrent full-rate transfers, so a phase cannot
        finish faster than 2 * total / (k * bandwidth). Mild imbalance is
        therefore absorbed; extreme imbalance (a dominant port) stalls
        the barrier, as the paper observes for 2PS-L.
        """
        if self.cost_model.fabric_model == "bisection":
            bisection_floor = (
                2.0 * np.add.reduce(sent, -1, keepdims=True)
                / max(self.num_machines, 1)
            )
        else:  # pure per-port model (ablation)
            bisection_floor = 0.0
        port_bytes = np.maximum(np.maximum(sent, received), bisection_floor)
        return np.where(
            port_bytes > 0,
            self.cost_model.transfer_seconds(port_bytes, 1),
            0.0,
        )

    def check_traffic_invariant(self) -> None:
        """Assert the fabric's books balance: bytes are conserved.

        Summed over every phase, the ``src x dst`` matrices' row sums
        equal each machine's bytes sent and their column sums its bytes
        received, and total bytes sent equal total bytes received, each
        within a relative 1e-6 of the port ledger. The two sides
        come from different arrays (an engine's port vectors and its
        pairwise matrices), so an engine whose vectors and matrices
        disagree fails here. Injected lost messages are pure *counts* —
        the dropped payload is charged to neither side, and retransmitted
        bytes re-enter both when actually resent — so they can never skew
        the balance. Raises ``RuntimeError`` on an imbalance (an
        accounting bug).
        """
        sent, received = self.fabric.sent, self.fabric.received
        matrix = self.fabric.traffic_matrix()
        for side, ledger, pairwise in (
            ("bytes sent", sent, matrix.sum(axis=1)),
            ("bytes received", received, matrix.sum(axis=0)),
            ("total received vs sent", received.sum(keepdims=True),
             sent.sum(keepdims=True)),
        ):
            bound = 1e-6 * np.maximum(np.abs(ledger), 1.0)
            # Written so that a NaN on either side fails too.
            bad = np.flatnonzero(~(np.abs(ledger - pairwise) <= bound))
            if bad.size:
                i = bad[0]
                raise RuntimeError(
                    f"traffic books unbalanced ({side}, entry {i}): "
                    f"ledger {ledger[i]} != matrices {pairwise[i]}"
                )

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
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

        For each phase name recorded through :meth:`add_phases`, the
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
