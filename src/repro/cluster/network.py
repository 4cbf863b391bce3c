"""Network fabric: per-machine traffic accounting.

Traffic is what the paper measures ("network communication"); the fabric
accumulates sent/received bytes per machine and converts a communication
phase into seconds under the cost model (bandwidth is per machine port, so
the phase lasts as long as its busiest port).

Beyond the per-port vectors, the fabric keeps a ``src x dst`` traffic
matrix per phase name (who talked to whom, in bytes) — the resource
profile the live monitor and the dashboard heatmap render. The matrices
are pure bookkeeping: they never influence phase timing, which stays a
function of the per-port vectors alone.

Ledger convention: injected *lost messages* are pure counts
(:attr:`NetworkFabric.lost_messages`); the dropped payload is charged to
**neither** side's byte ledger. Bytes only enter the ledgers when they
are (re)transmitted, so ``total_bytes`` always equals the sum of
per-machine sent bytes (see ``Cluster.check_traffic_invariant``).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..costmodel import CostModel
from ..obs import api as obs

__all__ = ["NetworkFabric"]

_BYTES_SENT = obs.Bound("cluster.bytes_sent", "machine")
_BYTES_RECEIVED = obs.Bound("cluster.bytes_received", "machine")


def add_rows(total: np.ndarray, rows: np.ndarray) -> None:
    """``total += row`` for each row of ``rows`` in order, in place (one
    sequential ``cumsum``: the same float additions as that loop)."""
    total[...] = np.cumsum(np.concatenate((total[np.newaxis], rows)), 0)[-1]


class NetworkFabric:
    """Per-machine sent/received/message counters plus phase timing."""

    def __init__(self, num_machines: int, cost_model: CostModel) -> None:
        self.num_machines = num_machines
        self.cost_model = cost_model
        self.sent = np.zeros(num_machines, dtype=np.float64)
        self.received = np.zeros(num_machines, dtype=np.float64)
        self.messages = np.zeros(num_machines, dtype=np.int64)
        self.lost_messages = np.zeros(num_machines, dtype=np.int64)
        #: ``src x dst`` byte matrices keyed by phase name, accumulated
        #: by :meth:`record_matrix` (insertion order = first occurrence).
        self._matrix_by_phase: Dict[str, np.ndarray] = {}

    def record_lost_message(self, machine: int) -> None:
        """Count an injected lost message on ``machine``'s port.

        Only the count is recorded: the lost payload's bytes are dropped
        from both ledgers (they show up again if a retransmit re-sends
        them), so the sent/received totals stay consistent.
        """
        self.lost_messages[machine] += 1
        obs.count("cluster.lost_messages", machine=machine)

    def transfer(self, src: int, dst: int, num_bytes: float) -> None:
        """Record a point-to-point transfer (no time accounting)."""
        if src == dst:
            return  # local, free
        self.sent[src] += num_bytes
        self.received[dst] += num_bytes
        self.messages[src] += 1

    def transfer_bulk(
        self,
        sent_per_machine: np.ndarray,
        received_per_machine: np.ndarray,
        messages_per_machine: np.ndarray | None = None,
    ) -> None:
        """Record aggregate per-machine traffic for one phase, or for a
        run of phases given as ``(phases, k)`` rows, added row by row."""
        if sent_per_machine.ndim == 2:
            add_rows(self.sent, sent_per_machine)
            add_rows(self.received, received_per_machine)
        else:
            self.sent += sent_per_machine
            self.received += received_per_machine
        if messages_per_machine is not None:
            self.messages += messages_per_machine
        if obs.enabled():
            ports = np.array([sent_per_machine, received_per_machine], float)
            k = self.num_machines
            for row in ports.reshape(2, -1, k).transpose(1, 2, 0).tolist():
                for machine, (sent, received) in enumerate(row):
                    if sent:
                        _BYTES_SENT[machine].add(sent)
                    if received:
                        _BYTES_RECEIVED[machine].add(received)

    def record_matrix(self, phase: str, matrix: np.ndarray) -> None:
        """Accumulate a ``src x dst`` byte matrix under ``phase`` — or a
        ``(n, k, k)`` stack of them, one after another.

        Bookkeeping only — the matrix never affects phase timing, and
        its row/column sums are expected (and test-enforced for the
        engines) to match the sent/received vectors of the same phase.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        k = self.num_machines
        if matrix.shape[-2:] != (k, k) or matrix.ndim not in (2, 3):
            raise ValueError(
                f"traffic matrix must be ({k}, {k}), got {matrix.shape}"
            )
        existing = self._matrix_by_phase.get(phase)
        if matrix.ndim == 3:  # a sequential cumsum is one += at a time
            if existing is not None:
                matrix = np.concatenate((existing[np.newaxis], matrix))
            self._matrix_by_phase[phase] = np.cumsum(matrix, axis=0)[-1]
        elif existing is None:
            self._matrix_by_phase[phase] = matrix.copy()
        else:
            existing += matrix

    def traffic_matrix(self, phase: Optional[str] = None) -> np.ndarray:
        """``src x dst`` byte matrix for ``phase`` (or all phases summed).

        Returns a zero matrix for a phase that recorded no traffic.
        """
        k = self.num_machines
        if phase is not None:
            matrix = self._matrix_by_phase.get(phase)
            return (
                matrix.copy() if matrix is not None
                else np.zeros((k, k), dtype=np.float64)
            )
        total = np.zeros((k, k), dtype=np.float64)
        for matrix in self._matrix_by_phase.values():
            total += matrix
        return total

    def traffic_matrix_phases(self) -> Dict[str, np.ndarray]:
        """Per-phase ``src x dst`` matrices (copies), in recording order."""
        return {
            phase: matrix.copy()
            for phase, matrix in self._matrix_by_phase.items()
        }

    @property
    def total_bytes(self) -> float:
        """Total bytes sent over the fabric."""
        return float(self.sent.sum())
