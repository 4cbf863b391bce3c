"""Network fabric: per-machine traffic accounting.

Traffic is what the paper measures ("network communication"); the fabric
accumulates sent/received bytes per machine, from which
``Cluster.comm_seconds`` prices a communication phase under the cost
model (bandwidth is per machine port, so the phase lasts as long as its
busiest port).

Beyond the per-port vectors, the fabric keeps a ``src x dst`` traffic
matrix per phase name (who talked to whom, in bytes) — the resource
profile the live monitor and the dashboard heatmap render. The matrices
are pure bookkeeping: they never influence phase timing, which stays a
function of the per-port vectors alone.

Ledger convention: injected *lost messages* are pure counts
(:attr:`NetworkFabric.lost_messages`); the dropped payload is charged to
**neither** side's byte ledger. Bytes only enter the ledgers when they
are (re)transmitted, so the matrices' row and column sums always
balance the per-machine sent and received bytes
(``Cluster.check_traffic_invariant``).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..costmodel import CostModel
from ..obs import api as obs

__all__ = ["NetworkFabric"]

_BYTES_SENT = obs.Bound("cluster.bytes_sent", "machine")
_BYTES_RECEIVED = obs.Bound("cluster.bytes_received", "machine")


def add_rows(total: np.ndarray, rows: np.ndarray) -> None:
    """``total += row`` for each row of ``rows`` in order, in place (one
    sequential ``cumsum``: the same float additions as that loop)."""
    rows = np.concatenate((total[np.newaxis], rows))
    total[...] = np.add.accumulate(rows, 0)[-1]


class NetworkFabric:
    """Per-machine sent/received bytes, lost-message counts and the
    per-phase ``src x dst`` byte matrices."""

    def __init__(self, num_machines: int, cost_model: CostModel) -> None:
        self.num_machines = num_machines
        self.cost_model = cost_model
        self.sent = np.zeros(num_machines, dtype=np.float64)
        self.received = np.zeros(num_machines, dtype=np.float64)
        self.lost_messages = np.zeros(num_machines, dtype=np.int64)
        #: ``src x dst`` byte matrices keyed by phase name, accumulated
        #: by :meth:`record_matrices` (insertion order = first occurrence).
        self._matrix_by_phase: Dict[str, np.ndarray] = {}

    def record_lost_message(self, machine: int) -> None:
        """Count an injected lost message on ``machine``'s port.

        Only the count is recorded: the lost payload's bytes are dropped
        from both ledgers (they show up again if a retransmit re-sends
        them), so the sent/received totals stay consistent.
        """
        self.lost_messages[machine] += 1
        obs.count("cluster.lost_messages", machine=machine)

    def transfer_bulk(self, sent: np.ndarray, received: np.ndarray) -> None:
        """Record aggregate per-machine traffic for a run of phases given
        as ``(phases, k)`` rows of bytes sent and received, added row by
        row."""
        add_rows(self.sent, sent)
        add_rows(self.received, received)
        if obs.enabled():
            for row in np.stack((sent, received), -1).tolist():
                for machine, (sent_bytes, received_bytes) in enumerate(row):
                    if sent_bytes:
                        _BYTES_SENT[machine].add(sent_bytes)
                    if received_bytes:
                        _BYTES_RECEIVED[machine].add(received_bytes)

    def record_matrices(
        self, phases: Sequence[str], matrices: np.ndarray
    ) -> None:
        """Add each ``src x dst`` byte matrix of a ``(n, k, k)`` stack to
        the one accumulated under the phase name in the same position,
        in order, one ``+=`` per matrix (``np.add.accumulate`` down the
        stack gives the same bits, but loops over every matrix element
        and is slower at every stack size and k the engines use).

        Bookkeeping only — the matrices never affect phase timing; their
        row/column sums balance the sent/received vectors (see
        ``Cluster.check_traffic_invariant``).
        """
        matrices = np.asarray(matrices, dtype=np.float64)
        k = self.num_machines
        if matrices.shape != (len(phases), k, k):
            raise ValueError(
                f"traffic matrices must be ({len(phases)}, {k}, {k}), "
                f"got {matrices.shape}"
            )
        for phase, matrix in zip(phases, matrices):
            total = self._matrix_by_phase.get(phase)
            if total is None:
                self._matrix_by_phase[phase] = matrix.copy()
            else:
                total += matrix

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
