"""Simulated machines' memory: the cluster's columnar memory ledger."""

from __future__ import annotations

from typing import Dict

import numpy as np

__all__ = ["MemoryLedger"]

#: Residual bytes below this are float noise from allocate/free pairs;
#: a category that drops under it is removed from the ledger entirely.
_ZERO_BYTES = 1e-9

#: Insertion stamp of a category a machine does not hold (sorts last).
_ABSENT = np.iinfo(np.int64).max


class MemoryLedger:
    """Bytes per category (structure, features, activations, buffers,
    ...) on each of ``num_machines`` machines, as k-vectors with their
    high-water marks, so transient allocations stay visible once freed.
    :attr:`total` sums each machine's live categories in that machine's
    insertion order (a category freed to zero and allocated again goes
    last), :attr:`peak_total` is its high-water mark."""

    def __init__(self, num_machines: int = 1) -> None:
        self.held: Dict[str, np.ndarray] = {}
        self.peak: Dict[str, np.ndarray] = {}
        self._stamp: Dict[str, np.ndarray] = {}
        self._next_stamp = 0
        self.total = np.zeros(num_machines)
        self.peak_total = np.zeros(num_machines)
        self._absent = np.full(num_machines, _ABSENT)

    def _columns(self, category: str):
        if category not in self.held:
            k = self.total.size
            self.held[category], self.peak[category] = np.zeros(k), np.zeros(k)
            self._stamp[category] = self._absent.copy()
        return self.held[category], self.peak[category], self._stamp[category]

    def allocate(self, machines, category: str, num_bytes) -> None:
        """Add ``num_bytes`` to ``category`` on ``machines`` (a machine id
        or an array of distinct ids; sizes scalar or one per machine)."""
        num_bytes = np.asarray(num_bytes, dtype=np.float64)
        # NaN fails both comparisons.
        if not ((0 <= num_bytes) & (num_bytes < np.inf)).all():
            raise ValueError(
                "allocate takes finite, non-negative sizes; use free"
            )
        held, peak, stamp = self._columns(category)
        fresh = stamp[machines] == _ABSENT
        now = held[machines] + num_bytes
        held[machines] = now
        if fresh.all():  # appended last everywhere: the sums gain one term
            stamp[machines] = self._next_stamp
            self.total[machines] += now
        else:
            stamp[machines] = np.where(
                fresh, self._next_stamp, stamp[machines]
            )
            self._resum(machines)
        self._next_stamp += 1
        # A peak never falls below what it covers, so a whole-vector
        # maximum moves only the machines just allocated on.
        np.maximum(peak, held, out=peak)
        np.maximum(self.peak_total, self.total, out=self.peak_total)

    def free(self, machine: int, category: str, num_bytes: float) -> None:
        """Release ``num_bytes`` of ``category`` on one machine; freed to
        zero, the category leaves that machine's ledger (not its peak)."""
        if not 0 <= num_bytes < np.inf:  # NaN fails both comparisons
            raise ValueError("free takes a finite, non-negative size")
        held, _, stamp = self._columns(category)
        current = float(held[machine])
        if num_bytes > current + 1e-6:
            raise ValueError(
                f"freeing {num_bytes} bytes of {category!r} "
                f"but only {current} allocated"
            )
        remaining = current - num_bytes
        if remaining <= _ZERO_BYTES:
            remaining, stamp[machine] = 0.0, _ABSENT
        held[machine] = remaining
        self._resum(machine)

    def _resum(self, machines) -> None:
        """Re-add the machines' categories, each in its insertion order."""
        stamps = np.array([stamp[machines] for stamp in self._stamp.values()])
        held = np.array([held[machines] for held in self.held.values()])
        total = 0.0
        for row in np.take_along_axis(held, np.argsort(stamps, axis=0), 0):
            total = total + row
        self.total[machines] = total

    def by_category(self, machine: int) -> Dict[str, float]:
        """Live bytes per category on ``machine``, in insertion order."""
        live = sorted(
            (stamp[machine], category)
            for category, stamp in self._stamp.items()
            if stamp[machine] != _ABSENT
        )
        return {c: float(self.held[c][machine]) for _, c in live}

    def peak_by_category(self, machine: int) -> Dict[str, float]:
        """High-water mark per category ``machine`` ever held bytes of
        (maxima at different times: they need not sum to the peak)."""
        return {
            category: float(peak[machine])
            for category, peak in self.peak.items()
            if peak[machine] > 0
        }
