"""Tests for Machine and the columnar MemoryLedger."""

import numpy as np
import pytest

from repro.cluster import Cluster, MemoryLedger


class TestMemoryLedger:
    def test_allocate_accumulates(self):
        ledger = MemoryLedger()
        ledger.allocate(0, "features", 100)
        ledger.allocate(0, "features", 50)
        assert ledger.total[0] == 150
        assert ledger.by_category(0) == {"features": 150}

    def test_peak_tracks_high_watermark(self):
        ledger = MemoryLedger()
        ledger.allocate(0, "a", 100)
        ledger.free(0, "a", 60)
        ledger.allocate(0, "a", 10)
        assert ledger.total[0] == 50
        assert ledger.peak_total[0] == 100

    def test_free_more_than_held_rejected(self):
        ledger = MemoryLedger()
        ledger.allocate(0, "a", 10)
        with pytest.raises(ValueError):
            ledger.free(0, "a", 20)

    def test_negative_allocation_rejected(self):
        with pytest.raises(ValueError):
            MemoryLedger().allocate(0, "a", -5)

    def test_per_category_peaks_survive_frees(self):
        ledger = MemoryLedger()
        ledger.allocate(0, "activations", 100)
        ledger.free(0, "activations", 100)
        ledger.allocate(0, "features", 40)
        assert ledger.peak_by_category(0) == {
            "activations": 100,
            "features": 40,
        }
        # The transient category is gone from the live view...
        assert ledger.by_category(0) == {"features": 40}
        # ...but its watermark remains.
        assert ledger.peak_total[0] == 100

    def test_category_peaks_are_independent_maxima(self):
        # Categories peaking at different times: the per-category peaks
        # need not sum to the total peak.
        ledger = MemoryLedger()
        ledger.allocate(0, "a", 100)
        ledger.free(0, "a", 100)
        ledger.allocate(0, "b", 80)
        assert ledger.peak_by_category(0) == {"a": 100, "b": 80}
        assert ledger.peak_total[0] == 100
        assert sum(ledger.peak_by_category(0).values()) > ledger.peak_total[0]

    def test_free_to_zero_removes_category(self):
        ledger = MemoryLedger()
        ledger.allocate(0, "buffers", 64)
        ledger.free(0, "buffers", 64)
        assert "buffers" not in ledger.by_category(0)
        assert ledger.total[0] == 0.0
        # Re-allocating after a full free works and grows the peak.
        ledger.allocate(0, "buffers", 128)
        assert ledger.by_category(0) == {"buffers": 128}
        assert ledger.peak_by_category(0)["buffers"] == 128

    def test_float_roundoff_free_clears_category(self):
        # Freeing in parts that sum to the allocation (modulo float
        # error) must not leave a dust entry behind.
        ledger = MemoryLedger()
        ledger.allocate(0, "a", 0.3)
        ledger.free(0, "a", 0.1)
        ledger.free(0, "a", 0.2)
        assert ledger.by_category(0) == {}

    def test_interleaved_alloc_free_watermarks(self):
        ledger = MemoryLedger()
        ledger.allocate(0, "a", 10)
        ledger.allocate(0, "b", 20)
        ledger.free(0, "a", 5)
        ledger.allocate(0, "a", 30)  # a now 35, total 55
        ledger.free(0, "b", 20)
        assert ledger.by_category(0) == {"a": 35}
        assert ledger.peak_by_category(0) == {"a": 35, "b": 20}
        assert ledger.peak_total[0] == 55

    def test_over_free_still_rejected_per_category(self):
        ledger = MemoryLedger()
        ledger.allocate(0, "a", 10)
        ledger.allocate(0, "b", 100)
        # Plenty held overall, but not under this category.
        with pytest.raises(ValueError):
            ledger.free(0, "a", 11)

    def test_vector_allocation_is_per_machine(self):
        ledger = MemoryLedger(3)
        ledger.allocate(np.array([0, 2]), "a", np.array([5.0, 7.0]))
        ledger.allocate(np.arange(3), "b", 1.0)
        assert ledger.total.tolist() == [6.0, 1.0, 8.0]
        assert ledger.by_category(1) == {"b": 1.0}
        assert list(ledger.by_category(2)) == ["a", "b"]

    def test_reallocated_category_is_summed_last(self):
        """A category freed to zero and allocated again goes to the end
        of its machine's order, and the total is summed in that order."""
        ledger = MemoryLedger(2)
        for category, size in (("a", 0.1), ("b", 0.2), ("c", 0.3)):
            ledger.allocate(np.arange(2), category, size)
        ledger.free(0, "a", 0.1)
        ledger.allocate(0, "a", 0.1)
        ledger.allocate(np.arange(2), "c", 0.0)
        assert list(ledger.by_category(0)) == ["b", "c", "a"]
        assert ledger.total.tolist() == [0.2 + 0.3 + 0.1, 0.1 + 0.2 + 0.3]


class TestMachine:
    def test_compute_accumulates(self):
        cluster = Cluster(1)
        cluster.run_compute_phase("fwd", [1.5])
        cluster.run_compute_phase("bwd", [0.5])
        assert cluster.machines[0].compute_seconds == 2.0

    def test_negative_compute_rejected(self):
        cluster = Cluster(1)
        with pytest.raises(ValueError):
            cluster.run_compute_phase("fwd", [-1.0])
        assert cluster.machines[0].compute_seconds == 0.0
