"""Tests for the network fabric."""

import numpy as np
import pytest

from repro.cluster import NetworkFabric
from repro.costmodel import CostModel


def make_fabric(k=4):
    return NetworkFabric(k, CostModel())


def test_point_to_point_accounting():
    fabric = make_fabric()
    matrix = np.zeros((4, 4))
    matrix[0, 1], matrix[0, 2] = 1000.0, 500.0
    fabric.transfer_bulk(matrix.sum(axis=1)[None], matrix.sum(axis=0)[None])
    fabric.record_matrices(["sync"], matrix[None])
    assert fabric.sent[0] == 1500
    assert fabric.received[1] == 1000
    assert fabric.sent.sum() == fabric.traffic_matrix().sum() == 1500


def test_bulk_transfer():
    fabric = make_fabric()
    fabric.transfer_bulk(
        np.array([[10.0, 0, 0, 0], [1.0, 0, 0, 0]]),
        np.array([[0, 10.0, 0, 0], [0, 0, 1.0, 0]]),
    )
    assert fabric.sent[0] == 11
    assert fabric.received[1] == 10
    assert fabric.received[2] == 1


class TestTrafficMatrix:
    def test_record_accumulates_per_phase(self):
        fabric = make_fabric(2)
        fabric.record_matrices(
            ["sync", "sync"],
            [[[0.0, 10.0], [5.0, 0.0]], [[0.0, 1.0], [2.0, 0.0]]],
        )
        fabric.record_matrices(["sync"], [[[0.0, 0.5], [0.0, 0.0]]])
        assert np.array_equal(
            fabric.traffic_matrix("sync"),
            np.array([[0.0, 11.5], [7.0, 0.0]]),
        )

    def test_all_phases_summed_by_default(self):
        fabric = make_fabric(2)
        fabric.record_matrices(
            ["a", "b"], [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]
        )
        assert np.array_equal(
            fabric.traffic_matrix(),
            np.array([[0.0, 1.0], [2.0, 0.0]]),
        )
        assert list(fabric.traffic_matrix_phases()) == ["a", "b"]

    def test_unknown_phase_is_zero_matrix(self):
        fabric = make_fabric(3)
        assert np.array_equal(
            fabric.traffic_matrix("never"), np.zeros((3, 3))
        )

    def test_wrong_shape_rejected(self):
        fabric = make_fabric(4)
        with pytest.raises(ValueError):
            fabric.record_matrices(["sync"], np.zeros((1, 2, 2)))
        with pytest.raises(ValueError):
            fabric.record_matrices(["sync", "a"], np.zeros((1, 4, 4)))
        assert fabric.traffic_matrix_phases() == {}

    def test_returned_matrices_are_copies(self):
        fabric = make_fabric(2)
        matrices = np.array([[[0.0, 1.0], [0.0, 0.0]]])
        fabric.record_matrices(["a"], matrices)
        matrices[0, 0, 1] = 999.0
        fabric.traffic_matrix("a")[0, 1] = 999.0
        fabric.traffic_matrix_phases()["a"][0, 1] = 999.0
        assert fabric.traffic_matrix("a")[0, 1] == 1.0


def test_lost_messages_counted_but_byte_free():
    """The lost-message ledger convention: drops are pure counts — the
    payload bytes appear on neither the sent nor the received side."""
    fabric = make_fabric(2)
    fabric.transfer_bulk(np.array([[1000.0, 0.0]]), np.array([[0.0, 1000.0]]))
    before = (fabric.sent.copy(), fabric.received.copy())
    fabric.record_lost_message(1)
    fabric.record_lost_message(1)
    assert fabric.lost_messages[1] == 2
    assert np.array_equal(fabric.sent, before[0])
    assert np.array_equal(fabric.received, before[1])
