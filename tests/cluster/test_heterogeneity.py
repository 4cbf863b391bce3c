"""Failure/straggler injection via heterogeneous machine speeds."""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.distgnn import DistGnnEngine
from repro.partitioning import HdrfPartitioner


def forward_seconds(partition, speeds=None):
    """Per-machine seconds of one epoch's first forward phase."""
    engine = DistGnnEngine(partition, 64, 64, 2, machine_speeds=speeds)
    engine.simulate_epoch()
    return engine.cluster.timeline.records[0].per_machine_seconds


def test_slow_machine_stretches_phase(tiny_or):
    partition = HdrfPartitioner().partition(tiny_or, 4, seed=0)
    nominal = forward_seconds(partition)
    slow = forward_seconds(partition, np.array([1.0, 1.0, 0.5, 1.0]))
    assert slow[2] == pytest.approx(2.0 * nominal[2])  # half speed
    assert np.array_equal(slow[[0, 1, 3]], nominal[[0, 1, 3]])


def test_uniform_speeds_are_default(tiny_or):
    partition = HdrfPartitioner().partition(tiny_or, 3, seed=0)
    assert np.array_equal(
        forward_seconds(partition), forward_seconds(partition, np.ones(3))
    )


def test_invalid_speeds_rejected():
    with pytest.raises(ValueError):
        Cluster(2, machine_speeds=np.array([1.0]))
    with pytest.raises(ValueError):
        Cluster(2, machine_speeds=np.array([1.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_speeds_rejected(bad):
    """A NaN speed used to construct and fail only at the first phase
    ("phase times must be finite"); +inf priced that machine's compute
    at 0 s."""
    with pytest.raises(ValueError, match="positive and finite"):
        Cluster(4, machine_speeds=[1.0, bad, 1.0, 1.0])


def test_straggler_injection_slows_training(tiny_or):
    """A degraded machine hurts the barrier-synchronised epoch even when
    the partitioning itself is balanced."""
    partition = HdrfPartitioner().partition(tiny_or, 4, seed=0)
    healthy = DistGnnEngine(partition, 64, 64, 2)
    degraded = DistGnnEngine(
        partition, 64, 64, 2,
        machine_speeds=np.array([1.0, 1.0, 1.0, 0.25]),
    )
    assert (
        degraded.simulate_epoch().epoch_seconds
        > healthy.simulate_epoch().epoch_seconds
    )


def test_straggler_only_affects_compute(tiny_or):
    """Communication phases are network-bound, not CPU-bound."""
    partition = HdrfPartitioner().partition(tiny_or, 4, seed=0)
    healthy = DistGnnEngine(partition, 64, 64, 2)
    degraded = DistGnnEngine(
        partition, 64, 64, 2,
        machine_speeds=np.array([1.0, 1.0, 1.0, 0.25]),
    )
    healthy.simulate_epoch()
    degraded.simulate_epoch()
    h_phases = healthy.cluster.timeline.phase_totals()
    d_phases = degraded.cluster.timeline.phase_totals()
    assert d_phases["forward-l0"] > h_phases["forward-l0"]
    assert d_phases["forward-sync-l0"] == pytest.approx(
        h_phases["forward-sync-l0"]
    )
