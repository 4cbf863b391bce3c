"""Metrics bound once and emitted by label value (``obs.Bound``)."""

import numpy as np
import pytest

from repro.cluster import Cluster, Timeline
from repro.obs import api as obs


@pytest.fixture
def metrics():
    obs.configure("metrics")
    obs.reset()
    yield obs.get_registry()
    obs.configure("off")
    obs.reset()


def test_bound_resolves_once_per_label_value(metrics):
    bound = obs.Bound("cluster.machine_busy_seconds", "machine")
    assert bound[3] is bound[3]
    assert bound[3] is metrics.counter(
        "cluster.machine_busy_seconds", machine=3
    )


def test_bound_rebinds_after_the_registry_is_cleared(metrics):
    bound = obs.Bound("cluster.phase_seconds", "phase")
    before = bound["fwd"]
    obs.reset()
    after = bound["fwd"]
    assert after is not before
    assert after is metrics.timer("cluster.phase_seconds", phase="fwd")


def test_reset_between_two_phases_lands_in_the_fresh_registry(metrics):
    """A run's second phase, after ``obs.reset()``, is all the fresh
    registry holds: nothing is added to instruments the reset dropped."""
    cluster = Cluster(2)
    cluster.run_comm_phase("sync", np.array([5.0, 0.0]), np.array([0.0, 5.0]))
    obs.reset()
    cluster.run_comm_phase("sync", np.array([0.0, 3.0]), np.array([3.0, 0.0]))
    registry = obs.get_registry()
    timer = registry.timer("cluster.phase_seconds", phase="sync")
    assert timer.count == 1
    assert timer.total == cluster.timeline.records[1].duration
    busy = [
        registry.counter("cluster.machine_busy_seconds", machine=m).value
        for m in range(2)
    ]
    assert busy == cluster.timeline.records[1].per_machine_seconds.tolist()
    assert registry.counter("cluster.bytes_sent", machine=1).value == 3.0
    assert registry.counter("cluster.bytes_received", machine=0).value == 3.0
    names = {(e["name"], tuple(e["labels"].items())) for e in obs.snapshot()}
    assert ("cluster.bytes_sent", (("machine", "0"),)) not in names


def test_timelines_of_different_widths_share_the_bound_counters(metrics):
    Timeline().add_phase("fwd", np.array([1.0, 2.0, 3.0]))
    Timeline().add_phase("fwd", np.array([4.0]))
    registry = obs.get_registry()
    assert [
        registry.counter("cluster.machine_busy_seconds", machine=m).value
        for m in range(3)
    ] == [5.0, 2.0, 3.0]
    assert registry.timer("cluster.phase_seconds", phase="fwd").count == 2
