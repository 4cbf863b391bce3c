"""Fixtures for observability tests: isolate global obs state, and
build small sweep records.

The record factories build real sweep records from hand-picked values
(no simulation runs), so analysis and live-monitor tests stay
independent of the engines while seeing the records they read in
production.
"""

import pytest

from repro import obs
from repro.experiments import DistDglRecord, DistGnnRecord, TrainingParams


@pytest.fixture(autouse=True)
def clean_obs_state():
    """Every test starts and ends with observability off and empty."""
    obs.reset()
    obs.disable()
    yield
    obs.reset()
    obs.disable()


_COMMON = dict(
    graph="OR", partitioner="random", num_machines=4,
    params=TrainingParams(), epoch_seconds=1.0, network_bytes=1e6,
    partitioning_seconds=0.5,
)


def gnn_record(**kwargs) -> DistGnnRecord:
    """A DistGNN record; keyword arguments override the defaults."""
    return DistGnnRecord(**{
        **_COMMON,
        "forward_seconds": 0.4, "backward_seconds": 0.5,
        "sync_seconds": 0.1, "total_memory_bytes": 0.0,
        "memory_balance": 1.0, "replication_factor": 1.0,
        "edge_balance": 1.0, "vertex_balance": 1.0,
        **kwargs,
    })


def dgl_record(**kwargs) -> DistDglRecord:
    """A DistDGL record with a five-phase table."""
    return DistDglRecord(**{
        **_COMMON,
        "phase_seconds": {
            "sample": 0.2, "fetch": 0.3, "forward": 0.2,
            "backward": 0.2, "update": 0.1,
        },
        **kwargs,
    })


@pytest.fixture
def make_record():
    return gnn_record


@pytest.fixture
def make_dgl_record():
    return dgl_record
