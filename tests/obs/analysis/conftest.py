"""Fixtures for analysis tests: metric snapshots.

The record factories (``make_record``, ``make_dgl_record``) live in
``tests/obs/conftest.py``.
"""

from __future__ import annotations

import pytest


def snapshot_entry(name, kind="counter", value=0.0, unit="count",
                   labels=None, **extra):
    entry = {
        "name": name, "kind": kind, "unit": unit,
        "labels": labels or {}, "value": value,
    }
    entry.update(extra)
    return entry


@pytest.fixture
def machine_snapshot():
    """Four-machine snapshot with machine 3 visibly overloaded."""
    entries = []
    for machine, busy in enumerate((1.0, 1.1, 0.9, 2.5)):
        entries.append(
            snapshot_entry(
                "cluster.machine_busy_seconds", kind="gauge",
                value=busy, unit="seconds",
                labels={"machine": machine},
            )
        )
    return entries
