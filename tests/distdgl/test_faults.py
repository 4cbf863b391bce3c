"""Fault injection and retry/degradation recovery in the DistDGL engine."""

import numpy as np
import pytest

from repro.cluster import FaultEvent, FaultPlan, RecoveryPolicy
from repro.distdgl import DistDglEngine
from repro.graph import load_dataset, random_split
from repro.partitioning import RandomVertexPartitioner


@pytest.fixture(scope="module")
def graph():
    return load_dataset("OR", "tiny")


@pytest.fixture(scope="module")
def split(graph):
    return random_split(graph, seed=7)


def make_engine(graph, split, k=4):
    partition = RandomVertexPartitioner().partition(graph, k, seed=0)
    return DistDglEngine(
        partition, split, feature_size=16, hidden_dim=16, num_layers=2,
        global_batch_size=64, seed=0,
    )


def crash_plan(epoch=0, machine=1, step=0):
    return FaultPlan(
        (FaultEvent("crash", epoch=epoch, machine=machine, step=step),)
    )


def test_no_faults_matches_plain_training(graph, split):
    plain = make_engine(graph, split)
    faulty = make_engine(graph, split)
    a = plain.run_training(2)
    b = faulty.run_training(2, fault_plan=FaultPlan(),
                            recovery=RecoveryPolicy())
    assert [r.epoch_seconds for r in a] == [r.epoch_seconds for r in b]


def test_crash_degrades_to_survivors(graph, split):
    engine = make_engine(graph, split)
    engine.run_training(1, fault_plan=crash_plan(), recovery=RecoveryPolicy())
    summary = engine.fault_summary
    assert summary.crashes == 1
    assert summary.retries == RecoveryPolicy().max_retries
    # Every step from the crash step on runs without the dead worker.
    assert summary.degraded_steps >= 1
    totals = engine.cluster.timeline.phase_totals()
    assert totals["fault-detect"] > 0
    assert totals["fault-backoff"] == pytest.approx(
        RecoveryPolicy().backoff_seconds()
    )


def test_dead_worker_restarts_next_epoch(graph, split):
    engine = make_engine(graph, split)
    engine.run_training(2, fault_plan=crash_plan(epoch=0),
                        recovery=RecoveryPolicy())
    marks = engine.cluster.timeline.marks
    assert [(m.name, m.machine) for m in marks] == [
        ("crash:worker-1", 1), ("restart:worker-1", 1),
    ]
    totals = engine.cluster.timeline.phase_totals()
    assert totals["fault-restart"] > 0
    # After the restart the worker is active again.
    assert not engine._dead_workers


def test_last_survivor_is_never_killed(graph, split):
    engine = make_engine(graph, split, k=2)
    plan = FaultPlan(
        (
            FaultEvent("crash", epoch=0, machine=0),
            FaultEvent("crash", epoch=0, machine=1),
        )
    )
    engine.run_training(1, fault_plan=plan, recovery=RecoveryPolicy())
    assert engine.fault_summary.crashes == 1  # second crash is skipped


def test_slowdown_stretches_epoch(graph, split):
    plain = make_engine(graph, split)
    base = plain.run_training(1)[0].epoch_seconds
    slow = make_engine(graph, split)
    plan = FaultPlan(
        (FaultEvent("slowdown", epoch=0, machine=0, magnitude=8.0),)
    )
    stretched = slow.run_training(
        1, fault_plan=plan, recovery=RecoveryPolicy()
    )[0].epoch_seconds
    assert slow.fault_summary.slowdowns == 1
    assert stretched > base


def test_lost_message_charges_retransmit(graph, split):
    plain = make_engine(graph, split)
    base = plain.run_training(1)[0].epoch_seconds
    engine = make_engine(graph, split)
    plan = FaultPlan(
        (FaultEvent("lost-message", epoch=0, machine=2, step=0),)
    )
    reports = engine.run_training(1, fault_plan=plan,
                                  recovery=RecoveryPolicy())
    assert engine.fault_summary.lost_messages == 1
    assert engine.cluster.fabric.lost_messages[2] == 1
    assert reports[0].epoch_seconds > base


def test_recovery_seconds_accounted(graph, split):
    engine = make_engine(graph, split)
    engine.run_training(2, fault_plan=crash_plan(epoch=0),
                        recovery=RecoveryPolicy())
    timeline = engine.cluster.timeline
    assert timeline.recovery_seconds() > 0
    assert any(record.interrupted for record in timeline.records)
    assert timeline.recovery_seconds() < timeline.total_seconds


def test_faulty_run_is_deterministic(graph, split):
    plan = FaultPlan.generate(4, 3, crash_rate=0.2, slowdown_rate=0.2,
                              loss_rate=0.2, seed=11)
    runs = []
    for _ in range(2):
        engine = make_engine(graph, split)
        engine.run_training(3, fault_plan=plan, recovery=RecoveryPolicy())
        timeline = engine.cluster.timeline
        runs.append(
            (
                [(r.name, r.per_machine_seconds.tolist(), r.interrupted)
                 for r in timeline.records],
                [(m.name, m.kind, m.at_seconds, m.machine)
                 for m in timeline.marks],
                engine.fault_summary,
            )
        )
    assert runs[0] == runs[1]
