"""Fault injection and checkpoint/restart recovery in the DistGNN engine."""

import numpy as np
import pytest

from repro.cluster import FaultEvent, FaultPlan, RecoveryPolicy
from repro.distgnn import DistGnnEngine
from repro.partitioning import RandomEdgePartitioner


def make_engine(graph, k=4, seed=0):
    partition = RandomEdgePartitioner().partition(graph, k, seed=seed)
    return DistGnnEngine(partition, feature_size=16, hidden_dim=16,
                         num_layers=2)


def crash_plan(epoch, machine=1):
    return FaultPlan((FaultEvent("crash", epoch=epoch, machine=machine),))


def test_no_faults_matches_plain_training(tiny_or):
    plain = make_engine(tiny_or)
    faulty = make_engine(tiny_or)
    a = plain.simulate_training(3)
    b = faulty.simulate_training(3, fault_plan=FaultPlan(),
                                 recovery=RecoveryPolicy())
    assert [x.epoch_seconds for x in a] == [x.epoch_seconds for x in b]
    assert (
        faulty.cluster.timeline.total_seconds
        == plain.cluster.timeline.total_seconds
    )


def test_crash_replays_exactly_epoch_mod_checkpoint(tiny_or):
    """A crash at epoch e with checkpoint interval c re-executes exactly
    e mod c epochs (the work since the last checkpoint) plus a restore."""
    epoch, interval = 5, 3
    engine = make_engine(tiny_or)
    recovery = RecoveryPolicy(checkpoint_every=interval)
    engine.simulate_training(7, fault_plan=crash_plan(epoch),
                             recovery=recovery)
    assert engine.fault_summary.crashes == 1
    assert engine.fault_summary.reexecuted_epochs == epoch % interval

    # The replayed epochs cost exactly what the originals did.
    baseline = make_engine(tiny_or)
    epoch_seconds = baseline.simulate_epoch().epoch_seconds
    totals = engine.cluster.timeline.phase_totals()
    replay_seconds = sum(
        v for name, v in totals.items() if name.startswith("replay:")
    )
    assert replay_seconds == pytest.approx(
        (epoch % interval) * epoch_seconds
    )
    # Detection stall + checkpoint restore are charged too.
    assert totals["fault-detect"] == pytest.approx(
        recovery.detection_timeout_seconds
    )
    assert totals["fault-restore"] > 0


def test_crash_at_checkpoint_boundary_replays_nothing(tiny_or):
    engine = make_engine(tiny_or)
    engine.simulate_training(
        8, fault_plan=crash_plan(6),
        recovery=RecoveryPolicy(checkpoint_every=3),
    )
    assert engine.fault_summary.crashes == 1
    assert engine.fault_summary.reexecuted_epochs == 0


def test_checkpoint_cadence(tiny_or):
    engine = make_engine(tiny_or)
    engine.simulate_training(
        7, fault_plan=FaultPlan(), recovery=RecoveryPolicy(checkpoint_every=2)
    )
    # Checkpoints after epochs 2, 4 and 6 (none after the final epoch).
    assert engine.fault_summary.checkpoints == 3
    assert engine.cluster.timeline.checkpoint_seconds() > 0


def test_total_time_decomposes(tiny_or):
    engine = make_engine(tiny_or)
    recovery = RecoveryPolicy(checkpoint_every=3)
    engine.simulate_training(7, fault_plan=crash_plan(5), recovery=recovery)
    timeline = engine.cluster.timeline

    baseline = make_engine(tiny_or)
    base_total = sum(
        b.epoch_seconds for b in baseline.simulate_training(7)
    )
    assert timeline.total_seconds == pytest.approx(
        base_total
        + timeline.recovery_seconds()
        + timeline.checkpoint_seconds()
    )


def test_slowdown_stretches_epoch(tiny_or):
    slow = make_engine(tiny_or)
    plan = FaultPlan(
        (FaultEvent("slowdown", epoch=1, machine=0, magnitude=8.0),)
    )
    reports = slow.simulate_training(3, fault_plan=plan,
                                     recovery=RecoveryPolicy())
    assert slow.fault_summary.slowdowns == 1
    assert reports[1].epoch_seconds > reports[0].epoch_seconds
    assert reports[0].epoch_seconds == reports[2].epoch_seconds


def test_lost_message_charges_retransmit(tiny_or):
    engine = make_engine(tiny_or)
    plan = FaultPlan(
        (FaultEvent("lost-message", epoch=0, machine=2),)
    )
    engine.simulate_training(2, fault_plan=plan, recovery=RecoveryPolicy())
    assert engine.fault_summary.lost_messages == 1
    assert engine.cluster.fabric.lost_messages[2] == 1
    totals = engine.cluster.timeline.phase_totals()
    assert totals["fault-retransmit"] > 0


def test_machine_counters(tiny_or):
    engine = make_engine(tiny_or)
    engine.simulate_training(4, fault_plan=crash_plan(2, machine=3),
                             recovery=RecoveryPolicy(checkpoint_every=2))
    timeline = engine.cluster.timeline
    crashed = [m.machine for m in timeline.marks if m.name.startswith("crash")]
    assert crashed == [3]
    # Only the crashed machine reloads its partition on restart.
    (restore,) = [r for r in timeline.records if r.name == "fault-restore"]
    seconds = restore.per_machine_seconds
    assert seconds[3] > seconds[0] == seconds[1] == seconds[2]


def test_faulty_run_is_deterministic(tiny_or):
    plan = FaultPlan.generate(4, 6, crash_rate=0.2, slowdown_rate=0.2,
                              loss_rate=0.2, seed=9)
    recovery = RecoveryPolicy(checkpoint_every=2)
    runs = []
    for _ in range(2):
        engine = make_engine(tiny_or)
        engine.simulate_training(6, fault_plan=plan, recovery=recovery)
        timeline = engine.cluster.timeline
        runs.append(
            (
                [(r.name, r.per_machine_seconds.tolist(), r.interrupted)
                 for r in timeline.records],
                [(m.name, m.kind, m.at_seconds, m.machine)
                 for m in timeline.marks],
            )
        )
    assert runs[0] == runs[1]


def test_marks_recorded_for_crash(tiny_or):
    engine = make_engine(tiny_or)
    engine.simulate_training(4, fault_plan=crash_plan(2),
                             recovery=RecoveryPolicy(checkpoint_every=2))
    kinds = {m.kind for m in engine.cluster.timeline.marks}
    assert "fault" in kinds
    assert "recovery" in kinds
