"""Tests for the BSP timeline."""

import numpy as np
import pytest

from repro.cluster import Timeline


def test_phase_duration_is_straggler():
    timeline = Timeline()
    duration = timeline.add_phase("fwd", np.array([1.0, 3.0, 2.0]))
    assert duration == 3.0
    assert timeline.total_seconds == 3.0


def test_phase_totals_accumulate_by_name():
    timeline = Timeline()
    timeline.add_phase("fwd", np.array([1.0, 2.0]))
    timeline.add_phase("fwd", np.array([2.0, 1.0]))
    timeline.add_phase("bwd", np.array([5.0, 0.0]))
    totals = timeline.phase_totals()
    assert totals == {"fwd": 4.0, "bwd": 5.0}


def test_per_machine_totals():
    timeline = Timeline()
    timeline.add_phase("a", np.array([1.0, 2.0]))
    timeline.add_phase("b", np.array([3.0, 1.0]))
    assert timeline.per_machine_totals().tolist() == [4.0, 3.0]


def test_empty_timeline():
    timeline = Timeline()
    assert timeline.total_seconds == 0.0
    assert timeline.per_machine_totals().size == 0


def test_negative_times_rejected():
    with pytest.raises(ValueError):
        Timeline().add_phase("x", np.array([-1.0]))


def test_empty_phase_rejected():
    """An empty per-machine vector used to crash later in .duration
    (max of an empty array); it is now rejected up front."""
    with pytest.raises(ValueError, match="empty"):
        Timeline().add_phase("fwd", np.array([]))


def test_non_1d_phase_rejected():
    with pytest.raises(ValueError, match="1-D"):
        Timeline().add_phase("fwd", np.ones((2, 2)))


def test_phase_record_defensively_copies():
    """Mutating the caller's array after add_phase must not change the
    recorded durations."""
    timeline = Timeline()
    seconds = np.array([1.0, 2.0])
    timeline.add_phase("fwd", seconds)
    seconds[1] = 100.0
    assert timeline.total_seconds == 2.0


def test_phase_record_array_read_only():
    timeline = Timeline()
    timeline.add_phase("fwd", np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        timeline.records[0].per_machine_seconds[0] = 9.0


def test_interrupted_flag_and_query():
    timeline = Timeline()
    timeline.add_phase("fwd", np.array([1.0]))
    timeline.add_phase("fault-detect", np.array([0.5]), interrupted=True)
    assert [r.name for r in timeline.interrupted_records()] == [
        "fault-detect"
    ]


def test_marks_stamped_at_current_total():
    timeline = Timeline()
    timeline.add_phase("fwd", np.array([1.0, 3.0]))
    mark = timeline.add_mark("crash", kind="fault", machine=1)
    assert mark.at_seconds == 3.0
    assert timeline.marks == [mark]


def test_recovery_and_checkpoint_zero_without_marks_or_phases():
    """A timeline with only normal work (and no marks) charges nothing
    to recovery or checkpointing."""
    timeline = Timeline()
    timeline.add_phase("forward", np.array([1.0, 2.0]))
    timeline.add_phase("backward", np.array([2.0, 1.0]))
    assert timeline.recovery_seconds() == 0.0
    assert timeline.checkpoint_seconds() == 0.0
    assert timeline.marks == []


def test_recovery_on_empty_timeline():
    timeline = Timeline()
    assert timeline.recovery_seconds() == 0.0
    assert timeline.checkpoint_seconds() == 0.0


def test_all_interrupted_phases_still_count_normal_time():
    """Interruption flags a phase; it does not reclassify its seconds
    as recovery — only fault-*/replay:* phases are recovery."""
    timeline = Timeline()
    timeline.add_phase("forward", np.array([1.0]), interrupted=True)
    timeline.add_phase("backward", np.array([2.0]), interrupted=True)
    assert len(timeline.interrupted_records()) == 2
    assert timeline.recovery_seconds() == 0.0
    assert timeline.total_seconds == pytest.approx(3.0)


def test_marks_beyond_last_phase():
    """Marks stamped after the final phase sit exactly at the makespan
    and never extend it."""
    timeline = Timeline()
    timeline.add_phase("forward", np.array([1.0, 4.0]))
    first = timeline.add_mark("crash", kind="fault", machine=0)
    second = timeline.add_mark("checkpoint", kind="checkpoint")
    assert first.at_seconds == pytest.approx(4.0)
    assert second.at_seconds == pytest.approx(4.0)
    assert timeline.total_seconds == pytest.approx(4.0)
    # Marks alone add no recovery/checkpoint seconds: those are charged
    # by phases, marks only annotate instants.
    assert timeline.recovery_seconds() == 0.0
    assert timeline.checkpoint_seconds() == 0.0


def test_recovery_and_checkpoint_seconds():
    timeline = Timeline()
    timeline.add_phase("forward", np.array([2.0]))
    timeline.add_phase("fault-detect", np.array([0.25]))
    timeline.add_phase("fault-restore", np.array([0.75]))
    timeline.add_phase("replay:forward", np.array([2.0]))
    timeline.add_phase("checkpoint", np.array([0.5]))
    assert timeline.recovery_seconds() == pytest.approx(3.0)
    assert timeline.checkpoint_seconds() == pytest.approx(0.5)
    # Normal work is counted by neither.
    assert timeline.total_seconds == pytest.approx(5.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
def test_non_finite_or_negative_times_rejected(bad):
    """``seconds.min() < 0`` is False for NaN: a NaN phase time used to be
    recorded, and made ``total_seconds`` NaN."""
    timeline = Timeline(2)
    with pytest.raises(ValueError, match="finite and non-negative"):
        timeline.add_phase("x", np.array([1.0, bad]))
    with pytest.raises(ValueError, match="finite and non-negative"):
        timeline.add_phases(["a", "b"], np.array([[1.0, 2.0], [bad, 0.0]]))
    assert timeline.records == [] and timeline.total_seconds == 0


def test_add_phases_equals_add_phase_per_row():
    rng = np.random.default_rng(3)
    block = rng.random((37, 3))
    names = [f"p{i % 4}" for i in range(37)]
    bulk, single = Timeline(), Timeline()
    bulk.add_phase("first", np.ones(3))
    single.add_phase("first", np.ones(3))
    durations = bulk.add_phases(names, block)
    assert durations == [single.add_phase(n, row) for n, row in zip(names, block)]
    assert bulk.add_phases([], np.zeros((0, 3))) == []
    assert [(r.name, r.per_machine_seconds.tolist()) for r in bulk.records] == [
        (r.name, r.per_machine_seconds.tolist()) for r in single.records
    ]
    assert bulk.total_seconds == single.total_seconds
    assert bulk.phase_totals() == single.phase_totals()
    assert np.array_equal(bulk.per_machine_totals(), single.per_machine_totals())


def test_add_phases_rejects_a_block_of_the_wrong_shape():
    timeline = Timeline(2)
    for names, block in (
        (["a"], np.ones((2, 2))), (["a", "b"], np.ones(2)),
        (["a"], np.ones((1, 3))),
    ):
        with pytest.raises(ValueError, match="1-D"):
            timeline.add_phases(names, block)
    assert timeline.records == []
