"""Critical-path attribution: the compute/skew decomposition must be
exact under barrier semantics, and stragglers must be charged to the
machine that actually bound each barrier."""

import numpy as np
import pytest

from repro.cluster import Timeline
from repro.obs.analysis import attribute_phase_totals, attribute_timeline


def test_duration_decomposes_into_compute_plus_skew():
    timeline = Timeline()
    timeline.add_phases(["fwd"], np.array([[1.0, 3.0]]))  # mean 2, max 3
    result = attribute_timeline(timeline)
    assert result.total_seconds == pytest.approx(3.0)
    assert result.compute_seconds == pytest.approx(2.0)
    assert result.skew_seconds == pytest.approx(1.0)
    assert result.skew_fraction == pytest.approx(1.0 / 3.0)
    phase = result.phases[0]
    assert phase.imbalance == pytest.approx(1.5)


def test_balanced_phase_has_zero_skew():
    timeline = Timeline()
    timeline.add_phases(["fwd"], np.array([[2.0, 2.0, 2.0]]))
    result = attribute_timeline(timeline)
    assert result.skew_seconds == pytest.approx(0.0)
    assert result.phases[0].imbalance == pytest.approx(1.0)


def test_phases_sorted_by_contribution_then_name():
    timeline = Timeline()
    timeline.add_phases(["small"], np.array([[1.0]]))
    timeline.add_phases(["big"], np.array([[5.0]]))
    timeline.add_phases(["aaa"], np.array([[1.0]]))  # ties with "small"
    result = attribute_timeline(timeline)
    assert [p.name for p in result.phases] == ["big", "aaa", "small"]


def test_straggler_counting_and_severity():
    timeline = Timeline()
    # Machine 1 binds both barriers, 50% slower than the pack mean.
    timeline.add_phases(["fwd"], np.array([[1.0, 2.0, 1.5]]))  # mean 1.5
    timeline.add_phases(["bwd"], np.array([[2.0, 4.0, 3.0]]))  # mean 3.0
    result = attribute_timeline(timeline)
    straggler = result.machines[1]
    assert straggler.straggler_count == 2
    assert straggler.straggler_fraction == pytest.approx(1.0)
    assert straggler.straggler_severity == pytest.approx(1.0 / 3.0)
    assert result.machines[0].straggler_count == 0


def test_straggler_tie_goes_to_lowest_index():
    timeline = Timeline()
    timeline.add_phases(["fwd"], np.array([[2.0, 2.0]]))
    result = attribute_timeline(timeline)
    assert result.machines[0].straggler_count == 1
    assert result.machines[1].straggler_count == 0


def test_recovery_and_checkpoint_shares():
    timeline = Timeline()
    timeline.add_phases(["forward"], np.array([[4.0]]))
    timeline.add_phases(["fault-detect"], np.array([[0.5]]))
    timeline.add_phases(["replay:forward"], np.array([[1.0]]))
    timeline.add_phases(["checkpoint"], np.array([[0.5]]))
    result = attribute_timeline(timeline)
    assert result.recovery_seconds == pytest.approx(1.5)
    assert result.checkpoint_seconds == pytest.approx(0.5)
    assert result.recovery_fraction == pytest.approx(1.5 / 6.0)
    by_name = {p.name: p for p in result.phases}
    assert by_name["fault-detect"].to_dict()["recovery"] is True
    assert by_name["checkpoint"].to_dict()["recovery"] is False


def test_empty_timeline_attribution():
    result = attribute_timeline(Timeline())
    assert result.total_seconds == 0.0
    assert result.phases == []
    assert result.machines == []
    assert result.skew_fraction == 0.0


def test_interrupted_occurrences_tracked():
    timeline = Timeline()
    timeline.add_phases(["fwd"], np.array([[1.0]]), interrupted=True)
    timeline.add_phases(["fwd"], np.array([[1.0]]))
    result = attribute_timeline(timeline)
    assert result.phases[0].interrupted_occurrences == 1


def test_attribute_phase_totals_fractions_and_recovery():
    result = attribute_phase_totals(
        {"forward": 3.0, "fault-detect": 1.0, "checkpoint": 1.0}
    )
    assert result["total_seconds"] == pytest.approx(5.0)
    assert result["recovery_seconds"] == pytest.approx(1.0)
    assert result["recovery_fraction"] == pytest.approx(0.2)
    assert result["checkpoint_seconds"] == pytest.approx(1.0)
    assert [p["name"] for p in result["phases"]] == [
        "forward", "checkpoint", "fault-detect",
    ]


def test_attribute_phase_totals_empty():
    result = attribute_phase_totals({})
    assert result["total_seconds"] == 0.0
    assert result["phases"] == []
