"""Tests for the fault-injection plan and recovery policy."""

import json
import math
import pickle

import pytest

from repro.cluster import (
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    FaultSummary,
    RecoveryPolicy,
)
from repro.experiments import FaultConfig
from repro.serve import SweepJobSpec

NON_FINITE = [math.nan, math.inf]


class TestFaultEvent:
    def test_valid_kinds(self):
        for kind in FAULT_KINDS:
            event = FaultEvent(kind, epoch=0, machine=0)
            assert event.kind == kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent("meteor", epoch=0, machine=0)

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent("crash", epoch=-1, machine=0)

    def test_negative_machine_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent("crash", epoch=0, machine=-2)

    def test_nonpositive_magnitude_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent("slowdown", epoch=0, machine=0, magnitude=0.0)

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_magnitude_rejected(self, kind, bad):
        with pytest.raises(ValueError, match="finite"):
            FaultEvent(kind, epoch=0, machine=0, magnitude=bad)


class TestFaultPlan:
    def test_events_sorted_by_epoch(self):
        plan = FaultPlan(
            (
                FaultEvent("crash", epoch=3, machine=0),
                FaultEvent("slowdown", epoch=1, machine=1),
            )
        )
        assert [e.epoch for e in plan.events] == [1, 3]

    def test_queries_by_epoch(self):
        plan = FaultPlan(
            (
                FaultEvent("crash", epoch=2, machine=0),
                FaultEvent("slowdown", epoch=2, machine=1),
                FaultEvent("lost-message", epoch=5, machine=0),
            )
        )
        assert len(plan.crashes_at(2)) == 1
        assert len(plan.slowdowns_at(2)) == 1
        assert plan.losses_at(2) == ()
        assert len(plan.losses_at(5)) == 1
        assert plan.events_at(4) == ()

    def test_bool_and_len(self):
        assert not FaultPlan()
        assert len(FaultPlan()) == 0
        plan = FaultPlan((FaultEvent("crash", epoch=0, machine=0),))
        assert plan
        assert len(plan) == 1

    def test_generate_deterministic(self):
        a = FaultPlan.generate(8, 10, crash_rate=0.1, slowdown_rate=0.2,
                               loss_rate=0.1, seed=42)
        b = FaultPlan.generate(8, 10, crash_rate=0.1, slowdown_rate=0.2,
                               loss_rate=0.1, seed=42)
        assert a == b

    def test_generate_seed_sensitive(self):
        a = FaultPlan.generate(8, 50, crash_rate=0.3, seed=0)
        b = FaultPlan.generate(8, 50, crash_rate=0.3, seed=1)
        assert a != b

    def test_generate_zero_rates_empty(self):
        assert not FaultPlan.generate(8, 10, seed=0)

    def test_generate_rate_one_hits_everything(self):
        plan = FaultPlan.generate(3, 4, crash_rate=1.0, seed=0)
        assert len(plan) == 3 * 4
        assert all(e.kind == "crash" for e in plan.events)

    def test_generate_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.generate(2, 2, crash_rate=1.5)

    @pytest.mark.parametrize("bad", NON_FINITE + [0.5])
    def test_generate_bad_slowdown_factor_rejected(self, bad):
        with pytest.raises(ValueError, match="slowdown_factor"):
            FaultPlan.generate(2, 2, slowdown_rate=1.0, slowdown_factor=bad)

    def test_plan_pickles(self):
        plan = FaultPlan.generate(4, 6, crash_rate=0.5, slowdown_rate=0.5,
                                  seed=3)
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestRecoveryPolicy:
    def test_defaults_valid(self):
        policy = RecoveryPolicy()
        assert policy.checkpoint_every >= 1

    def test_backoff_is_geometric_sum(self):
        policy = RecoveryPolicy(max_retries=3, backoff_base_seconds=1.0,
                                backoff_factor=2.0)
        assert policy.backoff_seconds() == pytest.approx(1.0 + 2.0 + 4.0)

    def test_invalid_checkpoint_interval(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(checkpoint_every=0)

    def test_invalid_backoff_factor(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(backoff_factor=0.5)

    @pytest.mark.parametrize("field", [
        "detection_timeout_seconds", "backoff_base_seconds",
        "backoff_factor",
    ])
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_settings_rejected(self, field, bad):
        """``nan < 0`` is False: NaN and inf used to pass construction
        and fail mid-run ("phase times must be finite")."""
        with pytest.raises(ValueError, match=field):
            RecoveryPolicy(**{field: bad})
        with pytest.raises(ValueError, match=field):
            FaultConfig(**{field: bad})


@pytest.mark.parametrize("field", [
    "detection_timeout_seconds", "backoff_factor", "slowdown_factor",
])
def test_served_spec_with_non_finite_fault_setting_is_refused(field):
    """``json.loads`` accepts ``NaN``: a served job carrying one is
    refused at admission, not after partitioning."""
    text = (
        '{"engine": "distgnn", "graph": "OR", "partitioners": ["hdrf"],'
        ' "machines": [2], "fault": {"crash_rate": 0.5, "%s": NaN}}' % field
    )
    with pytest.raises(ValueError, match=field):
        SweepJobSpec.from_dict(json.loads(text))


def test_summary_total():
    summary = FaultSummary(crashes=2, slowdowns=1, lost_messages=3)
    assert summary.total_faults == 6
