"""Anomaly detectors: robust statistics, deterministic findings."""

import numpy as np
import pytest

from repro.obs.analysis import (
    detect_record_anomalies,
    detect_snapshot_anomalies,
    rolling_mad_zscores,
)
from .conftest import snapshot_entry


class TestRollingMadZscores:
    def test_constant_series_scores_zero(self):
        scores = rolling_mad_zscores([5.0] * 20)
        assert np.all(scores == 0.0)

    def test_spike_scores_high(self):
        values = [1.0] * 10 + [10.0]
        scores = rolling_mad_zscores(values)
        assert scores[-1] > 3.5
        assert np.all(scores[:-1] == 0.0)

    def test_warmup_points_score_zero(self):
        # Fewer than min_points priors -> no score, even for a spike.
        scores = rolling_mad_zscores([1.0, 1.0, 100.0], min_points=4)
        assert np.all(scores == 0.0)

    def test_level_shift_scores_on_arrival(self):
        """The scored point is excluded from its own window, so the
        first point after a level shift flags immediately."""
        values = [1.0] * 8 + [2.0] * 8
        scores = rolling_mad_zscores(values)
        assert scores[8] > 3.5

    def test_deterministic(self):
        values = list(np.linspace(1.0, 2.0, 30)) + [9.0]
        a = rolling_mad_zscores(values)
        b = rolling_mad_zscores(values)
        assert np.array_equal(a, b)


class TestRecordAnomalies:
    def test_epoch_time_outlier_across_partitioners(self, make_record):
        records = [
            make_record(partitioner=name, epoch_seconds=1.0)
            for name in ("a", "b", "c", "d", "e")
        ] + [make_record(partitioner="slow", epoch_seconds=50.0)]
        findings = detect_record_anomalies(records)
        outliers = [
            f for f in findings if f.kind == "epoch-time-outlier"
        ]
        assert len(outliers) == 1
        assert "slow" in outliers[0].subject

    def test_small_groups_not_scored(self, make_record):
        records = [
            make_record(partitioner="a", epoch_seconds=1.0),
            make_record(partitioner="b", epoch_seconds=100.0),
        ]
        assert detect_record_anomalies(records) == []

    def test_recovery_spike_per_cell(self, make_record):
        record = make_record(
            makespan_seconds=10.0, recovery_seconds=4.0
        )
        findings = detect_record_anomalies([record])
        spikes = [f for f in findings if f.kind == "recovery-spike"]
        assert len(spikes) == 1
        assert spikes[0].severity == "critical"
        assert spikes[0].value == pytest.approx(0.4)

    def test_phase_dominance_from_obs_metrics(self, make_record):
        record = make_record(
            obs_metrics={
                "phase_seconds": {"backward": 9.0, "forward": 1.0}
            }
        )
        findings = detect_record_anomalies([record])
        dominance = [
            f for f in findings if f.kind == "phase-dominance"
        ]
        assert len(dominance) == 1
        assert dominance[0].severity == "info"
        assert dominance[0].context["phase"] == "backward"

    def test_dominant_recovery_phase_not_flagged(self, make_record):
        record = make_record(
            obs_metrics={
                "phase_seconds": {"fault-restore": 9.0, "forward": 1.0}
            }
        )
        assert not any(
            f.kind == "phase-dominance"
            for f in detect_record_anomalies([record])
        )


class TestSnapshotAnomalies:
    def test_machine_imbalance_flagged(self, machine_snapshot):
        findings = detect_snapshot_anomalies(machine_snapshot)
        imbalance = [
            f for f in findings if f.kind == "machine-imbalance"
        ]
        assert len(imbalance) == 1
        assert imbalance[0].subject == "machine-3"

    def test_balanced_machines_quiet(self):
        entries = [
            snapshot_entry(
                "cluster.machine_busy_seconds", kind="gauge",
                value=1.0, labels={"machine": m},
            )
            for m in range(4)
        ]
        assert detect_snapshot_anomalies(entries) == []

    def test_partition_cache_collapse(self):
        entries = [
            snapshot_entry("partition_cache.hits", value=5.0),
            snapshot_entry("partition_cache.misses", value=195.0),
        ]
        findings = detect_snapshot_anomalies(entries)
        assert [f.kind for f in findings] == ["cache-collapse"]
        assert findings[0].subject == "partition-cache"

    def test_feature_cache_without_hits_means_no_cache(self):
        """The feature-cache hit counter exists even when no cache is
        configured; zero hits must read as 'no cache', not a collapse."""
        entries = [
            snapshot_entry("distdgl.cache_hits", value=0.0),
            snapshot_entry(
                "distdgl.remote_input_vertices", value=250000.0
            ),
        ]
        assert detect_snapshot_anomalies(entries) == []

    def test_feature_cache_with_bad_rate_flagged(self):
        entries = [
            snapshot_entry("distdgl.cache_hits", value=10.0),
            snapshot_entry(
                "distdgl.remote_input_vertices", value=990.0
            ),
        ]
        findings = detect_snapshot_anomalies(entries)
        assert [f.kind for f in findings] == ["cache-collapse"]
        assert findings[0].subject == "feature-cache"

    def test_small_caches_below_min_requests_ignored(self):
        entries = [
            snapshot_entry("partition_cache.hits", value=1.0),
            snapshot_entry("partition_cache.misses", value=9.0),
        ]
        assert detect_snapshot_anomalies(entries) == []

    def test_lost_messages_reported(self):
        entries = [
            snapshot_entry("cluster.lost_messages", value=3.0),
        ]
        findings = detect_snapshot_anomalies(entries)
        assert [f.kind for f in findings] == ["lost-messages"]
        assert findings[0].severity == "info"
