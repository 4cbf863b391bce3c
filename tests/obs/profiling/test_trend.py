"""Bench-history trend analysis: series extraction, creep, anomalies."""

import dataclasses
import json

import pytest

from repro.obs.analysis import AnomalyThresholds
from repro.obs.profiling.trend import (
    TrendThresholds,
    detect_drift,
    detect_trends,
    extract_history_series,
    load_bench_history,
    render_trend_report,
)


def _entry(kernel_seconds, off=0.07, plain=0.07, sampling=0.02):
    return {
        "kernels": {"OR/hdrf": {"seconds": kernel_seconds}},
        "sampling": {"seconds": sampling},
        "obs_overhead": {
            "off_seconds": off, "plain_seconds": plain,
        },
        "profiling_overhead": {
            "off_seconds": off, "plain_seconds": plain,
        },
    }


@pytest.mark.parametrize(
    "thresholds", [AnomalyThresholds(), TrendThresholds()],
    ids=lambda t: type(t).__name__,
)
def test_to_dict_covers_every_threshold_field(thresholds):
    # Reports embed these for reproducibility: a knob missing from the
    # dict would be a threshold a reader of the report cannot see.
    names = {f.name for f in dataclasses.fields(thresholds)}
    assert set(thresholds.to_dict()) == names
    json.dumps(thresholds.to_dict())  # nested thresholds are plain too


class TestSeriesExtraction:
    def test_unwraps_seconds_blocks(self):
        series = extract_history_series([_entry(0.1), _entry(0.2)])
        assert series["kernels/OR/hdrf"] == [0.1, 0.2]
        assert series["sampling"] == [0.02, 0.02]
        assert series["obs_overhead/off_seconds"] == [0.07, 0.07]
        assert series["profiling_overhead/plain_seconds"] == [0.07, 0.07]

    def test_missing_sections_shorten_series(self):
        old = {"kernels": {"OR/hdrf": {"seconds": 0.1}}}
        series = extract_history_series([old, _entry(0.2)])
        assert series["kernels/OR/hdrf"] == [0.1, 0.2]
        assert series["sampling"] == [0.02]

    def test_non_numeric_values_skipped(self):
        entry = {"kernels": {"OR/hdrf": {"note": "broken"}},
                 "sampling": True}
        assert extract_history_series([entry]) == {}


class TestDriftDetection:
    def test_injected_slow_creep_is_flagged(self):
        # +10% per entry: every adjacent step is inside a 2x pairwise
        # gate, but the cumulative drift is 1.5x+.
        values = [0.1 * (1.1 ** i) for i in range(8)]
        findings = detect_drift("kernels/OR/hdrf", values)
        assert len(findings) == 1
        finding = findings[0]
        assert finding.kind == "perf-drift"
        assert finding.value > 1.25
        assert "kernels/OR/hdrf" in finding.message

    def test_flat_series_is_quiet(self):
        assert detect_drift("k", [0.1] * 10) == []

    def test_short_series_is_quiet(self):
        values = [0.1 * (1.1 ** i) for i in range(4)]
        assert detect_drift("k", values) == []

    def test_sub_jitter_series_is_quiet(self):
        values = [0.001 * (1.1 ** i) for i in range(8)]
        assert detect_drift("k", values) == []

    def test_threshold_knobs_respected(self):
        values = [0.1 * (1.1 ** i) for i in range(8)]
        loose = TrendThresholds(creep_ratio=5.0)
        assert detect_drift("k", values, loose) == []


class TestDetectTrends:
    def test_clean_history_has_no_findings(self):
        history = [_entry(0.1) for _ in range(6)]
        assert detect_trends(history) == []

    def test_spike_raises_series_anomaly(self):
        history = [_entry(0.1) for _ in range(7)] + [_entry(0.5)]
        kinds = {f.kind for f in detect_trends(history)}
        assert "bench-series-anomaly" in kinds

    def test_creep_raises_perf_drift(self):
        history = [_entry(0.1 * (1.1 ** i)) for i in range(8)]
        findings = detect_trends(history)
        drift = [f for f in findings if f.kind == "perf-drift"]
        assert any(
            f.subject == "kernels/OR/hdrf" for f in drift
        )


class TestHistoryLoading:
    def test_schema_2_history(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({
            "schema": 2,
            "baseline": _entry(0.1),
            "history": [_entry(0.1), _entry(0.11)],
        }))
        history = load_bench_history(str(path))
        assert len(history) == 2

    def test_bare_list_schema_1(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps([_entry(0.1)]))
        assert len(load_bench_history(str(path))) == 1


class TestRendering:
    def test_quiet_report(self):
        series = extract_history_series([_entry(0.1)] * 3)
        text = render_trend_report([], series)
        assert "no drift or anomalies detected" in text
        assert "3 entries" in text

    def test_findings_listed(self):
        history = [_entry(0.1 * (1.1 ** i)) for i in range(8)]
        findings = detect_trends(history)
        text = render_trend_report(
            findings, extract_history_series(history)
        )
        assert "perf-drift" in text
