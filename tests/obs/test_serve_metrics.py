"""ServeMetrics: daemon telemetry, exposition round trip, quantiles."""

import pytest

from repro.obs.registry import MetricsRegistry
from repro.obs.serve_metrics import (
    ServeMetrics,
    histogram_quantile,
    parse_prometheus_totals,
    prometheus_name,
    render_prometheus,
)
from repro.obs.sink import MemorySink


class TestDisabled:
    def test_hooks_are_noops_and_snapshot_empty(self):
        metrics = ServeMetrics(enabled=False)
        metrics.request_finished("GET", "/queue", 200, 0.01)
        metrics.job_admitted("alice")
        metrics.cell_finished("distgnn", 0.1, 0.2)
        metrics.refresh_queue({}, 0, 10, 0)
        assert metrics.snapshot() == []
        assert metrics.totals() == {}

    def test_heartbeat_tracked_even_when_disabled(self):
        metrics = ServeMetrics(enabled=False)
        assert metrics.heartbeat_age() is None
        metrics.heartbeat(now=100.0)
        assert metrics.heartbeat_age(now=102.5) == pytest.approx(2.5)


class TestEnabled:
    def test_http_request_accounting(self):
        metrics = ServeMetrics(enabled=True)
        metrics.request_finished("GET", "/queue", 200, 0.01)
        metrics.request_finished("POST", "/jobs", 429, 0.02)
        assert metrics.totals() == {"serve.http_requests": 2}

    def test_request_events_reach_sink(self):
        sink = MemorySink()
        metrics = ServeMetrics(enabled=True, sink=sink)
        metrics.request_finished(
            "POST", "/jobs", 201, 0.05, tenant="alice"
        )
        metrics.log("GET /queue HTTP/1.1 200 -")
        kinds = [event["kind"] for event in sink.events]
        assert kinds == ["http-request", "http-log"]
        assert sink.events[0]["tenant"] == "alice"
        assert sink.events[0]["status"] == 201
        assert "GET /queue" in sink.events[1]["message"]

    def test_counters_and_evictions(self):
        metrics = ServeMetrics(enabled=True)
        metrics.job_admitted("a")
        metrics.job_finished("done")
        metrics.admission_rejected("queue-full")
        metrics.dedup_hit("a")
        # Evictions, dedup misses and per-tenant deliveries have no
        # series: exactly these four counters exist.
        assert metrics.totals() == {
            "serve.jobs_admitted": 1,
            "serve.jobs_finished": 1,
            "serve.admission_rejected": 1,
            "serve.dedup_hits": 1,
        }

    def test_refresh_queue_zeroes_stale_tenants(self):
        metrics = ServeMetrics(enabled=True)
        metrics.refresh_queue(
            {("alice", 0): 5}, total=5, capacity=10, cached_cells=2,
        )
        metrics.refresh_queue(
            {("bob", 1): 2}, total=2, capacity=10, cached_cells=2,
        )
        depth = {
            tuple(sorted(entry["labels"].items())): entry["value"]
            for entry in metrics.snapshot()
            if entry["name"] == "serve.queue_depth"
        }
        # Label values are stringified by the registry.
        assert depth[(("priority", "0"), ("tenant", "alice"))] == 0.0
        assert depth[(("priority", "1"), ("tenant", "bob"))] == 2.0
        totals = metrics.totals()
        assert totals["serve.queue_depth_total"] == 2
        assert totals["serve.queue_capacity"] == 10

    def test_snapshot_derives_p95_and_heartbeat_age(self):
        metrics = ServeMetrics(enabled=True)
        for seconds in (0.02, 0.03, 0.05):
            metrics.first_record(seconds)
        metrics.heartbeat(now=10.0)
        totals = metrics.totals()
        # The heartbeat age is /healthz state, not a catalog series.
        assert "serve.scheduler_heartbeat_age_seconds" not in totals
        assert metrics.heartbeat_age(now=10.5) == pytest.approx(0.5)
        p95 = totals["serve.admission_to_first_record_p95_seconds"]
        assert 0.01 < p95 <= 0.1  # inside the observations' bucket


class TestHistogramQuantile:
    def _histogram(self, values):
        registry = MetricsRegistry()
        histogram = registry.timer(
            "serve.admission_to_first_record_seconds"
        )
        for value in values:
            histogram.observe(value)
        return histogram

    def test_interpolates_within_bucket(self):
        histogram = self._histogram([0.02] * 100)
        # All mass in the (0.01, 0.1] bucket; the median interpolates
        # to the bucket midpoint.
        assert histogram_quantile(histogram, 0.5) == pytest.approx(
            0.055
        )

    def test_overflow_bucket_clamps_to_max(self):
        histogram = self._histogram([50.0, 60.0])
        assert histogram_quantile(histogram, 0.99) == 60.0

    def test_empty_histogram_is_zero(self):
        histogram = self._histogram([])
        assert histogram_quantile(histogram, 0.95) == 0.0

    def test_rejects_bad_quantile(self):
        histogram = self._histogram([0.01])
        with pytest.raises(ValueError):
            histogram_quantile(histogram, 1.5)


class TestExposition:
    def test_prometheus_name_mangling(self):
        assert (
            prometheus_name("serve.http_requests")
            == "repro_serve_http_requests"
        )

    def test_render_parse_round_trip(self):
        metrics = ServeMetrics(enabled=True)
        metrics.request_finished("GET", "/queue", 200, 0.01)
        metrics.request_finished("POST", "/jobs", 201, 0.03)
        metrics.job_admitted("alice")
        metrics.job_admitted("bob")
        metrics.refresh_queue(
            {("alice", 0): 4}, total=4, capacity=16, cached_cells=0,
        )
        metrics.cell_finished("distgnn", 0.01, 0.03)
        text = render_prometheus(metrics.snapshot())
        assert "# TYPE repro_serve_http_requests counter" in text
        assert "# TYPE repro_serve_cell_service_seconds histogram" in text
        assert 'le="+Inf"' in text
        totals = parse_prometheus_totals(text)
        # The scraped totals reconstruct the registry-side totals.
        expected = metrics.totals()
        for name, value in expected.items():
            assert totals[name] == pytest.approx(value), name

    def test_histogram_buckets_are_cumulative(self):
        metrics = ServeMetrics(enabled=True)
        metrics.first_record(0.02)
        metrics.first_record(5.0)
        text = render_prometheus(metrics.snapshot())
        prefix = (
            "repro_serve_admission_to_first_record_seconds_bucket"
        )
        counts = [
            float(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith(prefix)
        ]
        assert counts == sorted(counts)
        assert counts[-1] == 2.0

    def test_parser_skips_foreign_and_malformed_lines(self):
        text = (
            "# HELP x y\n"
            "not_a_repro_metric 7\n"
            "repro_serve_http_requests{route=\"/queue\"} nonsense\n"
            "repro_serve_http_requests{route=\"/queue\"} 3\n"
        )
        assert parse_prometheus_totals(text) == {
            "serve.http_requests": 3.0
        }
