"""HTTP error paths as metric sources, and /metrics reconciliation."""

import json
import threading
import time
import urllib.request

import pytest

from repro.obs.serve_metrics import parse_prometheus_totals
from repro.serve import (
    ServeClient,
    ServeError,
    SweepScheduler,
    make_server,
)
from repro.serve.server import MAX_BODY_BYTES


def _spec(**overrides):
    data = {
        "engine": "distgnn",
        "graph": "or",
        "partitioners": ["random"],
        "machines": [2],
        "params": [{"num_layers": 2}],
        "scale": "tiny",
    }
    data.update(overrides)
    return data


@pytest.fixture
def running(tmp_path):
    """A metrics-enabled scheduler behind a live HTTP server."""
    scheduler = SweepScheduler(
        workers=1, data_dir=str(tmp_path), max_pending_cells=2,
        obs_level="metrics",
    )
    scheduler.start()
    server = make_server(scheduler, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    port = server.server_address[1]
    client = ServeClient(f"http://127.0.0.1:{port}")
    yield client, scheduler
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    scheduler.stop(wait=True)


def _status_counts(client):
    """``serve.http_requests`` totals keyed by (route, status)."""
    counts = {}
    for line in client.metrics().splitlines():
        if not line.startswith("repro_serve_http_requests{"):
            continue
        labels = line.split("{", 1)[1].rsplit("}", 1)[0]
        fields = dict(
            part.split("=", 1) for part in labels.split(",")
        )
        key = (
            fields["route"].strip('"'), fields["status"].strip('"')
        )
        counts[key] = counts.get(key, 0) + float(
            line.rsplit(" ", 1)[1]
        )
    return counts


def _wait_for(predicate, timeout=10.0):
    """Poll until ``predicate()`` is truthy and return its value.

    Request metrics are recorded *after* the response bytes reach the
    client (the handler's ``finally`` block), so a scrape issued right
    after a response can race the server thread by a few microseconds.
    """
    deadline = time.monotonic() + timeout
    while True:
        value = predicate()
        if value or time.monotonic() >= deadline:
            return value
        time.sleep(0.01)


class TestErrorPathsAreCounted:
    def test_body_cap_413(self, running):
        client, _ = running
        request = urllib.request.Request(
            client.base_url + "/jobs",
            data=b"x" * 8,
            headers={
                "Content-Type": "application/json",
                # Lie about the length: the server must refuse on the
                # declared size before reading anything.
                "Content-Length": str(MAX_BODY_BYTES + 1),
            },
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 413
        assert _wait_for(
            lambda: _status_counts(client).get(("/jobs", "413"))
        ) == 1

    def test_malformed_json_400(self, running):
        client, _ = running
        request = urllib.request.Request(
            client.base_url + "/jobs",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        assert _wait_for(
            lambda: _status_counts(client).get(("/jobs", "400"))
        ) == 1

    def test_unknown_route_404(self, running):
        client, _ = running
        with pytest.raises(ServeError) as excinfo:
            client._request("GET", "/no/such/endpoint")
        assert excinfo.value.status == 404
        assert _wait_for(
            lambda: _status_counts(client).get(("<other>", "404"))
        ) == 1

    def test_invalid_spec_rejection_counter(self, running):
        client, _ = running
        with pytest.raises(ServeError) as excinfo:
            client.submit(_spec(engine="horovod"))
        assert excinfo.value.status == 400
        totals = parse_prometheus_totals(client.metrics())
        assert totals["serve.admission_rejected"] == 1
        assert _wait_for(
            lambda: _status_counts(client).get(("/jobs", "400"))
        ) == 1

    def test_queue_full_429_counter(self, tmp_path):
        # A never-started scheduler: the queue fills and stays full.
        scheduler = SweepScheduler(
            workers=1, data_dir=str(tmp_path / "parked"),
            max_pending_cells=2, obs_level="metrics",
        )
        server = make_server(scheduler, port=0)
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        client = ServeClient(
            f"http://127.0.0.1:{server.server_address[1]}"
        )
        try:
            client.submit(
                _spec(partitioners=["random", "hdrf"], seed=3)
            )
            with pytest.raises(ServeError) as excinfo:
                client.submit(_spec(partitioners=["dbh"], seed=3))
            assert excinfo.value.status == 429
            totals = parse_prometheus_totals(client.metrics())
            assert totals["serve.admission_rejected"] == 1
            assert totals["serve.queue_depth_total"] == 2
            assert _wait_for(
                lambda: _status_counts(client).get(("/jobs", "429"))
            ) == 1
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
            scheduler.stop(wait=True)


class TestReconciliation:
    def test_metrics_reconcile_with_scheduler_state(self, running):
        client, scheduler = running
        job = client.submit(_spec(tenant="alice"))
        done = client.wait(job["id"], timeout=120)
        assert done["state"] == "done"
        # Resubmit: served entirely from the dedup cache.
        again = client.submit(_spec(tenant="bob"))
        client.wait(again["id"], timeout=120)

        totals = parse_prometheus_totals(client.metrics())
        queue = client.queue()
        assert totals["serve.cells_computed"] == (
            queue["cells_computed_total"]
        )
        assert totals["serve.dedup_hits"] == (
            queue["dedup_hits_total"]
        )
        assert totals["serve.jobs_admitted"] == 2
        assert totals["serve.jobs_finished"] == 2
        assert totals["serve.cell_cache_size"] == queue["cached_cells"]
        assert totals["serve.queue_depth_total"] == 0
        assert totals["serve.admission_to_first_record_seconds"] > 0
        assert (
            totals["serve.admission_to_first_record_p95_seconds"] > 0
        )
        # The daemon-side registry never leaked into the global one.
        from repro import obs

        assert obs.snapshot() == []

    def test_request_log_written(self, running, tmp_path):
        client, scheduler = running
        client.queue()
        from repro.obs.sink import read_jsonl

        # The sink is line-buffered; the event lands as soon as the
        # server thread's finally block runs, possibly just after the
        # client saw the response.
        def logged():
            try:
                events = read_jsonl(str(tmp_path / "requests.jsonl"))
            except OSError:
                return False
            return any(
                event["kind"] == "http-request"
                and event["name"] == "/queue"
                for event in events
            )

        assert _wait_for(logged)
        scheduler.metrics.close()
