"""HTTP API integration: round trips, backpressure, cancellation."""

import json
import threading

import pytest

from repro.costmodel import DEFAULT_COST_MODEL
from repro.experiments import (
    TrainingParams,
    records_to_json,
    run_distgnn_grid,
)
from repro.graph import load_dataset
from repro.serve import (
    ServeClient,
    ServeError,
    SweepScheduler,
    make_server,
)


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


def _serve(scheduler):
    """Spin the HTTP server on a free port; return (server, client)."""
    server = make_server(scheduler, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    port = server.server_address[1]
    return server, thread, ServeClient(f"http://127.0.0.1:{port}")


@pytest.fixture
def running(tmp_path):
    """A started scheduler behind a live HTTP server."""
    scheduler = SweepScheduler(
        workers=1, data_dir=str(tmp_path), max_pending_cells=32
    )
    scheduler.start()
    server, thread, client = _serve(scheduler)
    yield client
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    scheduler.stop(wait=True)


@pytest.fixture
def parked(tmp_path):
    """A server whose scheduler never runs cells (queue stays full)."""
    scheduler = SweepScheduler(
        workers=1, data_dir=str(tmp_path), max_pending_cells=2
    )
    server, thread, client = _serve(scheduler)
    yield client
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    scheduler.stop(wait=True)


class TestRoundTrip:
    def test_submit_wait_records(self, running):
        job = running.submit(_spec())
        assert job["state"] in ("queued", "running", "done")
        done = running.wait(job["id"], timeout=120)
        assert done["state"] == "done"
        assert done["cells_done"] == 1
        full = running.job(job["id"], records=True)
        graph = load_dataset("OR", "tiny", seed=0)
        serial = run_distgnn_grid(
            graph, ["random"], [2], [TrainingParams(num_layers=2)],
            seed=0, cost_model=DEFAULT_COST_MODEL, num_epochs=1,
        )
        # Byte-identical to the serial grid of the same spec.
        assert (
            json.dumps(full["records"], sort_keys=True)
            == json.dumps(
                json.loads(records_to_json(serial)), sort_keys=True
            )
        )

    def test_two_tenants_overlap_dedup_accounting(self, running):
        first = running.submit(_spec(
            partitioners=["random", "hdrf"], tenant="alice", seed=11,
        ))
        running.wait(first["id"], timeout=120)
        second = running.submit(_spec(
            partitioners=["random", "dbh"], tenant="bob", seed=11,
        ))
        done = running.wait(second["id"], timeout=120)
        assert done["dedup_hits"] == 1
        queue = running.queue()
        assert queue["dedup_hits_total"] >= 1

    def test_jobs_listing(self, running):
        job = running.submit(_spec(seed=12))
        running.wait(job["id"], timeout=120)
        listed = running.jobs()
        assert any(j["id"] == job["id"] for j in listed)

    def test_healthz(self, running):
        health = running.healthz()
        assert health["status"] == "ok"
        assert health["started"] is True
        assert health["workers"] == 1
        assert health["obs_level"] == "off"
        assert health["max_pending_cells"] == 32
        assert 0.0 <= health["queue_saturation"] <= 1.0

    def test_metrics_disabled_daemon_says_so(self, running):
        text = running.metrics()
        assert text.startswith("#")
        assert "disabled" in text


class TestErrors:
    def test_invalid_spec_is_400(self, running):
        with pytest.raises(ServeError) as excinfo:
            running.submit(_spec(engine="horovod"))
        assert excinfo.value.status == 400
        assert "unknown engine" in str(excinfo.value)

    def test_unknown_job_is_404(self, running):
        with pytest.raises(ServeError) as excinfo:
            running.job("job-999999")
        assert excinfo.value.status == 404

    def test_unknown_endpoint_is_404(self, running):
        with pytest.raises(ServeError) as excinfo:
            running._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_queue_full_is_429_with_retry_after(self, parked):
        parked.submit(_spec(partitioners=["random", "hdrf"], seed=13))
        with pytest.raises(ServeError) as excinfo:
            parked.submit(_spec(partitioners=["dbh"], seed=13))
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after >= 1

    def test_delete_cancels_pending_job(self, parked):
        job = parked.submit(_spec(seed=14))
        cancelled = parked.cancel(job["id"])
        assert cancelled["state"] == "cancelled"
        assert parked.queue()["pending_cells"] == 0
