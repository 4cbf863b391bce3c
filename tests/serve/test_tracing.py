"""End-to-end job tracing: admission → dispatch → engine spans."""

import pytest

from repro.obs.sink import read_jsonl
from repro.serve import SweepScheduler


def _spec(**overrides):
    data = {
        "engine": "distgnn",
        "graph": "or",
        "partitioners": ["random"],
        "machines": [2],
        "params": [{"num_layers": 2}],
        "scale": "tiny",
        "tenant": "acme",
    }
    data.update(overrides)
    return data


@pytest.fixture
def traced(tmp_path):
    scheduler = SweepScheduler(
        workers=1, data_dir=str(tmp_path), obs_level="trace"
    )
    scheduler.start()
    yield scheduler, tmp_path
    scheduler.stop(wait=True)


class TestJobTrace:
    def test_one_job_links_all_layers(self, traced):
        scheduler, data_dir = traced
        job = scheduler.submit(_spec())
        assert scheduler.wait(job.id, timeout=120.0).state == "done"
        scheduler.stop(wait=True)  # flush trace sinks

        server_events = read_jsonl(
            str(data_dir / job.id / "trace.jsonl")
        )
        names = [event["name"] for event in server_events]
        assert "serve.admission" in names
        assert "serve.dispatch" in names
        begin = names.index("serve.dispatch")
        assert server_events[begin]["kind"] == "span-begin"
        assert server_events[begin]["wait_seconds"] >= 0.0
        # Every server-side span carries the job and tenant identity.
        for event in server_events:
            assert event["job"] == job.id
            assert event["tenant"] == "acme"

        cell_traces = sorted(
            (data_dir / job.id).glob("trace-cell-*.jsonl")
        )
        assert len(cell_traces) == 1
        cell_events = read_jsonl(str(cell_traces[0]))
        kinds = {event["kind"] for event in cell_events}
        assert "span-begin" in kinds and "span-end" in kinds
        # Engine phase events inherit the ambient job/tenant context.
        phases = [
            event for event in cell_events
            if event["kind"] == "phase"
        ]
        assert phases, "engine emitted no phase events"
        for event in cell_events:
            assert event["job"] == job.id
            assert event["tenant"] == "acme"

    def test_dedup_cells_attributed_to_submitter(self, traced):
        scheduler, data_dir = traced
        first = scheduler.submit(_spec(tenant="alice"))
        assert scheduler.wait(first.id, timeout=120.0).state == "done"
        second = scheduler.submit(_spec(tenant="bob"))
        assert scheduler.wait(second.id, timeout=120.0).state == "done"
        scheduler.stop(wait=True)

        # The second job hit the cache: it has a server-side trace but
        # no freshly computed cell trace of its own.
        assert (data_dir / second.id / "trace.jsonl").exists()
        assert not list(
            (data_dir / second.id).glob("trace-cell-*.jsonl")
        )
        events = read_jsonl(str(data_dir / second.id / "trace.jsonl"))
        admission = [
            event for event in events
            if event["name"] == "serve.admission"
        ]
        assert admission and admission[0]["dedup_hits"] == 1
        assert admission[0]["tenant"] == "bob"

    def test_trace_context_cleared_after_cells(self, traced):
        scheduler, _ = traced
        job = scheduler.submit(_spec())
        assert scheduler.wait(job.id, timeout=120.0).state == "done"
        from repro import obs
        from repro.obs import api

        # The inline cell path must not leak its ambient context (or
        # a sink) into the daemon process.
        assert api._context == {}
        assert obs.get_sink() is None

    def test_no_trace_files_below_trace_level(self, tmp_path):
        scheduler = SweepScheduler(
            workers=1, data_dir=str(tmp_path), obs_level="metrics"
        )
        scheduler.start()
        try:
            job = scheduler.submit(_spec())
            assert scheduler.wait(job.id, timeout=120.0).state == "done"
        finally:
            scheduler.stop(wait=True)
        assert not (tmp_path / job.id / "trace.jsonl").exists()
        assert not list(
            (tmp_path / job.id).glob("trace-cell-*.jsonl")
        )
