"""Scheduler integration: dedup, fair share, backpressure, aborts."""

import os
import time

import pytest

from repro.costmodel import DEFAULT_COST_MODEL
from repro.experiments import records_to_json, run_cell, run_distgnn_grid
from repro.graph import load_dataset
from repro.serve import QueueFullError, SweepScheduler

#: An alert rule that fires on every record (epoch time is always > 0).
ALWAYS_CRITICAL = {
    "rules": [{
        "name": "always",
        "kind": "threshold",
        "metric": "distgnn.epoch_seconds",
        "severity": "critical",
        "op": ">",
        "value": 0.0,
    }]
}


def _spec(**overrides):
    data = {
        "engine": "distgnn",
        "graph": "or",
        "partitioners": ["random", "hdrf"],
        "machines": [2],
        "params": [{"num_layers": 2}],
        "scale": "tiny",
    }
    data.update(overrides)
    return data


@pytest.fixture
def scheduler(tmp_path):
    sched = SweepScheduler(
        workers=1, data_dir=str(tmp_path), max_pending_cells=32
    )
    yield sched
    sched.stop(wait=True)


class TestExecution:
    def test_records_match_serial_grid_exactly(self, scheduler):
        scheduler.start()
        job = scheduler.submit(_spec())
        job = scheduler.wait(job.id, timeout=120)
        assert job.state == "done"
        graph = load_dataset("OR", "tiny", seed=0)
        serial = run_distgnn_grid(
            graph, ["random", "hdrf"], [2], list(job.spec.params), 0,
            DEFAULT_COST_MODEL, num_epochs=1,
        )
        # Byte-identical to a serial run of the same spec.
        assert (
            records_to_json(job.records()) == records_to_json(serial)
        )
        # And persisted under the job's data dir.
        assert os.path.exists(
            os.path.join(scheduler.data_dir, job.id, "records.json")
        )

    def test_failed_cell_fails_the_job(self, scheduler, monkeypatch):
        # Sabotage execution before the runners start: every cell
        # errors, which must fail the job rather than kill a runner.
        job = scheduler.submit(_spec(num_epochs=1, seed=1))
        monkeypatch.setattr(
            scheduler._executor, "submit", _raise_on_submit
        )
        scheduler.start()
        job = scheduler.wait(job.id, timeout=120)
        assert job.state == "failed"
        assert "sabotaged" in job.error


def _raise_on_submit(task):
    raise RuntimeError("sabotaged")


def _die_on_seed_13(graph, split, spec, io):
    """A cell whose worker dies outright (as under an OOM kill)."""
    if spec.seed == 13:
        os._exit(1)
    return run_cell(graph, split, spec, io)


class TestWorkerDeath:
    def test_dead_worker_fails_its_job_not_the_daemon(
        self, tmp_path, monkeypatch
    ):
        from repro.serve import scheduler as scheduler_module

        monkeypatch.setattr(scheduler_module, "run_cell", _die_on_seed_13)
        sched = SweepScheduler(
            workers=2, data_dir=str(tmp_path), obs_level="metrics"
        )
        sched.start()
        try:
            # One cell, so no sibling cell can reach the fresh pool.
            doomed = sched.submit(_spec(seed=13, partitioners=["random"]))
            doomed = sched.wait(doomed.id, timeout=120)
            assert doomed.state == "failed"
            assert doomed.error.startswith("BrokenProcessPool: ")
            healthy = sched.wait(sched.submit(_spec()).id, timeout=120)
            assert healthy.state == "done"
            finished = {
                entry["labels"]["state"]: entry["value"]
                for entry in sched.metrics.snapshot()
                if entry["name"] == "serve.jobs_finished"
            }
            assert finished == {"failed": 1.0, "done": 1.0}
        finally:
            sched.stop(wait=True)


class TestDedup:
    def test_overlapping_jobs_compute_shared_cells_once(
        self, scheduler
    ):
        scheduler.start()
        job_a = scheduler.submit(
            _spec(partitioners=["random", "hdrf"], tenant="alice")
        )
        scheduler.wait(job_a.id, timeout=120)
        job_b = scheduler.submit(
            _spec(partitioners=["random", "dbh"], tenant="bob")
        )
        job_b = scheduler.wait(job_b.id, timeout=120)
        assert job_b.state == "done"
        assert job_b.dedup_hits == 1  # shared (2, random) cell
        snapshot = scheduler.queue_snapshot()
        # 2 + 2 cells submitted, only 3 unique ones computed.
        assert snapshot["cells_computed_total"] == 3
        assert snapshot["dedup_hits_total"] == 1
        # Both jobs still hold the full record set for their spec.
        assert len(job_b.records()) == 2

    def test_identical_resubmission_served_from_cache(self, scheduler):
        scheduler.start()
        first = scheduler.submit(_spec(tenant="alice"))
        first = scheduler.wait(first.id, timeout=120)
        again = scheduler.submit(_spec(tenant="bob"))
        # Fully cached: terminal at submit time, no fresh compute.
        assert again.state == "done"
        assert again.dedup_hits == again.cells_total
        assert records_to_json(again.records()) == records_to_json(
            first.records()
        )

    def test_dedup_jobs_get_their_own_bus_replay(self, scheduler):
        from repro.obs.live import BusTailer

        scheduler.start()
        first = scheduler.submit(_spec())
        scheduler.wait(first.id, timeout=120)
        again = scheduler.submit(_spec(tenant="other"))
        assert again.state == "done"
        events = BusTailer(again.bus_dir).poll()
        kinds = [e["kind"] for e in events]
        assert kinds.count("cell-start") == again.cells_total
        assert kinds.count("cell-done") == again.cells_total
        assert kinds.count("record-done") == len(again.records())


class TestQueueDiscipline:
    def test_priority_runs_first(self, scheduler):
        # Not started: cells stay queued; pop order is inspectable.
        low = scheduler.submit(_spec(priority=0, seed=1, tenant="a"))
        high = scheduler.submit(_spec(priority=5, seed=2, tenant="a"))
        with scheduler._cond:
            first = scheduler._pop_next_key()
        assert first in [
            c.key for c in scheduler._cells.values()
        ]
        assert first[4] == 2  # the high-priority job's seed

    def test_fair_share_round_robin_within_priority(self, scheduler):
        # alice floods 4 cells, bob adds 2 at the same priority:
        # pops must alternate tenants, not drain alice first.
        scheduler.submit(_spec(
            tenant="alice", seed=1,
            partitioners=["random", "hdrf", "dbh", "hep10"],
        ))
        scheduler.submit(_spec(
            tenant="bob", seed=2, partitioners=["random", "hdrf"],
        ))
        tenants = []
        with scheduler._cond:
            while True:
                key = scheduler._pop_next_key()
                if key is None:
                    break
                tenants.append(scheduler._cells[key].tenant)
        assert tenants == [
            "alice", "bob", "alice", "bob", "alice", "alice",
        ]

    def test_queue_full_raises_and_admits_nothing(self, tmp_path):
        sched = SweepScheduler(
            workers=1, data_dir=str(tmp_path), max_pending_cells=3
        )
        with pytest.raises(QueueFullError) as excinfo:
            sched.submit(_spec(
                partitioners=["random", "hdrf", "dbh", "hep10"]
            ))
        assert excinfo.value.retry_after >= 1
        assert sched.jobs() == []  # nothing partially admitted
        assert sched.queue_snapshot()["pending_cells"] == 0

    def test_cancel_drains_pending_cells(self, scheduler):
        job = scheduler.submit(_spec(seed=3))
        assert scheduler.queue_snapshot()["pending_cells"] == 2
        job = scheduler.cancel(job.id)
        assert job.state == "cancelled"
        assert scheduler.queue_snapshot()["pending_cells"] == 0


class TestRuleAbort:
    def test_abort_on_cancels_remaining_cells_promptly(
        self, scheduler
    ):
        scheduler.start()
        job = scheduler.submit(_spec(
            partitioners=["random", "hdrf", "dbh", "hep10", "hep100"],
            rules=ALWAYS_CRITICAL, abort_on="critical", seed=4,
        ))
        started = time.monotonic()
        job = scheduler.wait(job.id, timeout=120)
        assert job.state == "aborted"
        assert job.findings  # the firing is recorded on the job
        # The first delivered cell fired; the rest never ran.
        assert job.cells_done == 1
        assert scheduler.queue_snapshot()["pending_cells"] == 0
        # Promptness: abort lands well under the 2s contract after
        # the (fast, tiny-scale) first cell.
        assert time.monotonic() - started < 60.0

    def test_warning_rules_record_findings_without_abort(
        self, scheduler
    ):
        rules = {
            "rules": [dict(
                ALWAYS_CRITICAL["rules"][0], severity="warning"
            )]
        }
        scheduler.start()
        job = scheduler.submit(_spec(rules=rules, seed=5))
        job = scheduler.wait(job.id, timeout=120)
        assert job.state == "done"
        assert len(job.findings) == len(job.records())
