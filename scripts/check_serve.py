"""Headless smoke for the ``repro serve`` daemon (the CI serve job).

Boots a real daemon as a subprocess, drives it purely over HTTP, and
fails (exit 1) unless the whole lifecycle is clean:

1. start ``repro serve`` on a free port with a fresh data dir;
2. submit a tiny two-cell job (``POST /jobs``) and poll it to
   completion;
3. fetch the records and verify they match a serial in-process run of
   the same grid byte-for-byte;
4. resubmit the identical spec as a second tenant and verify it is
   served entirely from the dedup cache (no fresh compute);
5. run ``repro obs watch --once --summary-json`` over the job's bus
   directory — the replayed streams must parse and show the completed
   sweep, and the summary must equal ``repro obs analyze`` of the
   job's ``records.json`` byte for byte;
6. scrape ``GET /metrics`` + ``GET /healthz`` (the daemon runs with
   ``--obs-level metrics``) and reconcile the exposed counters with
   the scheduler's own queue accounting;
7. ``POST /profile?seconds=0.2`` — the thread sampler must return a
   ``mode="sample"`` profile and ``/healthz`` must report the
   profiler idle again with its sample accounting intact;
8. cancel a job queued behind a higher-priority one with ``repro jobs
   --cancel``, resubmit it as another tenant, and reconcile
   ``pending_by_tenant`` with ``pending_cells`` and the queue-depth
   gauges at every scrape until the jobs end;
9. render one ``repro obs top --once`` frame against the live daemon;
10. ``POST /shutdown`` and verify the daemon exits cleanly (no orphan
    workers, bus streams flushed and closed on disk).

Usage::

    PYTHONPATH=src python scripts/check_serve.py
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import tempfile
import time

from repro.costmodel import DEFAULT_COST_MODEL
from repro.experiments import (
    TrainingParams,
    records_to_json,
    run_distgnn_grid,
)
from repro.graph import load_dataset
from repro.obs.serve_metrics import parse_prometheus_totals
from repro.serve import ServeClient

SPEC = {
    "engine": "distgnn",
    "graph": "OR",
    "partitioners": ["random", "hep100"],
    "machines": [2],
    "params": [{"num_layers": 2}],
    "scale": "tiny",
    "tenant": "smoke",
}


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _fail(message: str) -> "NoReturn":  # noqa: F821 (doc type)
    print(f"FAIL: {message}")
    sys.exit(1)


def _repro(env, *argv) -> subprocess.CompletedProcess:
    """``python -m repro ARGV`` with its output captured."""
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


def _check_queue_accounting(client, env) -> int:
    """Step 8; returns how many scrapes pinned the queue-depth gauges
    (equal ``/queue`` scrapes around a ``/metrics`` one: nothing is
    submitted meanwhile and pending cells only drain)."""
    blocker = client.submit(dict(
        SPEC, scale="medium", tenant="smoke-blocker", priority=1,
        machines=[4, 8], params="full",
        partitioners=["random", "dbh", "hdrf", "2ps-l", "hep10", "hep100"],
    ))
    victim = client.submit(dict(SPEC, seed=1, tenant="smoke-x"))
    cancel = _repro(
        env, "jobs", "--url", client.base_url, "--cancel", victim["id"]
    )
    if cancel.returncode != 0 or "cancelled" not in cancel.stdout:
        _fail(f"repro jobs --cancel left the queued job running:\n"
              f"{cancel.stdout}{cancel.stderr}")
    again = client.submit(dict(SPEC, seed=1, tenant="smoke-y"))
    jobs = (blocker["id"], victim["id"], again["id"])
    pinned = 0
    deadline = time.monotonic() + 300
    while True:
        before = client.queue()
        totals = parse_prometheus_totals(client.metrics())
        after = client.queue()
        for queue in (before, after):
            by_tenant = queue["pending_by_tenant"]
            if sum(by_tenant.values()) != queue["pending_cells"] or (
                "smoke-x" in by_tenant
            ):
                _fail(f"pending_by_tenant {by_tenant} does not account "
                      f"for pending_cells {queue['pending_cells']}")
        depth = totals.get("serve.queue_depth", 0)
        if depth != totals.get("serve.queue_depth_total"):
            _fail(f"serve.queue_depth sums to {depth}, not the total")
        if before["pending_by_tenant"] == after["pending_by_tenant"]:
            pinned += 1
            if depth != after["pending_cells"]:
                _fail(f"queue-depth gauges say {depth} cells, /queue "
                      f"says {after['pending_cells']}")
        states = [client.job(job_id)["state"] for job_id in jobs]
        if states == ["done", "cancelled", "done"]:
            return pinned
        if time.monotonic() > deadline or {"failed", "aborted"} & set(states):
            _fail(f"blocker / cancelled / resubmitted jobs ended {states}")
        time.sleep(0.2)


def main() -> int:
    """Run the smoke; exit non-zero on the first broken contract."""
    port = _free_port()
    data_dir = tempfile.mkdtemp(prefix="serve-smoke-")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    daemon = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", str(port), "--workers", "1",
            "--data-dir", data_dir, "--obs-level", "metrics",
        ],
        env=env,
    )
    client = ServeClient(f"http://127.0.0.1:{port}", timeout=10.0)
    try:
        for _ in range(100):
            try:
                client.healthz()
                break
            except OSError:
                if daemon.poll() is not None:
                    _fail("daemon exited before becoming healthy")
                time.sleep(0.1)
        else:
            _fail("daemon never became healthy")

        job = client.submit(SPEC)
        print(f"submitted {job['id']} ({job['cells_total']} cells)")
        done = client.wait(job["id"], timeout=300)
        if done["state"] != "done":
            _fail(f"job ended {done['state']!r}: {done.get('error')}")

        served = client.job(job["id"], records=True)["records"]
        graph = load_dataset("OR", "tiny", seed=0)
        serial = run_distgnn_grid(
            graph, ["random", "hep100"], [2],
            [TrainingParams(num_layers=2)], seed=0,
            cost_model=DEFAULT_COST_MODEL, num_epochs=1,
        )
        # ``partitioning_seconds`` is the one *measured* wall-clock
        # field in a record; the daemon and this script run in
        # different processes (separate partition caches), so it is
        # normalised out here. Every simulated quantity must still be
        # byte-identical (the in-repo tests assert full identity
        # within one process, where the shared cache covers it too).
        def _normalised(payload):
            entries = []
            for entry in payload:
                data = dict(entry["data"])
                data["partitioning_seconds"] = 0.0
                entries.append({"kind": entry["kind"], "data": data})
            return json.dumps(entries, sort_keys=True)

        if _normalised(served) != _normalised(
            json.loads(records_to_json(serial))
        ):
            _fail("served records diverge from the serial grid")
        print(f"records match serial grid ({len(served)} records)")

        again = client.submit(dict(SPEC, tenant="smoke-2"))
        if again["state"] != "done":
            _fail(f"resubmission not cache-served: {again['state']}")
        if again["dedup_hits"] != again["cells_total"]:
            _fail(
                "resubmission recomputed cells: "
                f"{again['dedup_hits']}/{again['cells_total']} hits"
            )
        queue = client.queue()
        if queue["cells_computed_total"] != job["cells_total"]:
            _fail(
                "dedup accounting off: computed "
                f"{queue['cells_computed_total']} cells for "
                f"{2 * job['cells_total']} submitted"
            )
        print(
            f"dedup ok: {queue['dedup_hits_total']} hits, "
            f"{queue['cells_computed_total']} cells computed"
        )

        bus_dir = done["bus_dir"]
        summary = os.path.join(data_dir, "watch-summary.json")
        analysis = os.path.join(data_dir, "analysis.json")
        watch = _repro(
            env, "obs", "watch", bus_dir, "--once", "--no-ansi",
            "--summary-json", summary,
        )
        analyze = _repro(
            env, "obs", "analyze",
            os.path.join(os.path.dirname(bus_dir), "records.json"),
            "--label", "sweep", "-o", analysis,
        )
        for name, proc in (("watch", watch), ("analyze", analyze)):
            if proc.returncode != 0:
                _fail(f"obs {name} failed:\n{proc.stdout}\n{proc.stderr}")
        if "[complete]" not in watch.stdout:
            _fail(f"obs watch does not show completion:\n{watch.stdout}")
        with open(summary, "rb") as a, open(analysis, "rb") as b:
            if a.read() != b.read():
                _fail("watch summary differs from obs analyze of "
                      "records.json")
        print("obs watch renders the completed job from its bus; its "
              "summary is obs analyze of records.json, byte for byte")

        totals = parse_prometheus_totals(client.metrics())
        queue = client.queue()
        checks = {
            "serve.cells_computed": queue["cells_computed_total"],
            "serve.dedup_hits": queue["dedup_hits_total"],
            "serve.cell_cache_size": queue["cached_cells"],
            "serve.jobs_admitted": 2,
            "serve.jobs_finished": 2,
            "serve.queue_depth_total": 0,
        }
        for name, expected in checks.items():
            if totals.get(name) != expected:
                _fail(
                    f"/metrics does not reconcile: {name} = "
                    f"{totals.get(name)}, scheduler says {expected}"
                )
        if totals.get("serve.admission_to_first_record_seconds", 0) <= 0:
            _fail("first-record latency never observed")
        health = client.healthz()
        if health.get("status") != "ok" or not health.get("started"):
            _fail(f"healthz not healthy: {health}")
        if health.get("scheduler_heartbeat_age_seconds") is None:
            _fail("healthz reports no scheduler heartbeat")
        print(
            "metrics reconcile: "
            f"{int(totals['serve.cells_computed'])} computed, "
            f"{int(totals['serve.dedup_hits'])} dedup hits, "
            f"{int(totals['serve.http_requests'])} http requests"
        )

        profile = client.profile(seconds=0.2)
        if profile.get("mode") != "sample":
            _fail(f"POST /profile returned mode {profile.get('mode')!r}")
        if float(profile.get("seconds", 0.0)) <= 0:
            _fail("POST /profile reports a zero-length capture window")
        health = client.healthz()
        profiler = health.get("profiler")
        if not isinstance(profiler, dict):
            _fail(f"healthz reports no profiler state: {health}")
        if profiler.get("sampling") is not False:
            _fail(f"profiler still sampling after capture: {profiler}")
        if int(profiler.get("samples_collected", -1)) < 0:
            _fail(f"profiler sample accounting missing: {profiler}")
        print(
            "POST /profile sampled the daemon "
            f"({int(profiler['samples_collected'])} samples collected)"
        )

        pinned = _check_queue_accounting(client, env)
        print(
            "cancel via repro jobs dropped the queued cells; the same "
            "spec resubmitted by another tenant ran alone; queue counts "
            f"reconciled ({pinned} scrapes matched the gauges)"
        )

        top = _repro(
            env, "obs", "top", client.base_url, "--once", "--no-ansi",
            "--rules", "examples/serve_rules.json",
        )
        if top.returncode != 0:
            _fail(f"obs top failed:\n{top.stdout}\n{top.stderr}")
        if "serve: ok" not in top.stdout:
            _fail(f"obs top frame missing health line:\n{top.stdout}")
        print("obs top renders a live ops frame")

        client.shutdown()
        deadline = time.monotonic() + 60
        while daemon.poll() is None:
            if time.monotonic() > deadline:
                daemon.kill()
                _fail("daemon did not exit within 60s of /shutdown")
            time.sleep(0.1)
        if daemon.returncode != 0:
            _fail(f"daemon exited {daemon.returncode}")
        # Bus streams were flushed and closed: every line parses.
        for name in os.listdir(bus_dir):
            path = os.path.join(bus_dir, name)
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    json.loads(line)
        print("clean shutdown; bus streams fully flushed")
        print("serve smoke OK")
        return 0
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=30)


if __name__ == "__main__":
    sys.exit(main())
