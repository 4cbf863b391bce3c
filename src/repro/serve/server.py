"""The ``repro serve`` HTTP/JSON API over :class:`SweepScheduler`.

Stdlib-only (:mod:`http.server`), bound to localhost by default; this
is a lab-bench daemon, not an internet service. Endpoints:

``POST /jobs``
    Submit a sweep-job spec (the JSON form of
    :class:`~repro.serve.jobs.SweepJobSpec.from_dict`). ``201`` with
    the job summary; ``400`` on an invalid spec; ``429`` with a
    ``Retry-After`` header when the pending-cell queue is full
    (admission control — nothing is partially admitted).
``GET /jobs``
    Every retained job, oldest first.
``GET /jobs/<id>``
    One job's summary; ``?records=1`` embeds the landed records in
    the export JSON schema (same shape ``save_records`` writes).
``DELETE /jobs/<id>``
    Cancel: pending cells drop from the queue promptly; running cells
    finish in the background and only feed the dedup cache.
``GET /queue``
    Scheduler load, limits, fair-share and dedup accounting.
``GET /healthz``
    Readiness + liveness: scheduler start state, last runner-heartbeat
    age, and queue saturation.
``GET /metrics``
    Prometheus text exposition of the daemon's metrics (requires the
    daemon to run with ``--obs-level metrics`` or ``trace``).
``POST /shutdown``
    Ask the daemon to exit (used by the CI smoke and tests).

Every request — success or error — is timed and counted into the
scheduler's :class:`~repro.obs.serve_metrics.ServeMetrics` under a
normalised route template (``/jobs/{id}``, never the raw path), so
``/metrics`` label cardinality stays bounded.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from ..experiments import records_to_json
from .scheduler import QueueFullError, SweepScheduler

__all__ = ["ServeHandler", "make_server", "serve_forever"]

#: Cap on request bodies; a sweep spec is small, so anything larger
#: is a client bug (or abuse) and is rejected with 413.
MAX_BODY_BYTES = 1 << 20

#: Fixed single-segment routes, for route-template normalisation.
_KNOWN_ROUTES = {
    "healthz": "/healthz",
    "metrics": "/metrics",
    "queue": "/queue",
    "jobs": "/jobs",
    "shutdown": "/shutdown",
    "profile": "/profile",
}


class ServeHandler(BaseHTTPRequestHandler):
    """Request handler translating HTTP to scheduler calls.

    The scheduler instance is attached to the *server* object
    (``server.scheduler``) by :func:`make_server`, so one handler class
    serves any scheduler. Every verb dispatches through
    :meth:`_dispatch`, which times the request and feeds the daemon
    metrics (per-route counters) plus the structured request log (which
    carries the latency).
    """

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"

    # ----------------------------------------------------- plumbing
    def log_message(self, format: str, *args: object) -> None:
        """Route http.server's own log lines into the obs sink.

        The base class prints to stderr per request, which tests and
        the daemon's console cannot tolerate; instead the formatted
        line becomes a structured ``http-log`` event when the daemon
        runs with observability on, and is dropped otherwise.
        """
        self.scheduler.metrics.log(format % args)

    @property
    def scheduler(self) -> SweepScheduler:
        """The scheduler this daemon fronts."""
        return self.server.scheduler  # type: ignore[attr-defined]

    def _route(self) -> str:
        """The request path normalised to a bounded route template."""
        path = self.path.partition("?")[0]
        parts = [p for p in path.split("/") if p]
        if len(parts) == 1 and parts[0] in _KNOWN_ROUTES:
            return _KNOWN_ROUTES[parts[0]]
        if len(parts) == 2 and parts[0] == "jobs":
            return "/jobs/{id}"
        return "<other>"

    def _dispatch(self, handler) -> None:
        """Run one verb handler with timing + metrics around it."""
        metrics = self.scheduler.metrics
        self._status = 0
        self._tenant: Optional[str] = None
        started = time.perf_counter()
        try:
            handler()
        finally:
            metrics.request_finished(
                self.command,
                self._route(),
                self._status,
                max(time.perf_counter() - started, 0.0),
                tenant=self._tenant,
            )

    def _send_json(
        self,
        status: int,
        payload: object,
        headers: Optional[Tuple[Tuple[str, str], ...]] = None,
    ) -> None:
        body = json.dumps(payload, indent=2).encode("utf-8")
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers or ():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str) -> None:
        body = text.encode("utf-8")
        self._status = status
        self.send_response(status)
        self.send_header(
            "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
        )
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str, **extra: object) -> None:
        payload = {"error": message}
        payload.update(extra)
        headers = ()
        if "retry_after" in extra:
            headers = (("Retry-After", str(extra["retry_after"])),)
        self._send_json(status, payload, headers)

    def _read_body(self) -> Optional[bytes]:
        length = int(self.headers.get("Content-Length", 0) or 0)
        if length > MAX_BODY_BYTES:
            self._error(413, "request body too large")
            return None
        return self.rfile.read(length)

    # ----------------------------------------------------- routing
    def do_GET(self) -> None:  # noqa: N802 (http.server convention)
        """Route ``GET``: jobs, one job, queue, health, metrics."""
        self._dispatch(self._get)

    def do_POST(self) -> None:  # noqa: N802
        """Route ``POST``: job submission and daemon shutdown."""
        self._dispatch(self._post)

    def do_DELETE(self) -> None:  # noqa: N802
        """Route ``DELETE``: job cancellation."""
        self._dispatch(self._delete)

    def _get(self) -> None:
        path, _, query = self.path.partition("?")
        parts = [p for p in path.split("/") if p]
        if parts == ["healthz"]:
            self._send_json(200, self.scheduler.healthz_snapshot())
        elif parts == ["metrics"]:
            self._send_text(200, self.scheduler.metrics_exposition())
        elif parts == ["queue"]:
            self._send_json(200, self.scheduler.queue_snapshot())
        elif parts == ["jobs"]:
            self._send_json(
                200,
                {"jobs": [j.to_dict() for j in self.scheduler.jobs()]},
            )
        elif len(parts) == 2 and parts[0] == "jobs":
            try:
                job = self.scheduler.get(parts[1])
            except KeyError:
                self._error(404, f"no such job: {parts[1]}")
                return
            self._tenant = job.spec.tenant
            payload = job.to_dict()
            if "records=1" in query.split("&"):
                payload["records"] = json.loads(
                    records_to_json(job.records())
                )
            self._send_json(200, payload)
        else:
            self._error(404, f"no such endpoint: {path}")

    def _post(self) -> None:
        path, _, query = self.path.partition("?")
        parts = [p for p in path.split("/") if p]
        if parts == ["shutdown"]:
            self._send_json(200, {"status": "shutting down"})
            threading.Thread(
                target=self.server.shutdown, daemon=True
            ).start()
            return
        if parts == ["profile"]:
            self._profile(query)
            return
        if parts != ["jobs"]:
            self._error(404, f"no such endpoint: {path}")
            return
        body = self._read_body()
        if body is None:
            return
        try:
            data = json.loads(body.decode("utf-8") or "{}")
        except ValueError:
            self._error(400, "request body is not valid JSON")
            return
        if not isinstance(data, dict):
            self._error(400, "job spec must be a JSON object")
            return
        self._tenant = str(data.get("tenant", "default"))
        try:
            job = self.scheduler.submit(data)
        except QueueFullError as exc:
            self._error(
                429, str(exc), retry_after=exc.retry_after,
                pending=exc.pending, limit=exc.limit,
            )
            return
        except (ValueError, TypeError) as exc:
            self._error(400, str(exc))
            return
        self._send_json(201, job.to_dict())

    def _profile(self, query: str) -> None:
        """``POST /profile?seconds=N[&interval=I]``: sample the daemon.

        Blocks this handler thread for the capture window (the
        threading server keeps serving other requests) and returns
        the folded sample profile as JSON. 409 while another capture
        is running; seconds is clamped to (0, 60].
        """
        params = {}
        for pair in query.split("&"):
            key, _, value = pair.partition("=")
            if key:
                params[key] = value
        try:
            seconds = float(params.get("seconds", 1.0))
            interval = float(params.get("interval", 0.01))
        except ValueError:
            self._error(400, "seconds/interval must be numbers")
            return
        if not 0.0 < seconds <= 60.0:
            self._error(400, "seconds must be in (0, 60]")
            return
        if not 0.0 < interval <= 1.0:
            self._error(400, "interval must be in (0, 1]")
            return
        try:
            profile = self.scheduler.profile(seconds, interval)
        except RuntimeError as exc:
            self._error(409, str(exc))
            return
        self._send_json(200, profile.to_dict())

    def _delete(self) -> None:
        parts = [p for p in self.path.partition("?")[0].split("/") if p]
        if len(parts) == 2 and parts[0] == "jobs":
            try:
                job = self.scheduler.cancel(parts[1])
            except KeyError:
                self._error(404, f"no such job: {parts[1]}")
                return
            self._tenant = job.spec.tenant
            self._send_json(200, job.to_dict())
        else:
            self._error(404, "DELETE supports /jobs/<id> only")


def make_server(
    scheduler: SweepScheduler,
    host: str = "127.0.0.1",
    port: int = 0,
) -> ThreadingHTTPServer:
    """A bound (not yet serving) HTTP server fronting ``scheduler``.

    ``port=0`` picks a free port (tests); read it back from
    ``server.server_address``. The caller owns scheduler lifecycle
    (:meth:`~SweepScheduler.start` / :meth:`~SweepScheduler.stop`).
    """
    server = ThreadingHTTPServer((host, port), ServeHandler)
    server.daemon_threads = True
    server.scheduler = scheduler  # type: ignore[attr-defined]
    return server


def serve_forever(
    scheduler: SweepScheduler,
    host: str = "127.0.0.1",
    port: int = 8642,
) -> None:
    """Run the daemon until ``POST /shutdown`` or Ctrl-C.

    Starts the scheduler, serves requests, and on the way out stops
    the scheduler with ``wait=True`` so worker processes are joined
    and every job bus stream is flushed and closed.
    """
    server = make_server(scheduler, host, port)
    scheduler.start()
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        scheduler.stop(wait=True)
