"""A small stdlib client for the ``repro serve`` HTTP API.

Used by the ``repro submit`` / ``repro jobs`` CLI commands, the CI
smoke script and the integration tests; also convenient from a
notebook. Only :mod:`urllib` — no new dependencies.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Dict, List, Mapping, Optional

__all__ = ["ServeError", "ServeClient"]


class ServeError(RuntimeError):
    """A non-2xx response from the daemon.

    ``status`` is the HTTP code; ``retry_after`` is populated on 429
    (seconds the server suggests waiting before resubmitting).
    """

    def __init__(
        self,
        status: int,
        message: str,
        retry_after: Optional[int] = None,
    ) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.retry_after = retry_after


class ServeClient:
    """Typed calls against one daemon base URL.

    ``base_url`` is e.g. ``http://127.0.0.1:8642``; a trailing slash
    is tolerated. Every method raises :class:`ServeError` on a non-2xx
    response.
    """

    def __init__(
        self, base_url: str, timeout: float = 30.0
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Mapping[str, object]] = None,
    ) -> Dict[str, object]:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=data, headers=headers,
            method=method,
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            raw = exc.read().decode("utf-8", "replace")
            try:
                payload = json.loads(raw)
                message = str(payload.get("error", raw))
            except ValueError:
                message = raw
            retry_after = exc.headers.get("Retry-After")
            raise ServeError(
                exc.code, message,
                int(retry_after) if retry_after else None,
            ) from None

    # ------------------------------------------------------- calls
    def healthz(self) -> Dict[str, object]:
        """Liveness probe (``GET /healthz``)."""
        return self._request("GET", "/healthz")

    def metrics(self) -> str:
        """The raw Prometheus exposition text (``GET /metrics``).

        Parse with
        :func:`repro.obs.serve_metrics.parse_prometheus_totals` when
        totals are all you need.
        """
        request = urllib.request.Request(
            self.base_url + "/metrics", method="GET"
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                return response.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            raise ServeError(
                exc.code, exc.read().decode("utf-8", "replace")
            ) from None

    def submit(self, spec: Mapping[str, object]) -> Dict[str, object]:
        """Submit a job spec (``POST /jobs``); returns its summary."""
        return self._request("POST", "/jobs", body=spec)

    def job(
        self, job_id: str, records: bool = False
    ) -> Dict[str, object]:
        """One job's summary; ``records=True`` embeds its records."""
        suffix = "?records=1" if records else ""
        return self._request("GET", f"/jobs/{job_id}{suffix}")

    def jobs(self) -> List[Dict[str, object]]:
        """Every retained job, oldest first (``GET /jobs``)."""
        return list(self._request("GET", "/jobs")["jobs"])

    def cancel(self, job_id: str) -> Dict[str, object]:
        """Cancel a job (``DELETE /jobs/<id>``)."""
        return self._request("DELETE", f"/jobs/{job_id}")

    def queue(self) -> Dict[str, object]:
        """Scheduler load and accounting (``GET /queue``)."""
        return self._request("GET", "/queue")

    def shutdown(self) -> Dict[str, object]:
        """Ask the daemon to exit (``POST /shutdown``)."""
        return self._request("POST", "/shutdown")

    def profile(
        self, seconds: float = 1.0, interval: Optional[float] = None
    ) -> Dict[str, object]:
        """Sample the daemon's threads (``POST /profile?seconds=N``).

        Blocks for the capture window and returns the profile
        artifact dict (``mode="sample"``; feed it to ``repro obs
        flamegraph``). Raises :class:`ServeError` with status 409
        while another capture is running.
        """
        query = f"?seconds={seconds:g}"
        if interval is not None:
            query += f"&interval={interval:g}"
        return self._request("POST", f"/profile{query}")

    def wait(
        self, job_id: str, timeout: float = 60.0
    ) -> Dict[str, object]:
        """Poll every 0.2 s until the job reaches a terminal state (or
        raise).

        Raises :class:`TimeoutError` when the deadline passes with the
        job still queued or running.
        """
        terminal = ("done", "failed", "cancelled", "aborted")
        deadline = time.monotonic() + timeout
        while True:
            summary = self.job(job_id)
            if summary["state"] in terminal:
                return summary
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"{job_id} still {summary['state']!r} after "
                    f"{timeout}s"
                )
            time.sleep(0.2)
