"""The live daemon ops monitor behind ``repro obs top``.

``obs watch`` follows one sweep's telemetry bus; ``obs top`` follows a
*daemon*: it polls the serve HTTP API (``/healthz``, ``/queue``,
``/metrics``) and renders queue depth, tenant fair shares, dedup rate,
latency SLOs and firing alert rules as a tick-driven terminal frame.

Same testability contract as :mod:`.watch`: fetching is an injectable
callable (:func:`fetch_status` is the urllib default), rendering is a
pure function (:func:`render_top_frame`) from one status snapshot to a
plain-ANSI string, and :func:`top_loop` drives ticks with injectable
clock/sleep/output — the whole monitor runs headless in tests.

Alert rules are the ordinary :class:`~.rules.RuleSet` engine evaluated
against the totals parsed out of the ``/metrics`` exposition
(:func:`~repro.obs.serve_metrics.parse_prometheus_totals`), so one
rules file can watch both sweep records and daemon SLOs — e.g. a
threshold on ``serve.admission_to_first_record_p95_seconds`` or a
429-rate ratio of ``serve.admission_rejected`` over
``serve.http_requests``.

This module deliberately does NOT import :mod:`repro.serve`: the serve
package imports :mod:`repro.obs.live` (scheduler buses and rules), so
using :class:`~repro.serve.client.ServeClient` here would be a cycle.
Plain :mod:`urllib` against three endpoints is all it needs.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Callable, Dict, List, Optional, TextIO

from ..serve_metrics import parse_prometheus_totals
from .rules import RuleSet
from .watch import bar, finding_lines, frame_loop

__all__ = ["fetch_status", "render_top_frame", "top_loop"]


def _get(base_url: str, path: str, timeout: float) -> str:
    request = urllib.request.Request(base_url + path, method="GET")
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.read().decode("utf-8")


def fetch_status(
    base_url: str, timeout: float = 5.0
) -> Dict[str, object]:
    """One polling round against a serve daemon (the default fetcher).

    Returns ``{"healthz", "queue", "totals", "error"}``; an unreachable
    daemon yields ``error`` set and the other keys empty, so the
    monitor keeps ticking instead of crashing while a daemon restarts.
    """
    base_url = base_url.rstrip("/")
    try:
        healthz = json.loads(_get(base_url, "/healthz", timeout))
        queue = json.loads(_get(base_url, "/queue", timeout))
        totals = parse_prometheus_totals(
            _get(base_url, "/metrics", timeout)
        )
    except (urllib.error.URLError, OSError, ValueError) as exc:
        return {
            "healthz": {}, "queue": {}, "totals": {},
            "error": str(exc),
        }
    return {
        "healthz": healthz, "queue": queue, "totals": totals,
        "error": None,
    }


def render_top_frame(
    status: Dict[str, object],
    rules: Optional[RuleSet] = None,
    width: int = 78,
) -> str:
    """Render one ops frame as plain text (pure function)."""
    lines: List[str] = []
    error = status.get("error")
    if error:
        return f"daemon unreachable: {error}\n"
    healthz = status.get("healthz") or {}
    queue = status.get("queue") or {}
    totals = status.get("totals") or {}

    age = healthz.get("scheduler_heartbeat_age_seconds")
    header = (
        f"serve: {healthz.get('status', '?')}"
        f", workers {healthz.get('workers', '?')}"
        f", obs {healthz.get('obs_level', '?')}"
        f", up {float(healthz.get('uptime_seconds', 0.0)):.0f}s"
    )
    if age is not None:
        header += f", heartbeat {float(age):.1f}s ago"
    lines.append(header)

    profiler = healthz.get("profiler") or {}
    if profiler.get("sampling"):
        lines.append(
            "profiler: SAMPLING ACTIVE "
            f"({int(profiler.get('samples_collected', 0))} samples "
            "collected)"
        )

    pending = int(queue.get("pending_cells", 0))
    running = int(queue.get("running_cells", 0))
    limit = int(queue.get("max_pending_cells", 0) or 0)
    line = f"queue: {pending} pending / {running} running"
    if limit:
        line += f" (limit {limit})"
    lines.append(line)
    if limit:
        lines.append(
            "[" + bar(pending / limit, min(width - 2, 60)) + "]"
        )

    per_tenant = queue.get("pending_by_tenant") or {}
    if per_tenant:
        parts = ", ".join(
            f"{tenant}={count}"
            for tenant, count in sorted(per_tenant.items())
        )
        lines.append(f"tenants pending: {parts}")
    states = queue.get("jobs_by_state") or {}
    if states:
        parts = ", ".join(
            f"{count} {state}"
            for state, count in sorted(states.items())
        )
        lines.append(f"jobs: {parts}")

    computed = int(queue.get("cells_computed_total", 0))
    hits = int(queue.get("dedup_hits_total", 0))
    served = computed + hits
    line = f"cells: {computed} computed, {hits} dedup hits"
    if served:
        line += f" ({hits / served:.0%} dedup rate)"
    line += f", {int(queue.get('cached_cells', 0))} cached"
    lines.append(line)

    p95 = totals.get("serve.admission_to_first_record_p95_seconds")
    requests = totals.get("serve.http_requests")
    if p95 is not None or requests is not None:
        parts = []
        if p95 is not None:
            parts.append(f"first-record p95 {float(p95):.3f}s")
        if requests is not None:
            parts.append(f"{int(requests)} http requests")
        rejected = totals.get("serve.admission_rejected")
        if rejected:
            parts.append(f"{int(rejected)} rejected")
        lines.append("slo: " + ", ".join(parts))

    if rules is not None:
        findings = rules.evaluate(totals, subject="serve")
        if findings:
            lines.extend(finding_lines(findings, width))
        else:
            lines.append("rules: none firing")
    return "\n".join(lines) + "\n"


def top_loop(
    fetch: Callable[[], Dict[str, object]],
    rules: Optional[RuleSet] = None,
    ticks: Optional[int] = None,
    interval: float = 1.0,
    out: Optional[TextIO] = None,
    sleep: Callable[[float], None] = time.sleep,
    ansi: bool = True,
) -> Dict[str, object]:
    """Tick-driven ops monitor loop; returns the final status.

    Each tick calls ``fetch()`` and writes one frame to ``out``
    (prefixed with an ANSI clear when ``ansi``). Runs for ``ticks``
    ticks (``None`` = forever — the daemon, unlike a sweep, has no
    completion); inject ``fetch``/``sleep``/``out`` to test without a
    daemon, terminal or wall clock.
    """
    status: Dict[str, object] = {}

    def poll() -> bool:
        nonlocal status
        status = fetch()
        return False  # a daemon, unlike a sweep, never completes

    frame_loop(
        poll, lambda: render_top_frame(status, rules=rules),
        ticks, interval, out, sleep, ansi,
    )
    return status
