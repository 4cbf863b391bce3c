"""Operational metrics for the ``repro serve`` daemon.

The engines use the process-global obs API because each cell process
owns its telemetry; the daemon cannot — runner threads and HTTP handler
threads share one process with the inline cell path, and the per-cell
deterministic ``obs_metrics`` summaries embedded in records must never
absorb daemon-side series. So :class:`ServeMetrics` owns a *private*
:class:`~repro.obs.registry.MetricsRegistry` (still validated against
the shared catalog — every ``serve.*`` name is declared there), guarded
by one lock, with every hook an early-return no-op when the daemon runs
with observability off.

The module also owns the Prometheus text exposition the daemon's
``GET /metrics`` serves (:func:`render_prometheus`), its inverse for
scrapers (:func:`parse_prometheus_totals` — the ``repro obs top``
monitor evaluates alert rules over scraped totals), and the bucket
quantile estimator behind the SLO gauge
``serve.admission_to_first_record_p95_seconds``.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Mapping, Optional, Tuple

from .catalog import find_spec, metric_names
from .registry import Histogram, MetricsRegistry, snapshot_totals
from .sink import EventSink

__all__ = [
    "ServeMetrics",
    "histogram_quantile",
    "render_prometheus",
    "parse_prometheus_totals",
    "prometheus_name",
]

#: Prefix for exposed metric names (``serve.http_requests`` becomes
#: ``repro_serve_http_requests``).
_PROM_PREFIX = "repro_"


def prometheus_name(name: str) -> str:
    """The exposition name for a catalog metric name."""
    return _PROM_PREFIX + name.replace(".", "_")


class ServeMetrics:
    """Thread-safe daemon telemetry over a private registry.

    ``enabled=False`` (the daemon default) turns every hook into one
    boolean test; the scheduler and HTTP layer call them
    unconditionally. ``sink`` receives structured request events
    (``http-request`` / ``http-log``) when set — the daemon's request
    log, replacing the stderr lines ``BaseHTTPRequestHandler`` would
    print.
    """

    def __init__(
        self,
        enabled: bool = False,
        sink: Optional[EventSink] = None,
    ) -> None:
        self.enabled = enabled
        self.sink = sink
        self.registry = MetricsRegistry()
        self._lock = threading.Lock()
        self._started_at = time.time()
        self._last_heartbeat: Optional[float] = None

    # ------------------------------------------------------------ HTTP
    def request_finished(
        self,
        method: str,
        route: str,
        status: int,
        seconds: float,
        tenant: Optional[str] = None,
    ) -> None:
        """A response was written: count and log the request."""
        if not self.enabled:
            return
        self._count(
            "serve.http_requests",
            method=method, route=route, status=status,
        )
        self._emit(
            "http-request", route,
            method=method, status=int(status),
            seconds=round(seconds, 9),
            **({"tenant": tenant} if tenant else {}),
        )

    def log(self, message: str) -> None:
        """An ``http.server`` log line, routed to the sink."""
        self._emit("http-log", "server", message=message)

    # ------------------------------------------------------- admission
    def job_admitted(self, tenant: str) -> None:
        """A job passed admission control."""
        self._count("serve.jobs_admitted", tenant=tenant)

    def job_finished(self, state: str) -> None:
        """A job reached a terminal state."""
        self._count("serve.jobs_finished", state=state)

    def admission_rejected(self, reason: str) -> None:
        """A submission was refused (queue-full or invalid-spec)."""
        self._count("serve.admission_rejected", reason=reason)

    def dedup_hit(self, tenant: str) -> None:
        """A submitted cell was satisfied without fresh compute."""
        self._count("serve.dedup_hits", tenant=tenant)

    # ------------------------------------------------------- execution
    def cell_finished(
        self, engine: str, wait_seconds: float, service_seconds: float
    ) -> None:
        """A cell executed: queue wait + service time, by engine."""
        if not self.enabled:
            return
        with self._lock:
            self.registry.counter(
                "serve.cells_computed", engine=engine
            ).add(1)
            self.registry.observe(
                "serve.cell_wait_seconds", max(wait_seconds, 0.0),
                engine=engine,
            )
            self.registry.observe(
                "serve.cell_service_seconds", max(service_seconds, 0.0),
                engine=engine,
            )

    def first_record(self, seconds: float) -> None:
        """A job's first cell result landed ``seconds`` after admission."""
        if not self.enabled:
            return
        with self._lock:
            self.registry.observe(
                "serve.admission_to_first_record_seconds",
                max(seconds, 0.0),
            )

    def heartbeat(self, now: Optional[float] = None) -> None:
        """A runner thread is alive (tracked even when disabled —
        /healthz reports the age regardless of the obs level)."""
        self._last_heartbeat = time.time() if now is None else now

    def heartbeat_age(self, now: Optional[float] = None) -> Optional[float]:
        """Seconds since the last runner heartbeat (None before one)."""
        if self._last_heartbeat is None:
            return None
        now = time.time() if now is None else now
        return max(now - self._last_heartbeat, 0.0)

    def uptime(self, now: Optional[float] = None) -> float:
        """Seconds since this metrics scope (the daemon) was created."""
        now = time.time() if now is None else now
        return max(now - self._started_at, 0.0)

    # ----------------------------------------------------- state gauges
    def refresh_queue(
        self,
        depth: Mapping[Tuple[str, int], int],
        total: int,
        capacity: int,
        cached_cells: int,
    ) -> None:
        """Overwrite every scheduler-state gauge from a live snapshot.

        Existing ``serve.queue_depth`` series not present in ``depth``
        are zeroed (a drained tenant's gauge must not hold its last
        value forever).
        """
        if not self.enabled:
            return
        with self._lock:
            for instrument in self.registry.instruments():
                if instrument.spec.name == "serve.queue_depth":
                    instrument.set(0.0)  # type: ignore[attr-defined]
            for (tenant, priority), cells in depth.items():
                self.registry.gauge(
                    "serve.queue_depth",
                    tenant=tenant, priority=priority,
                ).set(cells)
            self.registry.gauge("serve.queue_depth_total").set(total)
            self.registry.gauge("serve.queue_capacity").set(capacity)
            self.registry.gauge("serve.cell_cache_size").set(cached_cells)

    # --------------------------------------------------------- export
    def snapshot(self) -> List[Dict[str, object]]:
        """The registry snapshot, with the derived SLO gauge refreshed
        (the first-record p95) so rules and scrapers see it as an
        ordinary catalog series."""
        if not self.enabled:
            return []
        with self._lock:
            latency = next(
                (
                    inst for inst in self.registry.instruments()
                    if inst.spec.name
                    == "serve.admission_to_first_record_seconds"
                ),
                None,
            )
            if isinstance(latency, Histogram) and latency.count:
                self.registry.gauge(
                    "serve.admission_to_first_record_p95_seconds"
                ).set(histogram_quantile(latency, 0.95))
            return self.registry.snapshot()

    def totals(self) -> Dict[str, float]:
        """Rule-ready totals of the current snapshot: one number per
        metric name (:func:`~.registry.snapshot_totals`), the mapping
        :meth:`~repro.obs.live.rules.RuleSet.evaluate` consumes and
        :func:`parse_prometheus_totals` reconstructs from the text
        exposition on the scraper side."""
        return snapshot_totals(self.snapshot())

    # --------------------------------------------------------- private
    def _count(self, name: str, amount: float = 1.0, **labels) -> None:
        if not self.enabled:
            return
        with self._lock:
            self.registry.counter(name, **labels).add(amount)

    def _emit(self, kind: str, name: str, **fields) -> None:
        sink = self.sink
        if sink is None:
            return
        payload: Dict[str, object] = {
            "kind": kind, "name": name, "t_wall": round(time.time(), 6),
        }
        payload.update(fields)
        with self._lock:
            sink.emit(payload)

    def close(self) -> None:
        """Flush and close the request-log sink, if any."""
        sink, self.sink = self.sink, None
        if sink is not None:
            sink.close()


def histogram_quantile(histogram: Histogram, q: float) -> float:
    """Estimate the ``q`` quantile from a histogram's buckets.

    Linear interpolation inside the bucket holding the target rank
    (Prometheus ``histogram_quantile`` semantics, with the first bucket
    interpolated from zero); the overflow bucket is clamped to the
    tracked maximum, which a single process knows exactly.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if histogram.count == 0:
        return 0.0
    rank = q * histogram.count
    bounds = list(histogram.spec.buckets or ())
    cumulative = 0
    for i, in_bucket in enumerate(histogram.bucket_counts):
        if cumulative + in_bucket >= rank and in_bucket > 0:
            if i >= len(bounds):  # overflow bucket
                return histogram.max
            lower = bounds[i - 1] if i > 0 else 0.0
            fraction = (rank - cumulative) / in_bucket
            return lower + (bounds[i] - lower) * min(fraction, 1.0)
        cumulative += in_bucket
    return histogram.max


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _escape(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")
    )


def _label_str(labels: Mapping[str, object]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape(str(value))}"'
        for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _format(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_prometheus(entries: List[Dict[str, object]]) -> str:
    """Render snapshot entries as Prometheus text exposition.

    Counters and gauges render one sample per label set; histograms and
    timers render cumulative ``_bucket{le=...}`` samples plus ``_sum``
    and ``_count``, exactly the shape ``histogram_quantile`` expects on
    a real Prometheus server.
    """
    lines: List[str] = []
    seen_help: set = set()
    for entry in entries:
        name = str(entry["name"])
        spec = find_spec(name)
        prom = prometheus_name(name)
        labels = dict(entry.get("labels", {}))
        if name not in seen_help:
            seen_help.add(name)
            prom_type = (
                "histogram" if spec.kind in ("histogram", "timer")
                else spec.kind
            )
            lines.append(f"# HELP {prom} {' '.join(spec.help.split())}")
            lines.append(f"# TYPE {prom} {prom_type}")
        if spec.kind in ("histogram", "timer"):
            cumulative = 0.0
            for bound, in_bucket in dict(entry["buckets"]).items():
                cumulative += float(in_bucket)
                le = "+Inf" if bound == "+inf" else bound
                lines.append(
                    f"{prom}_bucket{_label_str({**labels, 'le': le})} "
                    f"{_format(cumulative)}"
                )
            lines.append(
                f"{prom}_sum{_label_str(labels)} "
                f"{_format(float(entry['sum']))}"
            )
            lines.append(
                f"{prom}_count{_label_str(labels)} "
                f"{_format(float(entry['count']))}"
            )
        else:
            lines.append(
                f"{prom}{_label_str(labels)} "
                f"{_format(float(entry['value']))}"
            )
    return "\n".join(lines) + "\n"


def _reverse_map() -> Dict[str, str]:
    """Exposition base name -> catalog name, for every declared metric."""
    return {prometheus_name(name): name for name in metric_names()}


def parse_prometheus_totals(text: str) -> Dict[str, float]:
    """Fold a text exposition back into rule-ready per-name totals.

    The inverse of :func:`render_prometheus` composed with
    :meth:`ServeMetrics.totals`: counters and gauges sum across label
    sets, histograms contribute their ``_sum``. Unknown names and
    malformed lines are skipped (a scraper must tolerate a newer
    server).
    """
    reverse = _reverse_map()
    totals: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        sample = line.split("{", 1)[0].split(" ", 1)[0]
        try:
            value = float(line.rsplit(" ", 1)[1])
        except (IndexError, ValueError):
            continue
        name = reverse.get(sample)
        if name is None and sample.endswith("_sum"):
            name = reverse.get(sample[: -len("_sum")])
        elif name is None:
            continue  # _bucket / _count / foreign samples
        if name is None:
            continue
        totals[name] = totals.get(name, 0.0) + value
    return totals
