"""Unified observability layer: metric registry, spans, and event sinks.

Usage::

    from repro import obs

    obs.enable("metrics")              # off by default
    obs.count("distgnn.epochs")
    with obs.span("gather", machine=3):
        ...                            # timed into obs.span_seconds
    print(obs.snapshot())

Every metric is declared once in :mod:`repro.obs.catalog`; the registry
(:mod:`repro.obs.registry`) validates names and label schemas against it,
and ``docs/observability.md`` is rendered from it
(:mod:`repro.obs.docs`), so code and documentation cannot drift. Trace
level additionally streams structured JSONL events to a sink
(:mod:`repro.obs.sink`).
"""

from .api import (
    LEVELS,
    clear_trace_context,
    configure,
    count,
    disable,
    enable,
    enabled,
    event,
    gauge,
    get_registry,
    get_sink,
    get_trace_context,
    level,
    observe,
    reset,
    save_metrics,
    set_sink,
    set_trace_context,
    snapshot,
    span,
    tracing,
)
from .catalog import CATALOG, MetricSpec, find_spec, metric_names
from .docs import render_metric_docs
from .profiling import (
    Profile,
    ThreadSampler,
    profile_diff,
    profile_scope,
    render_flamegraph,
)
from .memory import (
    PeakMemoryTracker,
    read_rss_high_water,
    reset_rss_high_water,
)
from .registry import Counter, Gauge, Histogram, MetricsRegistry, Timer
from .serve_metrics import (
    ServeMetrics,
    histogram_quantile,
    parse_prometheus_totals,
    prometheus_name,
    render_prometheus,
)
from .sink import EventSink, JsonlSink, MemorySink, read_jsonl

__all__ = [
    # api
    "LEVELS",
    "configure",
    "enable",
    "disable",
    "enabled",
    "tracing",
    "level",
    "get_registry",
    "set_sink",
    "get_sink",
    "reset",
    "count",
    "gauge",
    "observe",
    "event",
    "span",
    "snapshot",
    "save_metrics",
    "set_trace_context",
    "get_trace_context",
    "clear_trace_context",
    # serve metrics
    "ServeMetrics",
    "histogram_quantile",
    "render_prometheus",
    "parse_prometheus_totals",
    "prometheus_name",
    # catalog
    "CATALOG",
    "MetricSpec",
    "find_spec",
    "metric_names",
    # registry
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    # sink
    "EventSink",
    "MemorySink",
    "JsonlSink",
    "read_jsonl",
    # profiling
    "Profile",
    "ThreadSampler",
    "profile_diff",
    "profile_scope",
    "render_flamegraph",
    # docs
    "render_metric_docs",
    # memory
    "PeakMemoryTracker",
    "read_rss_high_water",
    "reset_rss_high_water",
]
