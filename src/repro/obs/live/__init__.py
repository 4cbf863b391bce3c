"""Live telemetry: the sweep event bus, watch monitor and alert rules.

The offline obs stack records what a run *did*; this package streams
what a sweep *is doing*. Three pieces:

* :mod:`.bus` — an append-only JSONL event bus. Every sweep worker
  writes heartbeat/progress events to its own per-process stream file
  through the existing :class:`~repro.obs.sink.JsonlSink`;
  :class:`~.bus.BusTailer` tails all streams incrementally (resumable
  byte offsets, truncation-tolerant like
  :func:`~repro.obs.sink.read_jsonl`) and merges them on a
  deterministic ``(cell, cseq)`` key, so the merged *simulated* state is
  identical whether the sweep ran serial or parallel.
* :mod:`.watch` — ``repro obs watch <dir>``: a tick-driven, plain-ANSI
  terminal monitor (injectable clock/stream, fully testable) showing
  per-worker progress, an ETA from completed-cell times, the phase mix,
  and streaming anomaly findings computed online with the same
  :mod:`repro.obs.analysis.anomaly` thresholds the post-hoc analyzer
  uses.
* :mod:`.rules` — a declarative alert-rule engine: threshold/ratio/
  absence predicates over catalog metric names, validated against
  :mod:`repro.obs.catalog`, with severities. ``repro sweep
  --rules FILE --abort-on critical`` evaluates them per finished cell
  and stops the sweep early when one fires at or above the bar.
* :mod:`.top` — ``repro obs top <url>``: the same tick-driven monitor
  shape pointed at a *serve daemon* instead of a sweep bus — polls
  ``/healthz`` + ``/queue`` + ``/metrics`` and shows queue saturation,
  tenant shares, dedup rate and firing SLO rules.
"""

from .bus import (
    BusTailer,
    BusWriter,
    record_event_fields,
)
from .rules import (
    AlertRule,
    RuleSet,
    SweepAborted,
    record_totals,
    severity_at_least,
)
from .top import (
    fetch_status,
    render_top_frame,
    top_loop,
)
from .watch import (
    WatchState,
    render_frame,
    watch_loop,
)

__all__ = [
    "BusWriter",
    "BusTailer",
    "record_event_fields",
    "AlertRule",
    "RuleSet",
    "SweepAborted",
    "record_totals",
    "severity_at_least",
    "WatchState",
    "render_frame",
    "watch_loop",
    "fetch_status",
    "render_top_frame",
    "top_loop",
]
