"""Process-global observability state and the fast-path emission API.

The library is instrumented with module-level helpers (:func:`count`,
:func:`gauge`, :func:`observe`, :func:`span`, :func:`event`) that check a
single integer level before doing anything. Observability is **off by
default**; at the default level every hook is one attribute load and one
integer comparison, which keeps the instrumented hot paths within the
perf gate's budget.

Levels (``--obs-level`` on the CLI and sweep runner):

* ``off`` — every hook is a no-op (the default);
* ``metrics`` — counters/gauges/histograms/timers accumulate in the
  global :class:`~.registry.MetricsRegistry`;
* ``trace`` — additionally, spans and instant events stream to the
  configured sink as structured JSONL records.

All state is per process. The process-parallel grid runners re-apply the
coordinator's level inside each worker and ship deterministic metric
summaries back embedded in the result records, so serial and parallel
sweeps stay record-identical (see :mod:`repro.experiments.cells`).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from .catalog import find_spec
from .registry import MetricsRegistry
from .sink import EventSink

__all__ = [
    "LEVELS",
    "configure",
    "enable",
    "disable",
    "enabled",
    "level",
    "get_registry",
    "set_sink",
    "get_sink",
    "reset",
    "count",
    "gauge",
    "observe",
    "event",
    "Bound",
    "span",
    "snapshot",
    "set_trace_context",
    "clear_trace_context",
]

#: Recognised observability levels, in increasing verbosity.
LEVELS = ("off", "metrics", "trace")

_OFF, _METRICS, _TRACE = 0, 1, 2

_level: int = _OFF
_registry = MetricsRegistry()
_sink: Optional[EventSink] = None
#: Ambient trace context merged into every emitted event (e.g. the
#: serve daemon's ``job``/``tenant`` attribution — see
#: :func:`set_trace_context`). Empty by default.
_context: Dict[str, object] = {}
#: perf_counter origin for event timestamps (relative, so traces from
#: one run are comparable regardless of process start time).
_epoch = time.perf_counter()


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
def configure(
    level: str = "off", sink: Optional[EventSink] = None
) -> None:
    """Set the global observability level (and optionally the sink).

    ``level`` is one of :data:`LEVELS`. Passing ``sink`` replaces (and
    closes) the current sink; passing ``None`` leaves it untouched.
    """
    global _level
    if level not in LEVELS:
        raise ValueError(
            f"unknown obs level {level!r}; expected one of {LEVELS}"
        )
    _level = LEVELS.index(level)
    if sink is not None:
        set_sink(sink)


def enable(level: str = "metrics") -> None:
    """Turn observability on at ``level`` (default: metrics only)."""
    configure(level)


def disable() -> None:
    """Turn every hook back into a no-op (the default state)."""
    configure("off")


def enabled() -> bool:
    """True when metrics are being collected (level >= metrics)."""
    return _level >= _METRICS


def level() -> str:
    """The current level name (``off`` / ``metrics`` / ``trace``)."""
    return LEVELS[_level]


def get_registry() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _registry


def set_sink(sink: Optional[EventSink]) -> None:
    """Install (or, with ``None``, remove) the event sink."""
    global _sink
    if _sink is not None and _sink is not sink:
        _sink.close()
    _sink = sink


def get_sink() -> Optional[EventSink]:
    """The currently installed event sink, if any."""
    return _sink


def reset() -> None:
    """Clear collected metrics and detach the sink (level unchanged).

    Used between runs (and by tests) so one run's telemetry never bleeds
    into the next.
    """
    _registry.clear()
    set_sink(None)
    clear_trace_context()


# ----------------------------------------------------------------------
# Trace context
# ----------------------------------------------------------------------
def set_trace_context(**fields: object) -> None:
    """Merge ``fields`` into the ambient trace context.

    Every subsequent :func:`event` (spans included) carries these
    fields, so a whole execution scope can be attributed without
    threading identifiers through every call site — the serve daemon
    stamps ``job`` and ``tenant`` here before running a cell, and the
    engine's phase events inherit them. Explicit event fields of the
    same name win. A ``None`` value removes the key.
    """
    for key, value in fields.items():
        if value is None:
            _context.pop(key, None)
        else:
            _context[key] = value


def clear_trace_context() -> None:
    """Drop every ambient trace-context field."""
    _context.clear()


# ----------------------------------------------------------------------
# Fast-path emission
# ----------------------------------------------------------------------
def count(name: str, amount: float = 1.0, **labels) -> None:
    """Add ``amount`` to the counter ``name`` (no-op when disabled)."""
    if _level == _OFF:
        return
    _registry.counter(name, **labels).add(amount)


def gauge(name: str, value: float, **labels) -> None:
    """Set the gauge ``name`` to ``value`` (no-op when disabled)."""
    if _level == _OFF:
        return
    _registry.gauge(name, **labels).set(value)


def observe(name: str, value: float, **labels) -> None:
    """Record one histogram/timer observation (no-op when disabled)."""
    if _level == _OFF:
        return
    _registry.observe(name, value, **labels)


def event(kind: str, name: str, /, **fields) -> None:
    """Emit one structured event to the sink (trace level only).

    ``kind`` and ``name`` are positional-only so fields with those
    names (e.g. a fault's ``kind``) can still ride along; such a field
    overrides the positional value in the emitted record.
    """
    if _level < _TRACE or _sink is None:
        return
    payload: Dict[str, object] = {
        "kind": kind,
        "name": name,
        "t": round(time.perf_counter() - _epoch, 9),
    }
    if _context:
        payload.update(_context)
    payload.update(fields)
    _sink.emit(payload)


class Bound:
    """A metric resolved once per label value, for hot emitters:
    ``BUSY = Bound("cluster.machine_busy_seconds", "machine")``, then
    ``BUSY[3].add(s)`` (after :func:`enabled`). Re-resolved after the
    registry is cleared (:func:`reset`)."""

    def __init__(self, name: str, label: str) -> None:
        self.name, self.label = name, label
        self._generation, self._instruments = -1, {}

    def __getitem__(self, value):
        if self._generation != _registry.generation:
            self._generation, self._instruments = _registry.generation, {}
        instrument = self._instruments.get(value)
        if instrument is None:
            access = getattr(_registry, find_spec(self.name).kind)
            instrument = access(self.name, **{self.label: value})
            self._instruments[value] = instrument
        return instrument


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class _NullSpan:
    """The span returned while observability is off: does nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    """A live profiling span: times its block and reports on exit."""

    __slots__ = ("name", "labels", "start")

    def __init__(self, name: str, labels: Dict[str, object]) -> None:
        self.name = name
        self.labels = labels
        self.start = 0.0

    def __enter__(self) -> "_Span":
        self.start = time.perf_counter()
        if _level >= _TRACE:
            event("span-begin", self.name, **self.labels)
        return self

    def __exit__(self, *exc) -> None:
        seconds = time.perf_counter() - self.start
        if _level >= _METRICS:
            _registry.timer("obs.span_seconds", span=self.name).observe(
                seconds
            )
        if _level >= _TRACE:
            event(
                "span-end", self.name, seconds=round(seconds, 9),
                **self.labels,
            )
        return None


def span(name: str, **labels):
    """Scoped profiling hook: ``with obs.span("gather", machine=3):``.

    Returns a context manager. Off: a shared no-op object (no
    allocation beyond the call). Metrics: the block's wall-clock
    duration is observed into the ``obs.span_seconds`` timer under the
    span ``name`` label; extra keyword labels ride along on trace
    events only. Trace: begin/end events stream to the sink.
    """
    if _level == _OFF:
        return _NULL_SPAN
    return _Span(name, labels)


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------
def snapshot() -> List[Dict[str, object]]:
    """Serializable dump of every collected metric (catalog order)."""
    return _registry.snapshot()
