"""Metric instruments and the registry that owns them.

Four instrument kinds, matching the catalog declarations:

* :class:`Counter` — monotonically increasing total (``add``);
* :class:`Gauge` — last-written value with a high-watermark (``set``);
* :class:`Histogram` — count/sum/min/max plus cumulative bucket counts
  (``observe``);
* :class:`Timer` — a histogram whose unit is seconds.

Instruments are keyed by ``(name, sorted labels)``; the registry
get-or-creates them lazily and validates every access against
:mod:`.catalog` — an undeclared metric name or a label set that does not
match the declared schema raises immediately, so instrumentation bugs
surface at the call site rather than as silently missing series.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Mapping, Tuple

from .catalog import MetricSpec, find_spec

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "snapshot_totals",
]

LabelItems = Tuple[Tuple[str, str], ...]

_GENERATIONS = itertools.count()


class _Instrument:
    """Shared bookkeeping: the spec and the concrete label values."""

    __slots__ = ("spec", "labels")

    def __init__(self, spec: MetricSpec, labels: LabelItems) -> None:
        self.spec = spec
        self.labels = labels

    def value_dict(self) -> Dict[str, object]:
        """The instrument's current value(s) as plain JSON-able data."""
        raise NotImplementedError


class Counter(_Instrument):
    """Monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self, spec: MetricSpec, labels: LabelItems) -> None:
        super().__init__(spec, labels)
        self.value = 0.0

    def add(self, amount: float = 1.0) -> None:
        """Increase the counter; negative increments are rejected."""
        if amount < 0:
            raise ValueError(
                f"{self.spec.name}: counters only go up (got {amount})"
            )
        self.value += amount

    def value_dict(self) -> Dict[str, object]:
        """``{"value": total}``."""
        return {"value": self.value}


class Gauge(_Instrument):
    """Last-written value, with the maximum ever written alongside."""

    __slots__ = ("value", "max_value")

    def __init__(self, spec: MetricSpec, labels: LabelItems) -> None:
        super().__init__(spec, labels)
        self.value = 0.0
        self.max_value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge; the high-watermark updates automatically."""
        self.value = float(value)
        if value > self.max_value:
            self.max_value = float(value)

    def value_dict(self) -> Dict[str, object]:
        """``{"value": last, "max": high_watermark}``."""
        return {"value": self.value, "max": self.max_value}


class Histogram(_Instrument):
    """count/sum/min/max summary plus cumulative bucket counts."""

    __slots__ = ("count", "total", "min", "max", "bucket_counts")

    def __init__(self, spec: MetricSpec, labels: LabelItems) -> None:
        super().__init__(spec, labels)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        bounds = spec.buckets or ()
        self.bucket_counts = [0] * (len(bounds) + 1)  # +inf overflow

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        bounds = self.spec.buckets or ()
        for i, bound in enumerate(bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        """Mean observation (0.0 before the first one)."""
        return self.total / self.count if self.count else 0.0

    def value_dict(self) -> Dict[str, object]:
        """Summary stats plus per-bucket counts keyed by upper bound."""
        bounds = [str(b) for b in (self.spec.buckets or ())] + ["+inf"]
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "buckets": dict(zip(bounds, self.bucket_counts)),
        }


class Timer(Histogram):
    """A histogram of durations in seconds."""

    __slots__ = ()


_KIND_CLASSES = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
    "timer": Timer,
}


class MetricsRegistry:
    """Owns every instrument created in this process (or scope).

    Access methods (:meth:`counter`, :meth:`gauge`, :meth:`histogram`,
    :meth:`timer`) validate the name against the catalog and the label
    keys against the declared schema, then get-or-create the instrument
    for that exact label combination.
    """

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, LabelItems], _Instrument] = {}
        #: Process-unique, renewed by :meth:`clear` (see ``api.Bound``).
        self.generation = next(_GENERATIONS)

    # ------------------------------------------------------------------
    # Instrument access
    # ------------------------------------------------------------------
    def _get(self, name: str, kind: str, labels: Dict) -> _Instrument:
        spec = find_spec(name)
        if spec.kind != kind:
            raise TypeError(
                f"metric {name!r} is a {spec.kind}, accessed as {kind}"
            )
        if tuple(sorted(labels)) != tuple(sorted(spec.labels)):
            raise ValueError(
                f"metric {name!r} takes labels {sorted(spec.labels)}, "
                f"got {sorted(labels)}"
            )
        items: LabelItems = tuple(
            sorted((k, str(v)) for k, v in labels.items())
        )
        key = (name, items)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = _KIND_CLASSES[kind](spec, items)
            self._instruments[key] = instrument
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        """The :class:`Counter` registered as ``name`` for ``labels``."""
        return self._get(name, "counter", labels)  # type: ignore[return-value]

    def gauge(self, name: str, **labels) -> Gauge:
        """The :class:`Gauge` registered as ``name`` for ``labels``."""
        return self._get(name, "gauge", labels)  # type: ignore[return-value]

    def histogram(self, name: str, **labels) -> Histogram:
        """The :class:`Histogram` registered as ``name`` for ``labels``."""
        return self._get(name, "histogram", labels)  # type: ignore[return-value]

    def timer(self, name: str, **labels) -> Timer:
        """The :class:`Timer` registered as ``name`` for ``labels``."""
        return self._get(name, "timer", labels)  # type: ignore[return-value]

    def observe(self, name: str, value: float, **labels) -> None:
        """Record an observation on the histogram *or* timer ``name``."""
        kind = find_spec(name).kind
        if kind not in ("histogram", "timer"):
            raise TypeError(
                f"metric {name!r} is a {kind}; observe() needs a "
                "histogram or timer"
            )
        self._get(name, kind, labels).observe(value)  # type: ignore[union-attr]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._instruments)

    def instruments(self) -> List[_Instrument]:
        """All live instruments, in deterministic (name, labels) order."""
        return [
            self._instruments[key] for key in sorted(self._instruments)
        ]

    def snapshot(self) -> List[Dict[str, object]]:
        """Serializable dump: one entry per instrument with its values."""
        entries = []
        for instrument in self.instruments():
            spec = instrument.spec
            entries.append(
                {
                    "name": spec.name,
                    "kind": spec.kind,
                    "unit": spec.unit,
                    "labels": dict(instrument.labels),
                    **instrument.value_dict(),
                }
            )
        return entries

    def clear(self) -> None:
        """Drop every instrument (a fresh scope for the next run)."""
        self._instruments.clear()
        self.generation = next(_GENERATIONS)


def snapshot_totals(
    entries: Iterable[Mapping[str, object]]
) -> Dict[str, float]:
    """Fold snapshot entries to one number per metric name.

    Counters and gauges sum across label sets; histograms and timers
    contribute their observation sum. This is the mapping alert rules
    and the snapshot anomaly detectors evaluate.
    """
    totals: Dict[str, float] = {}
    for entry in entries:
        name = str(entry.get("name"))
        if "sum" in entry:  # histogram / timer
            value = float(entry["sum"])
        else:
            value = float(entry.get("value", 0.0))
        totals[name] = totals.get(name, 0.0) + value
    return totals
