"""In-memory span recorder for the traced benchmark pass.

Spans are recorded from the benchmark's own files, around the calls
into each layer's public functions (spans inside the program are a
later issue). A span is a dict ``{name, start, end, parent, ...attrs}``;
``parent`` is the index of the enclosing span on the same thread, so
a layer's self time is its duration minus its children's. Everything
stays in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from typing import Dict, Iterator, List, Optional


class NullTracer:
    """The untraced pass: ``span`` costs one no-op context manager."""

    enabled = False

    def span(self, name: str, **attrs: object):
        """A context manager that records nothing."""
        return contextlib.nullcontext({})


class Tracer:
    """Collects spans; thread-safe for the served-jobs client threads."""

    enabled = True

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Dict[str, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Dict[str, object]]:
        """Time one call into a layer; yields the (mutable) span record."""
        stack = self._local.__dict__.setdefault("stack", [])
        record: Dict[str, object] = {
            "name": name,
            "parent": stack[-1] if stack else None,
            "thread": threading.get_ident(),
            **attrs,
        }
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def _closed(self, name: Optional[str] = None) -> List[Dict[str, object]]:
        return [
            s for s in self.spans
            if "end" in s and (name is None or s["name"] == name)
        ]

    def total(self, name: str, **attrs: object) -> float:
        """Summed duration of every span called ``name`` (and matching
        ``attrs``)."""
        return sum(
            s["end"] - s["start"] for s in self._closed(name)
            if all(s.get(k) == v for k, v in attrs.items())
        )

    def count(self, name: str) -> int:
        """How many spans are called ``name``."""
        return len(self._closed(name))

    def attr_sum(self, name: str, attr: str) -> float:
        """Sum of one numeric attribute over the spans called ``name``."""
        return sum(s[attr] for s in self._closed(name))

    def durations(self, name: str) -> List[float]:
        """Every duration recorded under ``name``, in start order."""
        return [s["end"] - s["start"] for s in self._closed(name)]

    def top_level_total(self, since: float, until: float) -> float:
        """Summed duration of parentless spans inside ``[since, until]``
        over all threads — the numerator of ``trace.coverage_share``."""
        return sum(
            s["end"] - s["start"] for s in self._closed()
            if s["parent"] is None
            and s["start"] >= since and s["end"] <= until
        )

    def write(self, path: str) -> None:
        """Dump every span as JSON (the ``trace-<workload>.json`` file)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"workload": self.workload, "spans": self.spans}, handle
            )
