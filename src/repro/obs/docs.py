"""Render the metric reference (``docs/observability.md``) from the catalog.

The generated document is the *only* human-facing metric reference; it is
produced from :data:`repro.obs.catalog.CATALOG` by
``scripts/gen_metric_docs.py`` and a CI gate re-renders and compares it,
so the reference cannot drift from the code. Do not edit the generated
file by hand — edit the catalog entries instead.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .catalog import CATALOG, MetricSpec

__all__ = ["render_metric_docs"]

_HEADER = """\
# Observability reference

> **Generated file — do not edit.** This document is rendered from
> `repro.obs.catalog.CATALOG` by `scripts/gen_metric_docs.py`; CI fails
> if it drifts from the code. Regenerate with:
>
> ```bash
> PYTHONPATH=src python scripts/gen_metric_docs.py
> ```

The library is instrumented with a central metrics registry
(`repro.obs`). Telemetry is **off by default** and costs one integer
comparison per hook when disabled. Three levels are available via
`repro.obs.configure(level)` or the `--obs-level` CLI flag:

| Level | Effect |
|---|---|
| `off` | every hook is a no-op (default) |
| `metrics` | counters / gauges / histograms / timers accumulate in the process-global registry |
| `trace` | additionally, spans and instant events stream to a JSONL sink (`--obs-out`) |

Metric names follow `<subsystem>.<metric>`, where the subsystem matches
the emitting package. Every metric below is declared exactly once in the
catalog; the registry rejects undeclared names and mismatched label
sets, so instrumentation and this reference stay in lock-step.

Units marked *simulated* are model-derived cluster seconds (straggler
phase times under the cost model), not wall-clock measurements; *wall*
units are measured with a monotonic clock on the host running the
simulation.
"""

#: Section title per subsystem prefix, in catalog order.
_SECTION_TITLES: Dict[str, str] = {
    "cluster": "Cluster and timeline",
    "distgnn": "DistGNN engine (full-batch)",
    "distdgl": "DistDGL engine (mini-batch)",
    "partitioner": "Partitioners",
    "partition_cache": "Partition cache",
    "comm": "Communication reduction",
    "serve": "Serve daemon",
    "obs": "Observability layer",
}

_ENDPOINTS = """\
## Daemon endpoints

The `serve.*` metrics are collected by the `repro serve` daemon when it
runs with `--obs-level metrics` (or `trace`) and are exposed over HTTP:

| Endpoint | Content |
|---|---|
| `GET /metrics` | Prometheus text exposition of every `serve.*` metric below (names are mangled `serve.http_requests` → `repro_serve_http_requests`) |
| `GET /healthz` | JSON readiness/liveness: scheduler start state, last runner-heartbeat age, queue saturation — works at every obs level |

`repro obs top <url>` renders these live in a terminal;
`repro.obs.parse_prometheus_totals` turns the exposition back into the
`{metric-name: total}` mapping the alert-rule engine
(`repro.obs.live.rules`) evaluates. At `--obs-level trace` the daemon
additionally writes per-job trace JSONL (`<data-dir>/<job>/trace*.jsonl`)
whose spans carry `job` and `tenant` fields end to end: HTTP admission →
scheduler dispatch → engine phases.
"""


def _subsystem(spec: MetricSpec) -> str:
    return spec.name.split(".", 1)[0]


def _spec_rows(specs: List[MetricSpec]) -> List[str]:
    rows = [
        "| Metric | Kind | Unit | Labels | Description |",
        "|---|---|---|---|---|",
    ]
    for spec in specs:
        labels = ", ".join(f"`{lab}`" for lab in spec.labels) or "—"
        help_text = " ".join(spec.help.split())
        rows.append(
            f"| `{spec.name}` | {spec.kind} | {spec.unit} | {labels} "
            f"| {help_text} |"
        )
    return rows


def _bucket_rows(specs: List[MetricSpec]) -> List[str]:
    rows = [
        "| Metric | Bucket upper bounds |",
        "|---|---|",
    ]
    for spec in specs:
        bounds = ", ".join(f"{b:g}" for b in spec.buckets or ())
        rows.append(f"| `{spec.name}` | {bounds}, +inf |")
    return rows


def render_metric_docs() -> str:
    """The full ``docs/observability.md`` markdown text."""
    grouped: Dict[str, List[MetricSpec]] = {}
    order: List[str] = []
    for spec in CATALOG:
        key = _subsystem(spec)
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(spec)

    lines: List[str] = [_HEADER]
    for key in order:
        title = _SECTION_TITLES.get(key, key)
        lines.append(f"## {title}")
        lines.append("")
        lines.extend(_spec_rows(grouped[key]))
        lines.append("")

    lines.append(_ENDPOINTS)

    bucketed = [spec for spec in CATALOG if spec.buckets]
    if bucketed:
        lines.append("## Histogram buckets")
        lines.append("")
        lines.append(
            "Cumulative bucket upper bounds for every histogram/timer "
            "(an implicit `+inf` overflow bucket always exists):"
        )
        lines.append("")
        lines.extend(_bucket_rows(bucketed))
        lines.append("")

    counts: Tuple[int, int] = (
        len(CATALOG),
        len({_subsystem(s) for s in CATALOG}),
    )
    lines.append(
        f"*{counts[0]} metrics across {counts[1]} subsystems.*"
    )
    lines.append("")
    return "\n".join(lines)
