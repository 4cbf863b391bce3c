"""Declarative metric catalog: the single source of truth for telemetry.

Every metric the library can emit is declared here exactly once, with its
kind, unit, label schema and help text. The registry refuses to create an
instrument whose name is not in the catalog, so code and catalog cannot
drift apart; ``docs/observability.md`` is rendered *from* this module
(``scripts/gen_metric_docs.py``), so the documentation cannot drift
either — a CI gate regenerates and compares it.

Naming convention: ``<subsystem>.<metric>`` with the subsystem matching
the package that emits it (``cluster``, ``distgnn``, ``distdgl``,
``partitioner``, ``partition_cache``, ``comm``, ``serve``, ``obs``,
``profiling``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = ["MetricSpec", "CATALOG", "find_spec", "metric_names"]

#: Valid instrument kinds.
KINDS = ("counter", "gauge", "histogram", "timer")


@dataclass(frozen=True)
class MetricSpec:
    """One catalog entry: the declaration of a metric.

    ``labels`` is the exact set of label keys every emission must carry
    (e.g. ``("machine",)``); ``buckets`` (histograms/timers only) are the
    upper bounds of the cumulative distribution buckets.
    """

    name: str
    kind: str
    unit: str
    help: str
    labels: Tuple[str, ...] = ()
    buckets: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.buckets is not None and self.kind not in (
            "histogram", "timer"
        ):
            raise ValueError(
                f"{self.name}: only histograms/timers take buckets"
            )
        if self.buckets is not None and list(self.buckets) != sorted(
            self.buckets
        ):
            raise ValueError(f"{self.name}: buckets must be ascending")


#: Default bucket bounds for wall-clock timers (seconds).
_TIME_BUCKETS = (1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)
#: Default bucket bounds for per-chunk edge/vertex counts.
_SIZE_BUCKETS = (64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0)

#: Every metric the library emits. Grouped by subsystem; order is the
#: order the generated reference documents them in.
CATALOG: Tuple[MetricSpec, ...] = (
    # ------------------------------------------------------------- cluster
    MetricSpec(
        "cluster.phase_seconds", "timer", "seconds (simulated)",
        "Straggler duration of each barrier-separated phase recorded on "
        "the BSP timeline, labelled with the phase name "
        "(forward-l0, fetch, checkpoint, replay:*, ...).",
        labels=("phase",), buckets=_TIME_BUCKETS,
    ),
    MetricSpec(
        "cluster.machine_busy_seconds", "counter", "seconds (simulated)",
        "Per-machine busy time summed over all recorded phases; the "
        "balance analyses (paper Figures 5/14/17) derive from its skew.",
        labels=("machine",),
    ),
    MetricSpec(
        "cluster.bytes_sent", "counter", "bytes",
        "Bytes sent per machine port across all communication phases.",
        labels=("machine",),
    ),
    MetricSpec(
        "cluster.bytes_received", "counter", "bytes",
        "Bytes received per machine port across all communication phases.",
        labels=("machine",),
    ),
    MetricSpec(
        "cluster.lost_messages", "counter", "count",
        "Injected lost messages charged to a machine's port by the fault "
        "layer.",
        labels=("machine",),
    ),
    MetricSpec(
        "cluster.memory_peak_bytes", "gauge", "bytes",
        "Peak of the per-machine memory ledger (structure, features, "
        "activations, caches, communication buffers).",
        labels=("machine",),
    ),
    # ------------------------------------------------------------- distgnn
    MetricSpec(
        "distgnn.epochs", "counter", "count",
        "Full-batch epochs simulated (replayed recovery epochs included).",
    ),
    MetricSpec(
        "distgnn.epoch_seconds", "timer", "seconds (simulated)",
        "Simulated duration of each full-batch epoch (sum of straggler "
        "phase times).",
        buckets=_TIME_BUCKETS,
    ),
    MetricSpec(
        "distgnn.network_bytes", "counter", "bytes",
        "Total traffic per epoch: halo synchronisation in both "
        "directions plus the gradient all-reduce.",
    ),
    MetricSpec(
        "distgnn.replayed_epochs", "counter", "count",
        "Epochs re-executed after a crash restore (epoch mod "
        "checkpoint_every at the crash point).",
    ),
    # ------------------------------------------------------------- distdgl
    MetricSpec(
        "distdgl.network_bytes", "counter", "bytes",
        "Traffic per step: shipped edge lists, remote feature fetches, "
        "retransmits and the gradient all-reduce.",
    ),
    MetricSpec(
        "distdgl.remote_input_vertices", "counter", "count",
        "Input vertices fetched from a remote owner (the feature-loading "
        "traffic the paper attributes to the edge-cut).",
    ),
    MetricSpec(
        "distdgl.cache_hits", "counter", "count",
        "Remote input vertices served by the static degree-based feature "
        "cache instead of the network.",
    ),
    MetricSpec(
        "distdgl.degraded_steps", "counter", "count",
        "Steps executed with fewer than all workers (graceful "
        "degradation after a crash).",
    ),
    # --------------------------------------------------------- partitioner
    MetricSpec(
        "partitioner.runs", "counter", "count",
        "Completed partitioner invocations, labelled with the algorithm "
        "name (hdrf, metis, ...).",
        labels=("algorithm",),
    ),
    MetricSpec(
        "partitioner.edges_assigned", "counter", "count",
        "Edges assigned by vertex-cut (edge partitioning) runs.",
        labels=("algorithm",),
    ),
    MetricSpec(
        "partitioner.chunk_items", "histogram", "count",
        "Items (edges or vertices) per streamed chunk of the vectorised "
        "kernels, labelled with the kernel (hdrf, ldg, fennel).",
        labels=("kernel",), buckets=_SIZE_BUCKETS,
    ),
    MetricSpec(
        "partitioner.chunk_seconds", "timer", "seconds (wall)",
        "Wall-clock time per streamed chunk of the vectorised kernels; "
        "together with partitioner.chunk_items this gives per-chunk "
        "throughput.",
        labels=("kernel",), buckets=_TIME_BUCKETS,
    ),
    # ----------------------------------------------------- partition cache
    MetricSpec(
        "partition_cache.hits", "counter", "count",
        "Partition requests served from the process-wide LRU cache.",
    ),
    MetricSpec(
        "partition_cache.misses", "counter", "count",
        "Partition requests that had to run the partitioner.",
    ),
    # ---------------------------------------------------------------- serve
    MetricSpec(
        "serve.http_requests", "counter", "count",
        "HTTP requests served by the daemon, labelled with the method, "
        "the normalised route template (e.g. /jobs/{id}) and the "
        "response status code.",
        labels=("method", "route", "status"),
    ),
    MetricSpec(
        "serve.jobs_admitted", "counter", "count",
        "Sweep jobs accepted by admission control, per tenant.",
        labels=("tenant",),
    ),
    MetricSpec(
        "serve.jobs_finished", "counter", "count",
        "Jobs that reached a terminal state, labelled with that state "
        "(done, failed, cancelled, aborted).",
        labels=("state",),
    ),
    MetricSpec(
        "serve.admission_rejected", "counter", "count",
        "Job submissions refused at admission, by reason: queue-full "
        "(the 429 path) or invalid-spec (the 400 path).",
        labels=("reason",),
    ),
    MetricSpec(
        "serve.queue_depth", "gauge", "count",
        "Pending (queued, not yet running) cells per tenant and "
        "priority class.",
        labels=("tenant", "priority"),
    ),
    MetricSpec(
        "serve.queue_depth_total", "gauge", "count",
        "Pending cells across all tenants and priorities — the "
        "admission-control fill level.",
    ),
    MetricSpec(
        "serve.queue_capacity", "gauge", "count",
        "The admission bound (max_pending_cells); queue_depth_total / "
        "queue_capacity is the saturation ratio /healthz reports.",
    ),
    MetricSpec(
        "serve.cell_wait_seconds", "timer", "seconds (wall)",
        "Queue wait per executed cell: enqueue to dispatch, by engine.",
        labels=("engine",), buckets=_TIME_BUCKETS,
    ),
    MetricSpec(
        "serve.cell_service_seconds", "timer", "seconds (wall)",
        "Execution time per cell: dispatch to result, by engine.",
        labels=("engine",), buckets=_TIME_BUCKETS,
    ),
    MetricSpec(
        "serve.admission_to_first_record_seconds", "timer",
        "seconds (wall)",
        "Per job: admission (POST /jobs accepted) to the first cell "
        "result landing — the user-visible time to first record.",
        buckets=_TIME_BUCKETS,
    ),
    MetricSpec(
        "serve.admission_to_first_record_p95_seconds", "gauge",
        "seconds (wall)",
        "The p95 of serve.admission_to_first_record_seconds, "
        "interpolated from its buckets at snapshot time so threshold "
        "alert rules can target a latency SLO directly.",
    ),
    MetricSpec(
        "serve.dedup_hits", "counter", "count",
        "Cells satisfied by an identical in-flight or cached cell "
        "instead of fresh compute, per requesting tenant.",
        labels=("tenant",),
    ),
    MetricSpec(
        "serve.cells_computed", "counter", "count",
        "Cells actually executed (after dedup), by engine.",
        labels=("engine",),
    ),
    MetricSpec(
        "serve.cell_cache_size", "gauge", "count",
        "Completed-cell results currently held by the dedup LRU.",
    ),
    # ----------------------------------------------------------------- obs
    MetricSpec(
        "obs.span_seconds", "timer", "seconds (wall)",
        "Wall-clock duration of user-scoped profiling spans "
        "(``with obs.span(name):``), labelled with the span name.",
        labels=("span",), buckets=_TIME_BUCKETS,
    ),
    # ----------------------------------------------------------- profiling
    MetricSpec(
        "profiling.captures", "counter", "count",
        "Finished cProfile captures (explicit ``capture`` blocks and "
        "enabled ``profile_scope`` hooks), labelled with the capture "
        "scope name.",
        labels=("scope",),
    ),
    MetricSpec(
        "profiling.capture_seconds", "timer", "seconds (wall)",
        "Wall-clock duration of each cProfile capture window (the "
        "profiled block itself, tracing overhead included), per "
        "scope.",
        labels=("scope",), buckets=_TIME_BUCKETS,
    ),
)

_BY_NAME: Dict[str, MetricSpec] = {spec.name: spec for spec in CATALOG}
if len(_BY_NAME) != len(CATALOG):  # pragma: no cover - authoring error
    raise RuntimeError("duplicate metric names in CATALOG")


def find_spec(name: str) -> MetricSpec:
    """Return the catalog entry for ``name``; raise KeyError if absent."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"metric {name!r} is not declared in repro.obs.catalog.CATALOG"
        ) from None


def metric_names() -> Tuple[str, ...]:
    """All declared metric names, in catalog order."""
    return tuple(spec.name for spec in CATALOG)
