"""Tour of the observability layer (``repro.obs``).

Walks the three telemetry levels end to end:

1. ``off`` (the default) — every hook is a no-op;
2. ``metrics`` — run a partitioner and one DistGNN epoch and inspect
   the counters/histograms the instrumentation collected;
3. ``trace`` — re-run with spans and instant events streaming into an
   in-memory sink, then show the event stream;

and finishes by folding a pair of experiment records (with their
deterministic ``obs_metrics`` summaries) into the one run report —
:func:`repro.obs.analysis.build_analysis_report`, rendered as markdown
(what ``repro obs analyze -o report.md`` writes).

Usage::

    PYTHONPATH=src python examples/observability_tour.py
"""

from repro import obs
from repro.distgnn import DistGnnEngine
from repro.experiments import TrainingParams, run_distgnn
from repro.graph import load_dataset
from repro.obs.analysis import (
    RunData,
    build_analysis_report,
    render_report_markdown,
)
from repro.partitioning import make_edge_partitioner


def main() -> None:
    """Run the tour (tiny graph, a few seconds)."""
    graph = load_dataset("OR", "tiny")

    # -- Level off: hooks cost one integer comparison and collect nothing.
    assert not obs.enabled()
    make_edge_partitioner("dbh").partition(graph, 4)
    assert len(obs.get_registry()) == 0
    print("off:      no instruments created")

    # -- Level metrics: the registry accumulates catalog-declared series.
    obs.enable("metrics")
    partition = make_edge_partitioner("hdrf").partition(graph, 4)
    engine = DistGnnEngine(
        partition, feature_size=32, hidden_dim=32, num_layers=2
    )
    engine.simulate_epoch()

    with obs.span("tour-block"):
        pass  # wall time of this block lands in obs.span_seconds

    snapshot = obs.snapshot()
    print(f"metrics:  {len(snapshot)} series collected, e.g.")
    for entry in snapshot:
        if entry["name"] in (
            "partitioner.runs",
            "partitioner.edges_assigned",
            "cluster.phase_seconds",
            "distgnn.epochs",
        ):
            print(f"  {entry['name']:32s} {entry['labels']}")
    obs.reset()

    # -- Level trace: spans/events additionally stream to a sink.
    sink = obs.MemorySink()
    obs.configure("trace", sink)
    with obs.span("epoch", machine=0):
        engine.simulate_epoch()
    obs.disable()
    kinds = {}
    for event in sink.events:
        kinds[event["kind"]] = kinds.get(event["kind"], 0) + 1
    print(f"trace:    {len(sink.events)} events -> "
          + ", ".join(f"{k}={n}" for k, n in sorted(kinds.items())))

    # -- Records + run report: obs_metrics is simulated-only and rides
    # on every record produced while telemetry is enabled.
    obs.enable("metrics")
    params = TrainingParams(feature_size=32, hidden_dim=32, num_layers=2)
    records = [
        run_distgnn(graph, "random", 4, params),
        run_distgnn(graph, "hdrf", 4, params),
    ]
    obs.reset()
    obs.disable()
    assert records[1].obs_metrics is not None
    report = build_analysis_report(
        RunData(label="tour", records=records)
    ).to_dict()
    attribution = report["attribution"]
    print(f"report:   {report['source']['num_records']} records, "
          f"speedup rows: {len(attribution['speedups']['rows'])}, "
          f"phase totals: {len(attribution['phase_mix']['phases'])}")
    print()
    print(render_report_markdown(report))


if __name__ == "__main__":
    main()
