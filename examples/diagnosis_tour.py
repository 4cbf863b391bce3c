"""Tour of the telemetry analysis layer (``repro.obs.analysis``).

Runs a tiny sweep with telemetry on, then walks the diagnosis pipeline:

1. **attribution** — where does a run's wall time go?  Phase mix,
   compute-vs-skew decomposition and straggler charging straight from a
   :class:`~repro.cluster.Timeline`;
2. **analysis report** — fold sweep records into an
   :class:`~repro.obs.analysis.AnalysisReport` with typed, severity-
   ranked findings, and print the terminal summary;
3. **dashboard** — render the same report as a self-contained HTML file
   (inline CSS/JS, embedded JSON, opens offline from disk); its table
   view is the section list the terminal summary just printed;
4. **diffing** — compare two runs; a run diffed against itself must be
   clean, and a changed configuration shows up as typed cell changes.

Usage::

    PYTHONPATH=src python examples/diagnosis_tour.py
"""

import os
import tempfile

import numpy as np

from repro import obs
from repro.cluster import Timeline
from repro.experiments import TrainingParams, run_distgnn
from repro.graph import load_dataset
from repro.obs.analysis import (
    attribute_timeline,
    build_analysis_report,
    diff_runs,
    render_dashboard,
    render_report_text,
)
from repro.obs.analysis.load import RunData


def main() -> None:
    """Run the tour (tiny graph, a few seconds)."""
    graph = load_dataset("OR", "tiny")
    params = TrainingParams(feature_size=32, hidden_dim=32, num_layers=2)

    # -- 1. Attribution on a hand-built timeline: machine 2 straggles.
    timeline = Timeline()
    for _ in range(3):
        timeline.add_phases(["forward"], np.array([[1.0, 1.0, 1.6]]))
        timeline.add_phases(["backward"], np.array([[2.0, 2.0, 2.9]]))
    attribution = attribute_timeline(timeline)
    print(f"attribution: total {attribution.total_seconds:.1f}s = "
          f"{attribution.compute_seconds:.1f}s compute + "
          f"{attribution.skew_seconds:.1f}s skew "
          f"({attribution.skew_fraction:.0%} lost to stragglers)")
    worst = max(attribution.machines, key=lambda m: m.straggler_count)
    print(f"attribution: machine {worst.machine} bound "
          f"{worst.straggler_count} of {len(timeline.records)} barriers")

    # -- 2. Records -> analysis report with findings.
    obs.enable("metrics")
    records = [
        run_distgnn(graph, name, 4, params, seed=0)
        for name in ("random", "hdrf", "dbh")
    ]
    obs.reset()
    obs.disable()
    report = build_analysis_report(
        RunData(label="tour", records=records)
    )
    print()
    print(render_report_text(report.to_dict()))

    # -- 3. The same report as a single offline HTML file.
    out = os.path.join(tempfile.mkdtemp(prefix="repro-tour-"),
                       "dashboard.html")
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(render_dashboard(report.to_dict()))
    print(f"dashboard: wrote {out} "
          f"({os.path.getsize(out) / 1024:.0f} KiB, no network needed)")

    # -- 4. Diffing: self-diff is clean; a changed config is typed.
    run = RunData(label="tour", records=records)
    assert diff_runs(run, run).clean
    print("diff:      run vs itself -> clean (zero regressions)")

    bigger = RunData(
        label="k8",
        records=[run_distgnn(graph, "hdrf", 8, params, seed=0)],
    )
    diff = diff_runs(run, bigger)
    print(f"diff:      tour vs k8  -> clean={diff.clean}, "
          f"{len(diff.added_cells)} cells added, "
          f"{len(diff.removed_cells)} removed")


if __name__ == "__main__":
    main()
