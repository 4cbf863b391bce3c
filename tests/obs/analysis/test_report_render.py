"""Report building and the renderers (text + HTML dashboard)."""

import json
import re

import pytest

from repro.obs.analysis import (
    build_analysis_report,
    per_partitioner_breakdown,
    render_dashboard,
    render_diff_text,
    render_report_markdown,
    render_report_text,
    report_sections,
)
from repro.obs.analysis.load import RunData


def make_run(make_record, make_dgl_record):
    records = [
        make_record(
            partitioner=name,
            epoch_seconds=seconds,
            obs_metrics={
                "phase_seconds": {"forward": 0.4, "backward": 0.6}
            },
        )
        for name, seconds in (("random", 1.0), ("hdrf", 0.5))
    ]
    records.append(make_dgl_record(partitioner="metis"))
    return RunData(label="test-run", records=records)


def test_per_partitioner_breakdown_shapes(make_record, make_dgl_record):
    run = make_run(make_record, make_dgl_record)
    breakdown = per_partitioner_breakdown(run.records)
    assert set(breakdown) == {"distgnn", "distdgl"}
    entry = breakdown["distgnn"]["hdrf"]
    assert entry["cells"] == 1
    assert entry["mean_epoch_seconds"] == 0.5
    # Full-batch records decompose into forward/backward/sync.
    assert set(entry["phase_seconds"]) == {"forward", "backward", "sync"}
    # Mini-batch records carry their own phase table.
    assert "fetch" in breakdown["distdgl"]["metis"]["phase_seconds"]
    fractions = entry["phase_fractions"]
    assert abs(sum(fractions.values()) - 1.0) < 1e-12


def test_build_report_structure(make_record, make_dgl_record):
    run = make_run(make_record, make_dgl_record)
    report = build_analysis_report(run)
    data = report.to_dict()
    assert data["schema"] == 2
    assert data["source"]["label"] == "test-run"
    assert data["summary"]["engines"] == ["distdgl", "distgnn"]
    assert "thresholds" in data["summary"]
    assert data["attribution"]["phase_mix"]["total_seconds"] > 0
    assert "per_partitioner" in data["attribution"]


def test_report_notes_truncated_traces(make_record):
    run = RunData(records=[make_record()], skipped_lines=3)
    report = build_analysis_report(run)
    truncated = [
        f for f in report.findings if f.kind == "trace-truncated"
    ]
    assert len(truncated) == 1
    assert truncated[0].value == 3.0


def test_render_report_text(make_record, make_dgl_record):
    run = make_run(make_record, make_dgl_record)
    text = render_report_text(build_analysis_report(run).to_dict())
    assert "analysis: test-run" in text
    assert "Critical path" in text
    assert "distgnn" in text and "distdgl" in text
    assert "\x1b" not in text  # no ANSI; CI-log safe


def _full_report(make_record, make_dgl_record, machine_snapshot):
    """A report that populates every section: baseline + comm + faults
    + telemetry + machines + a finding."""
    from repro.experiments import CommConfig, FaultConfig

    run = make_run(make_record, make_dgl_record)
    run.records.append(
        make_record(
            partitioner="dbh",
            comm_config=CommConfig(compression="fp16"),
            traffic_saved_bytes=5e5,
        )
    )
    for record in run.records:
        record.fault_config = FaultConfig(crash_rate=0.5)
        record.crashes = record.slowdowns = record.lost_messages = 1
        record.makespan_seconds, record.recovery_seconds = 2.0, 1.5
    run.metrics = machine_snapshot
    run.skipped_lines = 1
    return build_analysis_report(run).to_dict()


def _dashboard_tables(html):
    match = re.search(
        r'<script type="application/json" id="sections-data">'
        r"(.*?)</script>", html, re.S,
    )
    return json.dumps(
        json.loads(match.group(1).replace("<\\/", "</")),
        ensure_ascii=False,
    )


@pytest.mark.parametrize("renderer", [
    render_report_text,
    render_report_markdown,
    lambda report: _dashboard_tables(render_dashboard(report)),
], ids=["text", "markdown", "html"])
def test_every_renderer_walks_the_same_sections(
    renderer, monkeypatch, make_record, make_dgl_record, machine_snapshot
):
    """Text, markdown and HTML are three notations of one section list:
    a section added to ``report_sections`` shows up in all of them."""
    from repro.obs.analysis import dashboard, render

    canary = ("Canary section", ["canary column"], [["canary cell"]])
    for module in (render, dashboard):
        monkeypatch.setattr(
            module, "report_sections",
            lambda report: report_sections(report) + [canary],
        )
    report = _full_report(make_record, make_dgl_record, machine_snapshot)
    output = renderer(report)
    sections = report_sections(report) + [canary]
    titles = [title for title, _, _ in sections]
    for wanted in (
        "Inputs", "Engines", "Speedup over Random",
        "Faults and recovery", "Recovery overhead", "Communication",
        "Telemetry", "Critical path", "distgnn: mean epoch",
        "Machines", "Findings", "Canary",
    ):
        assert any(title.startswith(wanted) for title in titles), wanted
    position = 0
    for title, header, rows in sections:
        position = output.index(title, position)  # present, in order
        for cell in header + [cell for row in rows for cell in row]:
            assert cell in output


def test_row_less_sections_state_what_is_absent(make_record):
    run = RunData(label="bare", records=[make_record(partitioner="hdrf")])
    report = build_analysis_report(run).to_dict()
    titles = [title for title, _, rows in report_sections(report)
              if not rows]
    assert titles == [
        "Speedup over Random: 1 records without a Random baseline skipped",
        "Telemetry: none - rerun the sweep with --obs-level metrics",
        "Findings: none - nothing anomalous detected",
    ]
    for render in (render_report_text, render_report_markdown):
        assert all(title in render(report) for title in titles)


def test_render_diff_text_clean_and_dirty():
    clean = render_diff_text(
        {"label_a": "x", "label_b": "y", "clean": True}
    )
    assert "clean" in clean
    dirty = render_diff_text(
        {
            "label_a": "x",
            "label_b": "y",
            "clean": False,
            "changed_cells": [
                {
                    "cell": "distgnn/OR/hdrf/k=4/f64",
                    "field": "epoch_seconds",
                    "a": 1.0, "b": 2.0, "rel_delta": 0.5,
                }
            ],
        }
    )
    assert "epoch_seconds" in dirty
    assert "50.00%" in dirty


class TestDashboard:
    def build(self, make_record, make_dgl_record):
        run = make_run(make_record, make_dgl_record)
        return render_dashboard(build_analysis_report(run).to_dict())

    def test_single_file_no_network(self, make_record, make_dgl_record):
        html = self.build(make_record, make_dgl_record)
        # No external fetches of any kind: no URLs, no src/href, no
        # css imports — the file must render offline from disk.
        assert not re.search(
            r"https?://|src=|href=|@import|url\(", html
        )
        assert html.startswith("<!DOCTYPE html>")

    def test_report_json_embedded_and_parseable(
        self, make_record, make_dgl_record
    ):
        html = self.build(make_record, make_dgl_record)
        match = re.search(
            r'<script type="application/json" id="report-data">'
            r"(.*?)</script>",
            html,
            re.S,
        )
        assert match
        embedded = json.loads(match.group(1).replace("<\\/", "</"))
        assert embedded["source"]["label"] == "test-run"

    def test_deterministic_output(self, make_record, make_dgl_record):
        assert self.build(make_record, make_dgl_record) == self.build(
            make_record, make_dgl_record
        )

    def test_dark_and_light_palettes_declared(
        self, make_record, make_dgl_record
    ):
        html = self.build(make_record, make_dgl_record)
        assert 'data-theme="dark"' in html
        assert "prefers-color-scheme: dark" in html
        # Status colors ship with textual labels, never color alone.
        assert "CRITICAL" in html or "severity.toUpperCase()" in html


def _resource_metrics(k=2, scale=1.0):
    return {
        "phase_seconds": {"forward": 0.4, "backward": 0.6},
        "traffic_matrix": [
            [0.0, 10.0 * scale], [5.0 * scale, 0.0]
        ],
        "traffic_phase_bytes": {"sync": 15.0 * scale},
        "memory_category_peaks": {
            "features": [100.0 * scale, 80.0 * scale]
        },
        "memory_timeline": {"forward": [120.0 * scale, 90.0 * scale]},
    }


class TestResourceDepth:
    def test_aggregates_largest_k_per_engine(self, make_record):
        from repro.obs.analysis.report import resource_depth

        records = [
            make_record(num_machines=2, obs_metrics=_resource_metrics()),
            make_record(num_machines=2, partitioner="hdrf",
                        obs_metrics=_resource_metrics(scale=2.0)),
            # Smaller k: excluded from the depth view.
            make_record(num_machines=1, obs_metrics={
                "traffic_matrix": [[0.0]],
            }),
        ]
        depth = resource_depth(records)
        assert set(depth) == {"distgnn"}
        entry = depth["distgnn"]
        assert entry["k"] == 2
        assert entry["cells"] == 2
        # Matrices sum across records; memory tables keep the max.
        assert entry["traffic_matrix"] == [[0.0, 30.0], [15.0, 0.0]]
        assert entry["memory_category_peaks"] == {
            "features": [200.0, 160.0]
        }
        assert entry["memory_timeline"] == {"forward": [240.0, 180.0]}

    def test_records_without_matrix_ignored(self, make_record):
        from repro.obs.analysis.report import resource_depth

        assert resource_depth([make_record()]) == {}
        assert resource_depth(
            [make_record(obs_metrics={"phase_seconds": {"f": 1.0}})]
        ) == {}

    def test_report_attribution_carries_resources(self, make_record):
        run = RunData(label="r", records=[
            make_record(obs_metrics=_resource_metrics()),
        ])
        report = build_analysis_report(run)
        resources = report.to_dict()["attribution"]["resources"]
        assert "distgnn" in resources
        assert resources["distgnn"]["traffic_matrix"]

    def test_dashboard_renders_resource_sections(self, make_record):
        run = RunData(label="r", records=[
            make_record(obs_metrics=_resource_metrics()),
        ])
        html = render_dashboard(build_analysis_report(run).to_dict())
        assert "renderResources" in html
        assert 'id="resources"' in html
        assert "heatTable" in html
        assert "memory peaks by ledger category" in html
        assert "memory watermark by phase" in html
