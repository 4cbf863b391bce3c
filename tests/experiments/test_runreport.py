"""The consolidated run report: since schema 2 it *is* the analysis
report (``build_analysis_report`` + ``render_report_markdown``), so
these tests assert the retired run-report builder's facts against it.
"""

import json

import pytest

from repro.experiments import (
    CommConfig,
    FaultConfig,
    TrainingParams,
    run_distdgl,
    run_distgnn,
)
from repro.obs.analysis import (
    RunData,
    build_analysis_report,
    render_report_markdown,
)

#: Where each key of the retired run-report dict lives in the merged
#: report: the longest matching prefix is rewritten, the rest of the old
#: path is kept. ``engines.*.mean_partitioning_seconds`` (wall clock) is
#: the one field not carried over.
OLD_TO_NEW = {
    "num_records": "summary.coverage.num_records",
    "graphs": "summary.coverage.graphs",
    "partitioners": "summary.coverage.partitioners",
    "machine_counts": "summary.coverage.machine_counts",
    "engines": "summary.coverage.engines",
    "speedups": "attribution.speedups.rows",
    "faults": "attribution.faults",
    "comm": "attribution.comm_configs",
    "comm.tradeoff": "attribution.comm_tradeoff",
    # Per engine now; the comm fixture is DistGNN-only.
    "comm.configs": "attribution.comm_configs.distgnn",
    "obs": "attribution.telemetry",
    # A list of {name, total_seconds, ...} rows, looked up by name.
    "obs.phase_seconds": "attribution.phase_mix.phases",
    "analysis.per_partitioner": "attribution.per_partitioner",
    "analysis.findings": "findings",
    "analysis.by_severity": "summary.by_severity",
    "analysis.dominant_phase": "summary.dominant_phase",
}

#: Leaf keys of the retired builder's report dict at its last commit for
#: the four fixtures below (per-partitioner and per-phase leaves by one
#: representative each).
PARENT_KEYS = {
    "mixed": [
        "num_records", "graphs", "partitioners", "machine_counts",
        "engines.distgnn.num_records", "engines.distdgl.num_records",
        "engines.distgnn.mean_epoch_seconds",
        "engines.distdgl.mean_network_bytes",
        "speedups", "faults", "comm", "obs",
        "analysis.per_partitioner.distdgl.ldg.cells",
        "analysis.per_partitioner.distgnn.hdrf.mean_epoch_seconds",
        "analysis.per_partitioner.distgnn.hdrf.phase_seconds.sync",
        "analysis.per_partitioner.distdgl.ldg.phase_fractions.fetch",
        "analysis.findings", "analysis.by_severity.critical",
        "analysis.by_severity.warning", "analysis.by_severity.info",
        "analysis.dominant_phase",
    ],
    "fault": [
        "faults.num_fault_records", "faults.crashes", "faults.slowdowns",
        "faults.lost_messages", "faults.recovery_seconds_total",
        "faults.mean_recovery_fraction",
    ],
    "comm": [
        "comm.tradeoff.distgnn.random",
        *(
            f"comm.configs.{label}.{field}"
            for label in ("baseline", "fp16 r1 c0")
            for field in (
                "cells", "wire_bytes", "saved_bytes", "saved_fraction",
                "codec_seconds", "accuracy_proxy_error", "frontier_cells",
            )
        ),
    ],
    "metrics": [
        "obs.num_observed_records", "obs.bytes_sent_total",
        "obs.bytes_received_total", "obs.lost_messages_total",
        "obs.marks", "obs.memory_category_peaks.features",
        "obs.traffic_phase_bytes.gradient-allreduce",
        "obs.traffic_matrix_bytes_total",
        "obs.phase_seconds.gradient-allreduce",
        "analysis.dominant_phase",
    ],
}


def resolve(report, old_path):
    """The merged report's value for one old run-report key path."""
    old_path = list(old_path)
    for length in range(len(old_path), 0, -1):
        new = OLD_TO_NEW.get(".".join(old_path[:length]))
        if new is not None:
            break
    else:
        raise KeyError(f"no home for {old_path}")
    node = report
    for step in new.split(".") + old_path[length:]:
        if isinstance(node, list):
            node = {row["name"]: row["total_seconds"] for row in node}
        node = node[step]
    return node


def merged(records):
    """``(markdown, report dict)`` — the retired builder's return shape."""
    report = build_analysis_report(
        RunData(label="report", records=list(records))
    ).to_dict()
    return render_report_markdown(report), report


@pytest.fixture
def params():
    return TrainingParams(feature_size=32, hidden_dim=32, num_layers=2)


@pytest.fixture
def mixed_records(tiny_or, tiny_or_split, params):
    return [
        run_distgnn(tiny_or, "random", 4, params),
        run_distgnn(tiny_or, "hdrf", 4, params),
        run_distdgl(tiny_or, "random", 4, params, split=tiny_or_split),
        run_distdgl(tiny_or, "ldg", 4, params, split=tiny_or_split),
    ]


@pytest.fixture
def fault_records(tiny_or, params):
    fc = FaultConfig(crash_rate=0.3, checkpoint_every=2, seed=3)
    return [
        run_distgnn(tiny_or, name, 4, params, fault_config=fc,
                    num_epochs=4)
        for name in ("random", "hdrf")
    ]


@pytest.fixture
def comm_records(tiny_or, params):
    return [
        run_distgnn(tiny_or, "random", 2, params),
        run_distgnn(tiny_or, "random", 2, params,
                    comm_config=CommConfig(compression="fp16")),
    ]


@pytest.fixture
def metrics_records(tiny_or, params):
    from repro import obs

    obs.enable()
    try:
        return [
            run_distgnn(tiny_or, "random", 4, params),
            run_distgnn(tiny_or, "hdrf", 4, params),
        ]
    finally:
        obs.reset()
        obs.disable()


def test_empty_records_rejected(tmp_path, capsys):
    """Nothing to summarise is an error of the command, exit 1."""
    from repro import cli

    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    assert cli.main(["obs", "analyze", str(empty)]) == 1
    assert "no records" in capsys.readouterr().err


def test_report_dict_shape(mixed_records):
    _, report = merged(mixed_records)
    coverage = report["summary"]["coverage"]
    assert coverage["num_records"] == 4
    assert coverage["graphs"] == ["OR"]
    assert coverage["machine_counts"] == [4]
    assert set(coverage["engines"]) == {"distgnn", "distdgl"}
    assert coverage["engines"]["distgnn"]["num_records"] == 2
    assert coverage["engines"]["distgnn"]["mean_epoch_seconds"] > 0
    # one non-random partitioner per engine -> two speedup rows
    speedups = report["attribution"]["speedups"]
    assert len(speedups["rows"]) == 2
    assert speedups["cells_without_baseline"] == 0
    assert report["attribution"]["faults"] is None
    assert report["attribution"]["telemetry"] is None


def test_markdown_sections(mixed_records):
    markdown, _ = merged(mixed_records)
    assert markdown.startswith("# Analysis: report")
    assert "## Engines" in markdown
    assert "## Speedup over Random" in markdown
    assert "hdrf" in markdown
    # no fault/obs data -> those sections are absent / hinted
    assert "## Faults and recovery" not in markdown
    assert "--obs-level metrics" in markdown


def test_report_is_json_serializable(mixed_records):
    _, report = merged(mixed_records)
    parsed = json.loads(json.dumps(report))
    assert parsed["summary"]["coverage"]["num_records"] == 4


def test_fault_section(fault_records):
    markdown, report = merged(fault_records)
    faults = report["attribution"]["faults"]
    assert faults["num_fault_records"] == 2
    assert faults["crashes"] == sum(r.crashes for r in fault_records)
    assert faults["crashes"] + faults["slowdowns"] >= 0
    assert faults["recovery_seconds_total"] == pytest.approx(
        sum(r.recovery_seconds for r in fault_records)
    )
    assert 0.0 <= faults["mean_recovery_fraction"] <= 1.0
    # per-(graph, partitioner, k) overhead: what the sweep tail prints
    overhead = {
        row["partitioner"]: row["mean"]
        for row in faults["recovery_overhead"]
    }
    for record in fault_records:
        assert overhead[record.partitioner] == pytest.approx(
            record.recovery_seconds / record.makespan_seconds
        )
    assert "## Faults and recovery" in markdown
    assert "## Recovery overhead" in markdown


def test_obs_section(metrics_records):
    records = metrics_records
    markdown, report = merged(records)
    telemetry = report["attribution"]["telemetry"]
    assert telemetry["num_observed_records"] == 2
    assert telemetry["bytes_sent_total"] > 0
    phases = report["attribution"]["phase_mix"]["phases"]
    assert phases
    assert "## Telemetry" in markdown
    # obs summaries aggregate across records: phase totals sum both runs
    total = sum(phase["total_seconds"] for phase in phases)
    per_record = sum(
        sum(r.obs_metrics["phase_seconds"].values()) for r in records
    )
    assert total == pytest.approx(per_record)


def test_resource_depth_in_obs_section(metrics_records):
    """Records swept with metrics on carry the PR-5 resource keys, and
    the report surfaces them: per-category memory peaks (worst machine),
    per-phase traffic totals, and the summed cross-machine matrix."""
    records = metrics_records
    markdown, report = merged(records)
    telemetry = report["attribution"]["telemetry"]
    peaks = telemetry["memory_category_peaks"]
    assert peaks and all(v > 0 for v in peaks.values())
    assert telemetry["traffic_phase_bytes"]
    matrix_total = sum(
        sum(sum(row) for row in r.obs_metrics["traffic_matrix"])
        for r in records
    )
    assert telemetry["traffic_matrix_bytes_total"] == pytest.approx(
        matrix_total
    )
    assert "| memory category peaks | " in markdown
    assert "| traffic matrix bytes total | " in markdown


def test_no_random_baseline_is_not_an_error(tiny_or, params):
    """A served job for ``partitioners=["hdrf"]`` has no Random cell:
    the retired builder raised ``ValueError: missing
    'random' baseline`` on it; the merged report lists no speed-up rows,
    says how many records had no baseline, and never raises."""
    records = [
        run_distgnn(tiny_or, "hdrf", 4, params),
        run_distgnn(tiny_or, "dbh", 4, params),
    ]
    markdown, report = merged(records)
    speedups = report["attribution"]["speedups"]
    assert speedups == {"rows": [], "cells_without_baseline": 2}
    assert "2 records without a Random baseline skipped" in markdown
    # A partial baseline keeps the covered rows and counts the rest.
    records.append(run_distgnn(tiny_or, "random", 4, params))
    records.append(run_distgnn(tiny_or, "hdrf", 8, params))
    _, report = merged(records)
    speedups = report["attribution"]["speedups"]
    assert [row["partitioner"] for row in speedups["rows"]] == [
        "dbh", "hdrf",
    ]
    assert speedups["cells_without_baseline"] == 1


@pytest.mark.parametrize("fixture", sorted(PARENT_KEYS))
def test_every_old_key_has_a_home(fixture, request):
    """Nothing is lost but the one named field: every key the parent's
    run report had for this fixture resolves, through the pinned
    mapping, to a value of the merged report."""
    _, report = merged(request.getfixturevalue(f"{fixture}_records"))
    for key in PARENT_KEYS[fixture]:
        value = resolve(report, key.split("."))
        if key in ("faults", "comm", "obs"):
            assert not value  # absent sections stay absent
    assert not any(
        "partitioning_seconds" in json.dumps(section)
        for section in report["summary"]["coverage"]["engines"].values()
    )
