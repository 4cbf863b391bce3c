"""Traffic-vs-accuracy tradeoff extraction and its report plumbing."""

import pytest

from repro.experiments import CommConfig
from repro.obs.analysis import traffic_accuracy_tradeoff
from repro.obs.analysis.tradeoff import _dominates

BASELINE = None
FP16 = CommConfig(compression="fp16")
INT8 = CommConfig(compression="int8")
FP16_R2 = CommConfig(compression="fp16", refresh_interval=2)


class TestTradeoffExtraction:
    def test_empty_without_comm_sweep(self, make_record):
        # Pre-comm record sets (no comm_config attribute, or all None)
        # produce no tradeoff section at all.
        assert traffic_accuracy_tradeoff([]) == {}
        assert traffic_accuracy_tradeoff([make_record()]) == {}

    def test_groups_by_engine_partitioner_and_config(
        self, make_record, make_dgl_record
    ):
        records = [
            make_record(comm_config=None, network_bytes=100.0),
            make_record(
                comm_config=FP16, network_bytes=50.0,
                traffic_saved_bytes=50.0,
                accuracy_proxy_error=FP16.codec().error_per_value,
            ),
            make_dgl_record(
                partitioner="metis", comm_config=None,
                network_bytes=80.0,
            ),
        ]
        tradeoff = traffic_accuracy_tradeoff(records)
        assert set(tradeoff) == {"distgnn", "distdgl"}
        assert set(tradeoff["distgnn"]) == {"random"}
        assert set(tradeoff["distdgl"]) == {"metis"}
        assert len(tradeoff["distgnn"]["random"]) == 2

    def test_points_sorted_by_descending_wire(self, make_record):
        records = [
            make_record(
                comm_config=INT8, network_bytes=25.0,
                traffic_saved_bytes=75.0, accuracy_proxy_error=0.002,
            ),
            make_record(comm_config=None, network_bytes=100.0),
            make_record(
                comm_config=FP16, network_bytes=50.0,
                traffic_saved_bytes=50.0, accuracy_proxy_error=0.0005,
            ),
        ]
        points = traffic_accuracy_tradeoff(records)["distgnn"]["random"]
        assert [p["wire_bytes"] for p in points] == [100.0, 50.0, 25.0]
        assert points[0]["comm"] == "baseline"

    def test_cells_average_and_saved_fraction(self, make_record):
        records = [
            make_record(
                comm_config=FP16, network_bytes=40.0,
                traffic_saved_bytes=40.0, accuracy_proxy_error=0.001,
            ),
            make_record(
                comm_config=FP16, network_bytes=60.0,
                traffic_saved_bytes=60.0, accuracy_proxy_error=0.002,
            ),
        ]
        (point,) = traffic_accuracy_tradeoff(records)["distgnn"]["random"]
        assert point["cells"] == 2
        assert point["wire_bytes"] == 50.0
        assert point["saved_bytes"] == 50.0
        assert point["saved_fraction"] == pytest.approx(0.5)
        # Error is the worst cell, not the mean.
        assert point["accuracy_proxy_error"] == 0.002

    def test_frontier_marks_undominated_points(self, make_record):
        # baseline: most bytes, zero error -> frontier anchor.
        # fp16: half the bytes, small error -> frontier.
        # fp16 r2: MORE error than int8 and MORE bytes -> dominated.
        # int8: fewest bytes -> frontier.
        records = [
            make_record(comm_config=None, network_bytes=100.0),
            make_record(
                comm_config=FP16, network_bytes=50.0,
                traffic_saved_bytes=50.0, accuracy_proxy_error=0.0005,
            ),
            make_record(
                comm_config=FP16_R2, network_bytes=40.0,
                traffic_saved_bytes=60.0, accuracy_proxy_error=0.0105,
            ),
            make_record(
                comm_config=INT8, network_bytes=25.0,
                traffic_saved_bytes=75.0, accuracy_proxy_error=0.002,
            ),
        ]
        points = traffic_accuracy_tradeoff(records)["distgnn"]["random"]
        frontier = {p["comm"]: p["on_frontier"] for p in points}
        assert frontier["baseline"] is True
        assert frontier["fp16 r1 c0"] is True
        assert frontier["int8 r1 c0"] is True
        assert frontier["fp16 r2 c0"] is False

    def test_dominates_requires_strict_improvement(self):
        a = {"wire_bytes": 50.0, "accuracy_proxy_error": 0.01}
        same = {"wire_bytes": 50.0, "accuracy_proxy_error": 0.01}
        worse = {"wire_bytes": 60.0, "accuracy_proxy_error": 0.01}
        assert not _dominates(a, same)
        assert _dominates(a, worse)
        assert not _dominates(worse, a)


class TestReportPlumbing:
    def _comm_records(self, make_record):
        return [
            make_record(comm_config=None),
            make_record(
                comm_config=FP16, network_bytes=5e5,
                traffic_saved_bytes=5e5, accuracy_proxy_error=0.0005,
            ),
        ]

    def test_attribution_report_carries_comm_tradeoff(self, make_record):
        from repro.obs.analysis import build_analysis_report
        from repro.obs.analysis.load import RunData

        run = RunData(records=self._comm_records(make_record))
        report = build_analysis_report(run)
        tradeoff = report.attribution["comm_tradeoff"]
        assert set(tradeoff) == {"distgnn"}

    def _run_report(self, records):
        from repro.obs.analysis import (
            build_analysis_report,
            render_report_markdown,
        )
        from repro.obs.analysis.load import RunData

        report = build_analysis_report(RunData(records=records)).to_dict()
        return render_report_markdown(report), report["attribution"]

    def test_runreport_markdown_has_comm_section(self, tiny_or):
        from repro.experiments import reduced_grid, run_distgnn

        params = list(reduced_grid())[0]
        records = [
            run_distgnn(tiny_or, "random", 2, params),
            run_distgnn(tiny_or, "random", 2, params, comm_config=FP16),
        ]
        markdown, attribution = self._run_report(records)
        assert "## Communication reduction" in markdown
        assert "fp16 r1 c0" in markdown
        configs = attribution["comm_configs"]["distgnn"]
        assert set(configs) == {"baseline", "fp16 r1 c0"}
        fp16 = configs["fp16 r1 c0"]
        assert fp16["cells"] == 1
        assert fp16["wire_bytes"] == records[1].network_bytes
        assert fp16["saved_bytes"] == records[1].traffic_saved_bytes
        assert fp16["saved_fraction"] == pytest.approx(0.5)

    def test_runreport_without_comm_has_no_section(self, tiny_or):
        from repro.experiments import reduced_grid, run_distgnn

        params = list(reduced_grid())[0]
        markdown, attribution = self._run_report(
            [run_distgnn(tiny_or, "random", 2, params)]
        )
        assert "## Communication reduction" not in markdown
        assert attribution["comm_configs"] == {}

    def test_dashboard_html_includes_tradeoff_panel(self, make_record):
        from repro.obs.analysis import (
            build_analysis_report,
            render_dashboard,
        )
        from repro.obs.analysis.load import RunData

        run = RunData(records=self._comm_records(make_record))
        html = render_dashboard(build_analysis_report(run).to_dict())
        assert 'id="tradeoff"' in html
        assert "renderTradeoff" in html
