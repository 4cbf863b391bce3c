"""End-to-end determinism: the analysis of a parallel sweep must be
byte-identical to the analysis of the equivalent serial sweep, and a
report must diff clean against itself."""

from repro.experiments import (
    reduced_grid,
    run_distgnn_grid,
    run_distgnn_grid_parallel,
)
from repro.obs.analysis import (
    build_analysis_report,
    diff_runs,
    render_report_markdown,
)
from repro.obs.analysis.load import RunData

EDGE_NAMES = ["random", "hdrf"]


def _grid():
    return list(reduced_grid())[:2]


def _report(records):
    return build_analysis_report(
        RunData(label="sweep", records=list(records))
    )


def test_analysis_identical_serial_vs_parallel(tiny_or):
    from repro import obs

    obs.enable()
    try:
        serial = run_distgnn_grid(
            tiny_or, EDGE_NAMES, [2], _grid(), seed=0
        )
        obs.reset()
        obs.enable()
        parallel = run_distgnn_grid_parallel(
            tiny_or, EDGE_NAMES, [2], _grid(), seed=0, workers=2
        )
    finally:
        obs.reset()
        obs.disable()
    assert _report(serial).to_json() == _report(parallel).to_json()


def test_cli_outputs_identical_serial_vs_parallel(tmp_path, capsys):
    """The report contract end to end: the ``.json`` *and* ``.md`` files
    ``repro obs analyze`` writes for a serial sweep and for a
    ``--workers 2`` sweep are byte-identical, as is the library markdown
    across invocations."""
    from repro import cli
    from repro.experiments import clear_cache

    outputs = {}
    for workers in ("1", "2"):
        out = tmp_path / f"workers{workers}"
        # An empty partition cache each time: a warm one would make the
        # serial and parallel sweeps trivially share partitions.
        clear_cache()
        assert cli.main([
            "sweep", "--quick", "--graphs", "OR", "--machines", "2",
            "--scale", "tiny", "--obs-level", "metrics",
            "--fault-rate", "0.2", "--epochs", "2",
            "--compression", "none,fp16", "--workers", workers,
            "--out", str(out),
        ]) == 0
        assert cli.main([
            "obs", "analyze", "--label", "sweep",
            str(out / "sweep_distgnn.json"),
            str(out / "sweep_distdgl.json"),
            "-o", str(out / "report.json"), "-o", str(out / "report.md"),
        ]) == 0
        outputs[workers] = (
            (out / "report.json").read_bytes(),
            (out / "report.md").read_bytes(),
        )
    capsys.readouterr()
    assert outputs["1"] == outputs["2"]
    assert b"## Recovery overhead" in outputs["1"][1]
    assert b"## Communication reduction" in outputs["1"][1]


def test_analysis_json_stable_across_invocations(tiny_or):
    records = run_distgnn_grid(
        tiny_or, EDGE_NAMES, [2], _grid(), seed=0
    )
    assert _report(records).to_json() == _report(records).to_json()
    assert render_report_markdown(
        _report(records).to_dict()
    ) == render_report_markdown(_report(records).to_dict())


def test_serial_vs_parallel_diff_clean(tiny_or):
    serial = run_distgnn_grid(
        tiny_or, EDGE_NAMES, [2], _grid(), seed=0
    )
    parallel = run_distgnn_grid_parallel(
        tiny_or, EDGE_NAMES, [2], _grid(), seed=0, workers=2
    )
    diff = diff_runs(
        RunData(label="serial", records=list(serial)),
        RunData(label="parallel", records=list(parallel)),
    )
    assert diff.clean
    assert diff.findings() == []
