"""The perf gate: its no-data rule (tier-1) and the opt-in full run.

The full run (``pytest -m perf``) is deselected by default (see
``addopts`` in pyproject.toml) so tier-1 stays fast; it re-times every
kernel and compares against the committed ``BENCH_partitioning.json``
via ``scripts/check_perf.py``. The tests above it feed the gate canned
reports and pin that a gated series with nothing to compare against is
a failure, never a silent skip.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_GATE = os.path.join(_REPO_ROOT, "scripts", "check_perf.py")


@pytest.fixture(scope="module")
def check_perf():
    spec = importlib.util.spec_from_file_location("script_check_perf", _GATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report() -> dict:
    """A minimal report with every gated series present and healthy."""
    overhead = {"plain_seconds": 1.0, "off_seconds": 1.0}
    hdrf = {"hdrf": {"memory": {"traced_peak_bytes": 1 << 20}}}
    series = [{"edges": edges, "algorithms": hdrf} for edges in (10**4, 10**6)]
    return {
        "kernels": {"OR/hdrf": {"seconds": 0.5}},
        "sampling": {"seconds": 0.1},
        "distdgl_cell": {"cold_seconds": 0.6, "warm_seconds": 0.2},
        "obs_overhead": overhead,
        "profiling_overhead": overhead,
        "comm_codecs": {"seconds": {"none": 1.0, "fp16": 1.0}},
        "scale_sweep": {"series": series},
    }


def _run_gate(check_perf, monkeypatch, tmp_path, baseline, fresh) -> int:
    path = tmp_path / "bench.json"
    path.write_text(
        json.dumps({"schema": 2, "baseline": None, "history": [baseline]})
    )
    monkeypatch.setattr(check_perf, "run_bench", lambda **_: fresh)
    return check_perf.main(["--baseline", str(path)])


def test_complete_reports_pass(check_perf, monkeypatch, tmp_path):
    assert _run_gate(
        check_perf, monkeypatch, tmp_path, _report(), _report()
    ) == 0


@pytest.mark.parametrize(
    "side, section",
    [
        ("baseline", "kernels"),
        ("baseline", "sampling"),
        ("baseline", "distdgl_cell"),
        ("fresh", "obs_overhead"),
        ("fresh", "profiling_overhead"),
        ("fresh", "comm_codecs"),
    ],
)
def test_series_without_data_fails_the_gate(
    check_perf, monkeypatch, tmp_path, capsys, side, section
):
    reports = {"baseline": _report(), "fresh": _report()}
    del reports[side][section]
    (missing,) = check_perf.missing_sections(**reports)
    assert missing.startswith(f"{section}:")
    assert _run_gate(check_perf, monkeypatch, tmp_path, **reports) == 1
    out = capsys.readouterr().out
    assert f"{section}:" in out and "skipped" not in out


def test_distdgl_cell_that_stopped_replaying_fails(
    check_perf, monkeypatch, tmp_path, capsys
):
    fresh = _report()
    fresh["distdgl_cell"]["warm_seconds"] = fresh["distdgl_cell"]["cold_seconds"]
    assert _run_gate(check_perf, monkeypatch, tmp_path, _report(), fresh) == 1
    assert "distdgl_cell/warm_seconds: 0.2000s -> 0.6000s" in (
        capsys.readouterr().out
    )


@pytest.mark.perf
def test_no_kernel_regressed_beyond_threshold():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(_REPO_ROOT, "src")
    result = subprocess.run(
        [sys.executable, _GATE],
        capture_output=True,
        text=True,
        env=env,
        cwd=_REPO_ROOT,
    )
    assert result.returncode == 0, result.stdout + result.stderr
