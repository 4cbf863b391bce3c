"""Self-test of the benchmark (run with ``python -m pytest bench/tests``;
outside tier-1's ``testpaths``). Runs ``run.py --quick`` twice."""

import json
import os
import re
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from compare import is_exact_repeat  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    runs = []
    for index in range(2):
        out = tmp_path_factory.mktemp("bench") / f"quick-{index}.json"
        done = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--quick",
             "--out", str(out)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stdout[-2000:]
        last = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
        with open(out, encoding="utf-8") as handle:
            runs.append(json.load(handle))
    return runs


def test_declared_names_are_well_formed(spec):
    names = [w["name"] for w in spec["workloads"]]
    for section in ("end_to_end", "per_layer"):
        for metric in spec[section]:
            names.append(metric["name"])
            assert metric["unit"]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


def test_every_declared_metric_is_reported_and_vice_versa(spec, quick_runs):
    for run in quick_runs:
        assert set(run["results"]) == {w["name"] for w in spec["workloads"]}
        for result in run["results"].values():
            for section in ("end_to_end", "per_layer"):
                declared = {m["name"]: m["unit"] for m in spec[section]}
                reported = result[section]["metrics"]
                assert set(reported) == set(declared)
                for name, metric in reported.items():
                    assert metric["unit"] == declared[name]
                assert result[section]["failed"] == 0, result[section]["failures"]
            for metric in result["end_to_end"]["metrics"].values():
                assert metric["value"] > 0


def test_every_layer_metric_is_exercised_by_some_workload(spec, quick_runs):
    run = quick_runs[0]
    always_zero = {"sim.oom_records", "serve.admission_rejected"}
    for metric in spec["per_layer"]:
        if metric["name"] in always_zero:
            continue
        assert any(
            result["per_layer"]["metrics"][metric["name"]]["value"] != 0
            for result in run["results"].values()
        ), metric["name"]


def test_exact_repeat_metrics_repeat(spec, quick_runs):
    first, second = quick_runs
    for workload, result in first["results"].items():
        for name, metric in result["per_layer"]["metrics"].items():
            if is_exact_repeat(name):
                other = second["results"][workload]["per_layer"]["metrics"][name]
                assert metric["value"] == other["value"], (workload, name)
