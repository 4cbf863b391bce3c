"""Every catalogued metric has an emit site *and* a reader.

The catalog makes emission safe (the registry refuses undeclared
names); this audit makes it *useful*: a spec survives only while some
code under ``src/`` emits it by its quoted name and something other
than that emit site reads it — an analysis finding, a report panel, an
alert rule, an ``obs top`` line, an example, a ``scripts/check_*``
gate, a ``bench/`` scrape or a hand-written doc. The catalog itself,
``tests/`` and the generated ``docs/observability.md`` do not count, so
an emit-only metric cannot come back unnoticed.
"""

import os
import re

import pytest

from repro import cli, obs
from repro.experiments import load_records
from repro.obs.catalog import metric_names

ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..")
)

#: Where readers may live: (directory, file suffixes).
READER_TREES = (
    ("src", (".py",)),
    ("scripts", (".py",)),
    ("examples", (".py", ".json")),
    ("bench", (".py",)),
    ("docs", (".md",)),
    (".github", (".yml",)),
)
NOT_READERS = (
    os.path.join("src", "repro", "obs", "catalog.py"),
    os.path.join("docs", "observability.md"),
)

#: ``obs.count("name"``, ``registry.gauge(\n    "name"``, ``_count(...``,
#: ``obs.Bound("name"`` (a metric bound once, emitted by label value).
EMIT_CALL = (
    r'\b_?(?:count|counter|gauge|observe|timer|histogram|Bound)\(\s*"%s"'
)


@pytest.fixture(scope="module")
def corpus():
    texts = {}
    for tree, suffixes in READER_TREES:
        for directory, _, names in os.walk(os.path.join(ROOT, tree)):
            for name in names:
                path = os.path.join(directory, name)
                relative = os.path.relpath(path, ROOT)
                if name.endswith(suffixes) and relative not in NOT_READERS:
                    with open(path, encoding="utf-8") as handle:
                        texts[relative] = handle.read()
    return texts


@pytest.mark.parametrize("name", metric_names())
def test_metric_is_emitted_and_read(name, corpus):
    emit = re.compile(EMIT_CALL % re.escape(name))
    # Quoted or back-ticked in Python (``comm.saved_bytes`` bare is an
    # attribute access, not a metric name); any whole word elsewhere.
    in_python = re.compile(r"(?<=[\"'`])%s(?=[\"'`])" % re.escape(name))
    elsewhere = re.compile(r"(?<![\w.])%s(?!\w)" % re.escape(name))
    emitters, readers = [], []
    for path, text in corpus.items():
        spans = []
        if path.startswith("src" + os.sep):
            spans = [match.span() for match in emit.finditer(text)]
            emitters += [path] * len(spans)
        mention = in_python if path.endswith(".py") else elsewhere
        for match in mention.finditer(text):
            if not any(a <= match.start() < b for a, b in spans):
                readers.append(path)
    assert emitters, f"{name} is catalogued but nothing under src/ emits it"
    assert readers, (
        f"{name} is emitted by {sorted(set(emitters))} and read by "
        "nothing: delete the spec and its emit sites, or ship the reader"
    )


@pytest.mark.parametrize("level", ["metrics", "trace"])
def test_sweep_telemetry_stays_inside_the_catalog(level, tmp_path):
    """A real sweep emits only catalogued series, and every record still
    carries the resource-depth payload itself (it is not duplicated into
    per-machine gauges)."""
    obs_path = tmp_path / "telemetry.jsonl"
    code = cli.main([
        "sweep", "--quick", "--graphs", "OR", "--machines", "2",
        "--scale", "tiny", "--out", str(tmp_path),
        "--obs-level", level, "--obs-out", str(obs_path),
    ])
    assert code == 0
    snapshot = obs.read_jsonl(str(obs_path))[-1]
    assert snapshot["kind"] == "metrics-snapshot"
    names = {entry["name"] for entry in snapshot["metrics"]}
    assert names and names <= set(metric_names())
    for filename in ("sweep_distgnn.json", "sweep_distdgl.json"):
        for record in load_records(tmp_path / filename):
            assert {
                "traffic_matrix", "traffic_phase_bytes",
                "memory_category_peaks", "memory_timeline", "marks",
            } <= set(record.obs_metrics)
