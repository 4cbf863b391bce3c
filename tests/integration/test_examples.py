"""Smoke tests: every example script runs end to end.

These call the example mains in-process (importing by path) so the
partition/dataset caches are shared and failures produce real tracebacks.
"""

import importlib.util
import os
import sys

import pytest

EXAMPLES_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "examples"
)


def run_example(name: str, argv=None, capsys=None) -> str:
    path = os.path.abspath(os.path.join(EXAMPLES_DIR, name))
    spec = importlib.util.spec_from_file_location(
        f"example_{name.removesuffix('.py')}", path
    )
    module = importlib.util.module_from_spec(spec)
    old_argv = sys.argv
    sys.argv = [path] + list(argv or [])
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out if capsys else ""


def test_quickstart(capsys):
    out = run_example("quickstart.py", capsys=capsys)
    assert "speedup over Random" in out
    assert "HEP100" in out


def test_minibatch_sampling_study(capsys):
    out = run_example("minibatch_sampling_study.py", capsys=capsys)
    assert "partitioner" in out
    assert "metis" in out


def test_partitioner_selection(capsys):
    out = run_example(
        "partitioner_selection.py", argv=["OR", "8", "30"], capsys=capsys
    )
    assert "Recommendation for 30 epochs" in out


@pytest.mark.parametrize(
    "name",
    [
        "quickstart.py",
        "minibatch_sampling_study.py",
        "partitioner_selection.py",
        "observability_tour.py",
    ],
)
def test_example_exists_and_documented(name):
    path = os.path.join(EXAMPLES_DIR, name)
    assert os.path.exists(path)
    with open(path) as handle:
        content = handle.read()
    assert content.startswith('"""')  # module docstring
    assert "Usage::" in content or "Usage:" in content


def test_observability_tour(capsys):
    from repro import obs

    out = run_example("observability_tour.py", capsys=capsys)
    assert "no instruments created" in out
    assert "series collected" in out
    assert "span-begin=1" in out
    assert "# Analysis: tour" in out
    # the tour must leave the global obs state clean
    assert not obs.enabled()
    assert len(obs.get_registry()) == 0
