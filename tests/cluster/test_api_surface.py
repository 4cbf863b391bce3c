"""Structural guard: every public method and property of the cluster's
ledgers has a caller in the program.

A scalar twin of a bulk entry, or a reader nothing reads, shows up here
as a public name of ``Cluster``, ``Timeline`` or ``NetworkFabric`` that
no attribute access under ``src/repro`` or ``scripts/`` uses (found
with ``ast``, so comments and strings do not count). ``MemoryLedger``
is out of scope: its ``free`` and ``by_category`` are ledger semantics
the cluster oracle pins.
"""

import ast
import inspect
from pathlib import Path

import pytest

from repro.cluster import Cluster, NetworkFabric, Timeline

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def used_attributes():
    """Every ``x.name`` attribute name used under src/repro and
    scripts/ (the cluster package's own internal calls included)."""
    names = set()
    for folder in ("src/repro", "scripts"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            names.update(
                node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
            )
    return names


def public_api(cls):
    """Public methods and properties ``cls`` itself defines."""
    return sorted(
        name for name, member in vars(cls).items()
        if not name.startswith("_")
        and (inspect.isfunction(member) or isinstance(member, property))
    )


@pytest.mark.parametrize("cls", [Cluster, Timeline, NetworkFabric])
def test_every_public_member_has_a_caller(cls, used_attributes):
    unused = [name for name in public_api(cls) if name not in used_attributes]
    assert not unused, f"{cls.__name__} members nothing calls: {unused}"
