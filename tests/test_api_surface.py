"""Structural guard: every public name under ``src/repro`` has a caller
in the program.

A public name is a module-level function or class whose name does not
start with ``_``, or a public method or property of such a class. It is
used when its name appears as an ``ast.Name``, an ``ast.Attribute`` or
an import alias (outside ``__init__.py`` files, whose re-exports are
not calls) anywhere under ``src/repro``, ``scripts/``, ``bench/``,
``benchmarks/`` or ``examples/``; tests do not count, so a builder, an
input format or a reader that only tests exercise shows up here. The
match is by name, found with ``ast``, so comments and strings do not
count. The only exemptions are ``KEEP``'s, each with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLERS = ("src/repro", "scripts", "bench", "benchmarks", "examples")

#: Public names nothing in the program calls that stay anyway.
KEEP = {
    "ServeHandler.do_GET": "http.server dispatches to it by name",
    "ServeHandler.do_POST": "http.server dispatches to it by name",
    "ServeHandler.do_DELETE": "http.server dispatches to it by name",
    "ServeHandler.log_message": "http.server dispatches to it by name",
    "MemoryLedger.by_category": "ledger semantics the cluster oracle pins",
    "MemoryLedger.peak_by_category":
        "ledger semantics the cluster oracle pins",
    "EdgeChunkReader.verify": "an integrity check on on-disk input",
    "Profile.identity":
        "the determinism projection the profiling tests compare against",
}


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = FUNCTIONS + (ast.ClassDef,)


def parsed(folder):
    for path in sorted((ROOT / folder).rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def used_names():
    """Every name the program uses: bare names, attribute names and
    the components of import aliases outside ``__init__.py``."""
    names = set()
    for folder in CALLERS:
        for path, tree in parsed(folder):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif (isinstance(node, ast.alias)
                      and path.name != "__init__.py"):
                    names.update(node.name.split("."))
    return names


def public(body, kinds):
    return [
        node for node in body
        if isinstance(node, kinds) and not node.name.startswith("_")
    ]


def public_definitions():
    """``{qualified_name: module path}`` for every public module-level
    function and class, and every public method and property of a
    public class, under src/repro."""
    found = {}
    for path, tree in parsed("src/repro"):
        where = str(path.relative_to(ROOT))
        for node in public(tree.body, DEFINITIONS):
            found[node.name] = where
            if isinstance(node, ast.ClassDef):
                for member in public(node.body, FUNCTIONS):
                    found[f"{node.name}.{member.name}"] = where
    return found


def uncalled():
    """Public names (``KEEP`` aside) that nothing in the program uses."""
    used = used_names()
    return sorted(
        f"{where}::{name}"
        for name, where in public_definitions().items()
        if name.rsplit(".", 1)[-1] not in used and name not in KEEP
    )


def test_every_public_name_has_a_caller():
    assert uncalled() == []


def test_every_exemption_is_still_needed():
    """A ``KEEP`` entry whose name gained a caller, or was deleted, goes."""
    defined, used = public_definitions(), used_names()
    stale = [
        name for name in KEEP
        if name not in defined or name.rsplit(".", 1)[-1] in used
    ]
    assert stale == []
