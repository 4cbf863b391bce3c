"""A gate on the gates: ``.github/workflows/ci.yml`` still names every
job, and every command it runs still exists.

GitHub CI cannot be run from a checkout, so a workflow line that calls a
script, subcommand or flag a PR deleted would only fail after merge.
This reads the workflow as text (no YAML dependency), joins shell line
continuations, and checks each ``python scripts/<x>.py`` against the
tree and each ``python -m repro ...`` against ``repro.cli.build_parser()``.
"""

import os
import re
import shlex

import pytest

from repro.cli import build_parser

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))

#: Every gate that exists today (ROADMAP 4d): deleting one is a decision
#: made here, in review, not a side effect of editing the workflow.
JOBS = {
    "tests", "tests-optimized", "gates", "ooc-memory", "serve",
    "bench-smoke", "paper-figures", "profiling", "docs",
}


def workflow_text():
    path = os.path.join(ROOT, ".github", "workflows", "ci.yml")
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def job_names(text):
    """Two-space-indented keys under the top-level ``jobs:`` key."""
    jobs = text.split("\njobs:\n", 1)[1]
    return set(re.findall(r"^  ([\w-]+):\s*$", jobs, re.M))


def commands(text):
    """``(scripts, repro_argvs)`` the workflow runs: script paths, and
    the argument list of every ``python -m repro`` invocation."""
    joined = re.sub(r"\\\n\s*", " ", text)
    scripts = re.findall(r"\bpython (scripts/[\w/]+\.py)", joined)
    argvs = [
        shlex.split(line.split(";")[0])
        for line in re.findall(r"\bpython -m repro (.*)", joined)
    ]
    return scripts, argvs


def problems(text):
    """Everything the workflow calls that this tree lacks."""
    found = [
        f"job {name!r} is gone" for name in sorted(JOBS - job_names(text))
    ]
    scripts, argvs = commands(text)
    found += [
        f"{script} does not exist"
        for script in scripts
        if not os.path.exists(os.path.join(ROOT, script))
    ]
    for argv in argvs:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            found.append(f"`repro {' '.join(argv)}` does not parse")
    return found


def test_workflow_is_runnable_against_this_tree():
    text = workflow_text()
    scripts, argvs = commands(text)
    # The parse below is not vacuous: the workflow drives the gates'
    # scripts and the CLI's sweep / obs commands.
    assert {"scripts/check_docstrings.py", "scripts/check_serve.py",
            "scripts/check_comm.py"} <= set(scripts)
    assert {"sweep", "obs"} <= {argv[0] for argv in argvs}
    assert not any("\\" in token for argv in argvs for token in argv)
    assert problems(text) == []


@pytest.mark.parametrize("line, complaint", [
    ("python scripts/deleted_alias.py --quick \\\n    --graphs OR",
     "scripts/deleted_alias.py does not exist"),
    ("python -m repro obs dashboard x.json -o x.html",
     "`repro obs dashboard x.json -o x.html` does not parse"),
    ("python -m repro obs analyze x.json \\\n    --dashboard x.html",
     "`repro obs analyze x.json --dashboard x.html` does not parse"),
    ("if python -m repro sweep --no-such-flag; then",
     "`repro sweep --no-such-flag` does not parse"),
])
def test_a_deleted_script_subcommand_or_flag_is_caught(line, complaint):
    """What this PR deleted, were a workflow line still to call it."""
    text = workflow_text() + f"      - run: |\n          {line}\n"
    assert problems(text) == [complaint]


def test_a_dropped_job_is_caught():
    text = workflow_text().replace("\n  bench-smoke:\n", "\n  smoke:\n")
    assert problems(text) == ["job 'bench-smoke' is gone"]
