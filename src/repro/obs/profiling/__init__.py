"""Profiling subsystem: deterministic captures, flamegraphs, diffs.

The obs stack's function-level layer. Three capture modes produce one
normalized :class:`~.profile.Profile` artifact:

* :mod:`.capture` — deterministic ``cProfile`` captures around
  partitioner kernels, engine epoch loops and executor cells
  (``profile_scope`` ambient hooks + explicit ``capture`` blocks);
* :mod:`.sampler` — the wall-clock thread sampler behind the serve
  daemon's ``POST /profile``;
* tooling — :mod:`.flamegraph` (self-contained HTML), :mod:`.diff`
  (function-level regression ranking for the perf gate) and
  :mod:`.trend` (MAD-based drift detection over the bench history;
  built on :mod:`repro.obs.analysis`, so import it as a module —
  re-exporting it here would load the analysis package, and through it
  ``repro.experiments``, from inside ``import repro.obs``).
"""

# NOTE: the ``capture`` *function* is deliberately not re-exported
# here — it would shadow the ``capture`` submodule, which call sites
# import as a module (``from repro.obs.profiling import capture``) so
# the bench harness can monkeypatch its hooks.
from .capture import build_profile, drain, profile_scope
from .diff import DiffEntry, ProfileDiff, profile_diff, render_diff
from .flamegraph import render_flamegraph
from .profile import (
    FunctionStat,
    Profile,
    load_profile,
    normalize_func,
    save_profile,
)
from .sampler import ThreadSampler

__all__ = [
    "DiffEntry",
    "FunctionStat",
    "Profile",
    "ProfileDiff",
    "ThreadSampler",
    "build_profile",
    "drain",
    "load_profile",
    "normalize_func",
    "profile_diff",
    "profile_scope",
    "render_diff",
    "render_flamegraph",
    "save_profile",
]
