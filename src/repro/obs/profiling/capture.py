"""Deterministic ``cProfile`` capture and the ambient ``profile_scope``.

Two entry points:

* :func:`capture` — an explicit capture: ``with capture("name") as
  cap: ...; cap.profile``. Used by ``repro obs profile`` (whole
  command), per-cell captures (``--profile-out`` / serve trace level)
  and the bench harness.
* :func:`profile_scope` — the *ambient* hook compiled into the hot
  paths (partitioner kernels, engine epoch loops, executor cells).
  Off by default: one module-flag check returning a shared null
  context, mirroring ``obs.span``'s off path, so the instrumented
  kernels stay within the perf gate's profiling-off budget. Enabled
  via :func:`enable`, each scope captures its own profile into the
  process-local collector (:func:`drain`).

``cProfile`` cannot nest ("another profiler is active"), so a single
process-wide ``_active`` latch makes any inner scope a no-op while a
capture runs: an executor-cell capture supersedes the partitioner and
epoch scopes it contains, which is exactly the granularity wanted —
the outermost capture owns the full stack anyway.

Stack reconstruction: ``cProfile`` records only one-level
caller→callee edges. :func:`build_profile` rebuilds full collapsed
stacks by walking the call graph from its roots and apportioning each
callee's edge times across the caller paths that reach it (each
grandchild edge is scaled by the share of the callee's cumulative
time the parent edge contributed). The *set* of emitted stack paths
is derived purely from the call graph — every reachable acyclic path
is emitted even when its time share rounds to zero — so it is
deterministic for a seeded run; only the weights carry timing.
Import-machinery subtrees are the one exception: they depend on
``sys.modules`` cache state rather than on the profiled code, so each
collapses into a single ``<import>`` leaf (see :func:`_is_import_frame`).
"""

from __future__ import annotations

import cProfile
import pstats
import time
from typing import Dict, List, Optional, Tuple

from .profile import FunctionStat, Profile, normalize_func

__all__ = [
    "build_profile",
    "capture",
    "disable",
    "drain",
    "enable",
    "enabled",
    "profile_scope",
]

#: Maximum reconstructed stack depth (cycle-cut + recursion guard).
MAX_DEPTH = 64

#: The synthetic frame import-machinery subtrees collapse into.
IMPORT_FRAME = "<import>"

#: Ambient ``profile_scope`` captures are collected when this is on.
_enabled = False
#: True while a cProfile capture is running (captures cannot nest).
_active = False
#: Profiles collected by ambient scopes since the last :func:`drain`.
_collected: List[Profile] = []


# ----------------------------------------------------------------------
# Stack reconstruction
# ----------------------------------------------------------------------
def _is_import_frame(ident: str) -> bool:
    """True for frames that belong to the import machinery.

    Import call graphs are a function of ``sys.modules`` cache state,
    not of the profiled code: a cold process threads thousands of
    paths through ``<frozen importlib._bootstrap>`` that a warm one
    never executes. Collapsing each such subtree into one synthetic
    :data:`IMPORT_FRAME` leaf (carrying the subtree's cumulative time)
    keeps whole-command captures comparable across processes and
    bounds the artifact — import frames dominated ~90% of the stack
    keys in an unpruned CLI capture.
    """
    return (
        ident.startswith("<frozen importlib")
        or ident == "<built-in method builtins.__import__>"
    )


def _collapse(
    stats: Dict[tuple, tuple], ids: Dict[tuple, str]
) -> Dict[str, float]:
    """Rebuild collapsed stacks from pstats' caller→callee edges."""
    children: Dict[tuple, List[Tuple[tuple, tuple]]] = {}
    for func, (cc, nc, tt, ct, callers) in stats.items():
        for caller, edge in callers.items():
            children.setdefault(caller, []).append((func, edge))
    for edges in children.values():
        edges.sort(key=lambda item: ids[item[0]])

    stacks: Dict[str, float] = {}

    def emit(key: str, seconds: float) -> None:
        stacks[key] = stacks.get(key, 0.0) + seconds

    def walk(
        func: tuple, frames: Tuple[tuple, ...], key: str, edge: tuple,
        scale: float,
    ) -> None:
        if func in frames or len(frames) >= MAX_DEPTH:
            return
        e_cc, e_nc, e_tt, e_ct = edge
        ident = ids[func]
        if _is_import_frame(ident):
            # The whole import subtree becomes one leaf weighted by
            # the edge's *cumulative* time (its children are skipped).
            emit(f"{key};{IMPORT_FRAME}" if key else IMPORT_FRAME,
                 e_ct * scale)
            return
        path = frames + (func,)
        path_key = f"{key};{ident}" if key else ident
        emit(path_key, e_tt * scale)
        func_ct = stats[func][3]
        share = scale * (e_ct / func_ct) if func_ct > 0 else 0.0
        for callee, callee_edge in children.get(func, ()):
            walk(callee, path, path_key, callee_edge, share)

    roots = sorted(
        (f for f, entry in stats.items() if not entry[4]),
        key=lambda f: ids[f],
    )
    for root in roots:
        cc, nc, tt, ct, _callers = stats[root]
        if _is_import_frame(ids[root]):
            emit(IMPORT_FRAME, ct)
            continue
        emit(ids[root], tt)
        for callee, edge in children.get(root, ()):
            walk(callee, (root,), ids[root], edge, 1.0)
    return stacks


def _prune_self(stats: Dict[tuple, tuple]) -> Dict[tuple, tuple]:
    """Drop this module's own frames (the ``__exit__`` that stops the
    profiler, and the ``_lsprof`` disable method) from a capture —
    they are capture machinery, not profiled code."""
    import os

    here = os.path.abspath(__file__)
    drop = set()
    for func in stats:
        filename, _lineno, funcname = func
        if filename == "~":
            if "_lsprof.Profiler" in funcname:
                drop.add(func)
        elif os.path.abspath(filename) == here:
            drop.add(func)
    if not drop:
        return stats
    pruned = {}
    for func, (cc, nc, tt, ct, callers) in stats.items():
        if func in drop:
            continue
        pruned[func] = (
            cc, nc, tt, ct,
            {c: e for c, e in callers.items() if c not in drop},
        )
    return pruned


def build_profile(
    profiler: cProfile.Profile,
    name: str,
    seconds: float,
    meta: Optional[Dict[str, object]] = None,
) -> Profile:
    """Normalize one finished ``cProfile.Profile`` into a :class:`Profile`."""
    stats = _prune_self(pstats.Stats(profiler).stats)
    ids = {func: normalize_func(func) for func in stats}
    functions = sorted(
        (
            FunctionStat(
                func=ids[func],
                ncalls=int(nc),
                primitive_calls=int(cc),
                tottime=float(tt),
                cumtime=float(ct),
            )
            for func, (cc, nc, tt, ct, _callers) in stats.items()
        ),
        key=lambda s: s.func,
    )
    return Profile(
        name=name,
        mode="cprofile",
        seconds=seconds,
        functions=functions,
        stacks=_collapse(stats, ids),
        meta=dict(meta or {}),
    )


# ----------------------------------------------------------------------
# Explicit capture
# ----------------------------------------------------------------------
class _Capture:
    """``with capture("name") as cap: ...`` → ``cap.profile``.

    If another capture is already active in this process the block
    runs unprofiled and ``profile`` stays ``None`` (cProfile cannot
    nest; the outer capture still sees this block's frames).
    """

    __slots__ = ("name", "meta", "profile", "_profiler", "_started")

    def __init__(
        self, name: str, meta: Optional[Dict[str, object]] = None
    ) -> None:
        self.name = name
        self.meta = meta
        self.profile: Optional[Profile] = None
        self._profiler: Optional[cProfile.Profile] = None
        self._started = 0.0

    def __enter__(self) -> "_Capture":
        global _active
        if _active:
            return self
        _active = True
        self._profiler = cProfile.Profile()
        self._started = time.perf_counter()
        self._profiler.enable()
        return self

    def __exit__(self, *exc) -> None:
        if self._profiler is None:
            return None
        self._profiler.disable()
        global _active
        _active = False
        seconds = time.perf_counter() - self._started
        self.profile = build_profile(
            self._profiler, self.name, seconds, meta=self.meta
        )
        self._profiler = None
        self._report(seconds)
        return None

    def _report(self, seconds: float) -> None:
        from .. import api as obs

        if obs.enabled():
            obs.count("profiling.captures", scope=self.name)
            obs.observe(
                "profiling.capture_seconds", seconds, scope=self.name
            )


def capture(
    name: str, meta: Optional[Dict[str, object]] = None
) -> _Capture:
    """Explicitly profile a block regardless of the ambient switch."""
    return _Capture(name, meta=meta)


# ----------------------------------------------------------------------
# Ambient scope
# ----------------------------------------------------------------------
class _NullScope:
    """Returned while profiling is off: does nothing."""

    __slots__ = ()
    profile = None

    def __enter__(self) -> "_NullScope":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SCOPE = _NullScope()


class _AmbientScope(_Capture):
    """An enabled ``profile_scope``: collects its profile on exit."""

    __slots__ = ()

    def __exit__(self, *exc) -> None:
        super().__exit__(*exc)
        if self.profile is not None:
            _collected.append(self.profile)
        return None


def profile_scope(name: str):
    """The hook on the hot paths: captures only when :func:`enable`\\ d.

    Off (the default): one flag check, shared null context — the same
    shape as ``obs.span``'s off path and gated by the same perf
    budget. On: the block runs under ``cProfile`` and its normalized
    profile lands in the collector (:func:`drain`), unless an
    enclosing capture already owns the profiler.
    """
    if not _enabled or _active:
        return _NULL_SCOPE
    return _AmbientScope(name)


def enable() -> None:
    """Turn ambient ``profile_scope`` capture on (off by default)."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn ambient capture back off and drop collected profiles."""
    global _enabled
    _enabled = False
    _collected.clear()


def enabled() -> bool:
    """True when ambient scopes are capturing."""
    return _enabled


def drain() -> List[Profile]:
    """Return (and clear) the profiles ambient scopes collected."""
    profiles = list(_collected)
    _collected.clear()
    return profiles
