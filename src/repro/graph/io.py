"""Plain-text edge-list reader.

The original study reads KONECT/WebGraph exports; we support the same simple
whitespace-separated ``u v`` format (one edge per line, ``#`` comments) so
users can feed their own graphs into the pipeline.
"""

from __future__ import annotations

import os
from typing import Optional, Union

import numpy as np

from .csr import Graph

__all__ = ["read_edge_list"]

PathLike = Union[str, "os.PathLike[str]"]


def read_edge_list(
    path: PathLike,
    directed: bool = False,
    num_vertices: Optional[int] = None,
    name: str = "",
) -> Graph:
    """Read a whitespace-separated edge list.

    Lines starting with ``#`` or ``%`` are ignored (KONECT convention).
    """
    sources: list[int] = []
    targets: list[int] = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line[0] in "#%":
                continue
            fields = line.split()
            if len(fields) < 2:
                raise ValueError(
                    f"{path}:{lineno}: expected at least two fields"
                )
            sources.append(int(fields[0]))
            targets.append(int(fields[1]))
    edges = np.stack(
        [
            np.asarray(sources, dtype=np.int64),
            np.asarray(targets, dtype=np.int64),
        ],
        axis=1,
    ) if sources else np.zeros((0, 2), dtype=np.int64)
    if num_vertices is None:
        num_vertices = int(edges.max()) + 1 if edges.size else 1
    if not name:
        name = os.path.splitext(os.path.basename(os.fspath(path)))[0]
    return Graph(num_vertices, edges, directed=directed, name=name)

