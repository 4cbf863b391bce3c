"""Synthetic graph generators standing in for the paper's datasets.

The paper evaluates on five real graphs from different categories (Table 1):
collaboration (Hollywood-2011), road (Dimacs9-USA), wiki (Enwiki-2021), web
(Eu-2015-tpd) and social (Orkut). Those datasets (58M-234M edges) are not
available offline, so each category is replaced by a generator that
reproduces its defining structural properties at a configurable, much
smaller scale:

====================  ======================================================
category              generator and preserved properties
====================  ======================================================
social                communities of Holme-Kim power-law cluster graphs
                      plus degree-preferential inter-community edges:
                      heavy-tailed degrees, high clustering, and the strong
                      community structure partitioners exploit on Orkut.
collaboration         affiliation (actor-movie clique) graph with genre
                      locality: overlapping cliques, very high average
                      degree, like Hollywood.
web                   host model: dense intra-host preferential linking,
                      sparse hub-directed inter-host links — the locality
                      that makes web graphs highly partitionable.
wiki                  topic communities with preferential attachment and a
                      global hub tail, like a wiki link graph.
road                  perturbed 2D lattice: near-planar, tiny constant
                      degree, enormous diameter, like a road network.
====================  ======================================================

Real-world graphs in all these categories are strongly clusterable — that
is precisely what separates in-memory partitioners from streaming ones in
the paper — so every non-road generator plants an explicit community
structure and then adds a controlled fraction of global edges.

All generators are deterministic given ``seed``.
"""

from __future__ import annotations

from typing import Iterator, List

import numpy as np

from .csr import Graph

__all__ = [
    "rmat_edge_chunks",
    "powerlaw_cluster_graph",
    "affiliation_graph",
    "road_network_graph",
    "preferential_attachment_graph",
    "web_host_graph",
]

#: Rows drawn per internal R-MAT generation round. Fixed (not tied to
#: any store chunk size) so a given ``(scale, num_edges, seed)`` always
#: produces the same edge stream however the consumer re-chunks it.
_RMAT_BLOCK = 1 << 16


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _truncated_zipf(
    rng: np.random.Generator, size: int, exponent: float, lo: int, hi: int
) -> np.ndarray:
    """Sample ``size`` integers in ``[lo, hi]`` with a power-law pmf."""
    values = np.arange(lo, hi + 1, dtype=np.float64)
    pmf = values**-exponent
    pmf /= pmf.sum()
    return rng.choice(
        np.arange(lo, hi + 1, dtype=np.int64), size=size, p=pmf
    )


def _community_sizes(
    rng: np.random.Generator,
    num_vertices: int,
    mean_size: int,
    exponent: float = 1.6,
) -> List[int]:
    """Heavy-tailed community sizes covering exactly ``num_vertices``."""
    hi = max(4 * mean_size, 8)
    sizes: List[int] = []
    remaining = num_vertices
    while remaining > 0:
        size = int(
            _truncated_zipf(rng, 1, exponent, lo=max(mean_size // 4, 3), hi=hi)[0]
        )
        size = min(size, remaining)
        sizes.append(size)
        remaining -= size
    if sizes[-1] < 3 and len(sizes) > 1:
        sizes[-2] += sizes[-1]
        sizes.pop()
    return sizes


def _rewire_global(
    edges: np.ndarray,
    num_vertices: int,
    fraction: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Rewire a fraction of edges to global degree-preferential targets.

    This adds the long-range links that keep the graph connected and the
    degree tail heavy without destroying the planted communities.
    """
    if fraction <= 0 or edges.shape[0] == 0:
        return edges
    degrees = np.bincount(edges.ravel(), minlength=num_vertices).astype(
        np.float64
    )
    weights = degrees + 1.0
    weights /= weights.sum()
    chosen = rng.random(edges.shape[0]) < fraction
    idx = np.flatnonzero(chosen)
    targets = rng.choice(num_vertices, size=idx.size, p=weights)
    rewired = edges.copy()
    rewired[idx, 1] = targets
    keep = rewired[:, 0] != rewired[:, 1]
    return rewired[keep]


def _holme_kim_edges(
    num_vertices: int,
    edges_per_vertex: int,
    triangle_prob: float,
    rng: np.random.Generator,
    offset: int = 0,
) -> List[tuple]:
    """Holme-Kim edge list over ``offset .. offset+num_vertices-1``."""
    m = min(edges_per_vertex, max(num_vertices - 1, 1))
    out: List[tuple] = []
    repeated: List[int] = list(range(m))
    adjacency: List[set] = [set() for _ in range(num_vertices)]
    for i in range(m):  # seed clique over the first m vertices
        for j in range(i + 1, m):
            out.append((offset + i, offset + j))
            adjacency[i].add(j)
            adjacency[j].add(i)
    integers, random, append = rng.integers, rng.random, out.append
    for new in range(m, num_vertices):
        chosen: set = set()
        target = repeated[integers(len(repeated))]
        while len(chosen) < m:
            if target not in chosen and target != new:
                chosen.add(target)
                append((offset + new, offset + target))
                adjacency[new].add(target)
                adjacency[target].add(new)
            if len(chosen) == m:
                break
            if random() < triangle_prob and adjacency[target]:
                candidates = adjacency[target] - chosen - {new}
                if candidates:
                    pool = list(candidates)
                    target = pool[integers(len(pool))]
                    continue
            target = repeated[integers(len(repeated))]
        repeated.extend(chosen)
        repeated.extend([new] * m)
    return out


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def _rmat_block(
    rng: np.random.Generator,
    rows: int,
    scale: int,
    a: float,
    b: float,
    c: float,
    directed: bool,
) -> np.ndarray:
    """Draw one ``(rows, 2)`` block of raw R-MAT edges.

    Per-level quadrant recursion over the whole block at once; self-loops
    are remapped to the next vertex, and undirected rows are canonicalised
    to ``lo <= hi``.
    """
    num_vertices = 1 << scale
    src = np.zeros(rows, dtype=np.int64)
    dst = np.zeros(rows, dtype=np.int64)
    for level in range(scale):
        r = rng.random(rows)
        right = (r >= a + c) | ((r >= a) & (r < a + b))
        down = r >= a + b
        bit = np.int64(1 << (scale - level - 1))
        src += down * bit
        dst += right * bit
    loops = src == dst
    dst[loops] = (dst[loops] + 1) % num_vertices
    if not directed:
        lo = np.minimum(src, dst)
        hi = np.maximum(src, dst)
        src, dst = lo, hi
    return np.stack([src, dst], axis=1)


def rmat_edge_chunks(
    scale: int,
    num_edges: int,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
    directed: bool = True,
    distinct: bool = False,
) -> Iterator[np.ndarray]:
    """Stream R-MAT edges as numpy blocks without building the full list.

    Yields ``(b, 2)`` int64 blocks totalling exactly ``num_edges`` rows.
    With ``distinct=False`` (the default, Graph500 style) the stream is a
    multigraph — duplicates are kept — and peak memory is bounded by the
    internal generation block, independent of ``num_edges``; this is the
    mode the out-of-core pipeline spools from. With ``distinct=True``
    generation loops until ``num_edges`` *distinct* edges have been
    emitted (first occurrence in stream order wins); the duplicate filter
    keeps a packed-key set of everything emitted, so memory is O(num_edges)
    — it exists for exact graph construction, not for out-of-core use.

    The stream is deterministic in ``(scale, num_edges, seed, distinct)``
    and does not depend on how the consumer re-chunks it.
    """
    d = 1.0 - a - b - c
    if d < 0:
        raise ValueError("quadrant probabilities must sum to at most 1")
    if scale <= 0 or num_edges <= 0:
        raise ValueError("scale and num_edges must be positive")
    if distinct and 2 * scale > 62:
        raise ValueError("distinct mode supports scale <= 31")
    rng = np.random.default_rng(seed)
    if not distinct:
        remaining = num_edges
        while remaining > 0:
            rows = min(_RMAT_BLOCK, remaining)
            yield _rmat_block(rng, rows, scale, a, b, c, directed)
            remaining -= rows
        return
    # Distinct mode: filter each raw block against everything already
    # emitted (sorted packed keys), keeping first occurrences in stream
    # order, until the target count is reached.
    seen = np.empty(0, dtype=np.int64)
    emitted = 0
    dry_rounds = 0
    while emitted < num_edges:
        block = _rmat_block(rng, _RMAT_BLOCK, scale, a, b, c, directed)
        keys = (block[:, 0] << np.int64(scale)) | block[:, 1]
        if seen.size:
            pos = np.minimum(np.searchsorted(seen, keys), seen.size - 1)
            dup = seen[pos] == keys
        else:
            dup = np.zeros(keys.size, dtype=bool)
        uniq_keys, first = np.unique(keys, return_index=True)
        is_first = np.zeros(keys.size, dtype=bool)
        is_first[first] = True
        fresh = np.flatnonzero(is_first & ~dup)
        if fresh.size == 0:
            dry_rounds += 1
            if dry_rounds > 64:
                raise ValueError(
                    f"R-MAT(scale={scale}) saturated at {emitted} distinct "
                    f"edges; cannot reach num_edges={num_edges}"
                )
            continue
        dry_rounds = 0
        fresh = fresh[: num_edges - emitted]
        seen = np.union1d(seen, keys[fresh])
        emitted += fresh.size
        yield block[fresh]


def powerlaw_cluster_graph(
    num_vertices: int,
    edges_per_vertex: int,
    triangle_prob: float = 0.5,
    community_mean_size: int = 150,
    inter_fraction: float = 0.12,
    seed: int = 0,
    name: str = "powerlaw-cluster",
) -> Graph:
    """Social-network stand-in (Orkut-like).

    Communities with heavy-tailed sizes, each an independent Holme-Kim
    power-law cluster graph; ``inter_fraction`` of the edges are rewired to
    global degree-preferential targets.
    """
    if num_vertices <= edges_per_vertex:
        raise ValueError("num_vertices must exceed edges_per_vertex")
    if not 0.0 <= triangle_prob <= 1.0:
        raise ValueError("triangle_prob must be in [0, 1]")
    rng = np.random.default_rng(seed)
    sizes = _community_sizes(rng, num_vertices, community_mean_size)
    pairs: List[tuple] = []
    offset = 0
    for size in sizes:
        pairs.extend(
            _holme_kim_edges(
                size, edges_per_vertex, triangle_prob, rng, offset=offset
            )
        )
        offset += size
    edges = np.asarray(pairs, dtype=np.int64)
    edges = _rewire_global(edges, num_vertices, inter_fraction, rng)
    return Graph(num_vertices, edges, directed=False, name=name)


def affiliation_graph(
    num_actors: int,
    num_groups: int,
    mean_group_size: float = 8.0,
    group_size_exponent: float = 2.3,
    memberships_per_actor: float = 2.5,
    genre_mean_size: int = 400,
    global_star_fraction: float = 0.05,
    seed: int = 0,
    name: str = "affiliation",
) -> Graph:
    """Collaboration-graph stand-in (Hollywood-like).

    Every "movie" (group) becomes a clique over its cast. Movies belong to
    genres (communities): casts are sampled Zipf-preferentially *within*
    their genre's actors, with a small share of global stars crossing
    genres.
    """
    if num_actors <= 1 or num_groups <= 0:
        raise ValueError("need at least 2 actors and 1 group")
    rng = np.random.default_rng(seed)
    genre_sizes = _community_sizes(rng, num_actors, genre_mean_size)
    genre_bounds = np.concatenate([[0], np.cumsum(genre_sizes)])
    num_genres = len(genre_sizes)

    max_size = max(int(mean_group_size * 6), 4)
    sizes = _truncated_zipf(
        rng, num_groups, group_size_exponent, lo=2, hi=max_size
    )
    sizes = np.maximum(
        2, (sizes * (mean_group_size / max(sizes.mean(), 1e-9))).astype(int)
    )
    budget = int(memberships_per_actor * num_actors)
    if int(sizes.sum()) > budget:
        keep = np.searchsorted(np.cumsum(sizes), budget) + 1
        sizes = sizes[:keep]

    src_parts: List[np.ndarray] = []
    dst_parts: List[np.ndarray] = []
    # Per-genre Zipf popularity (big stars first within each genre).
    genre_weights = []
    for gsize in genre_sizes:
        w = 1.0 / np.arange(1, gsize + 1) ** 0.8
        genre_weights.append(w / w.sum())
    global_weights = 1.0 / np.arange(1, num_actors + 1) ** 0.8
    global_weights /= global_weights.sum()

    movie_genres = rng.integers(0, num_genres, size=sizes.shape[0])
    for size, genre in zip(sizes, movie_genres):
        lo = int(genre_bounds[genre])
        local = rng.choice(
            genre_sizes[genre], size=size, p=genre_weights[genre]
        ) + lo
        stars = rng.random(size) < global_star_fraction
        if stars.any():
            local[stars] = rng.choice(
                num_actors, size=int(stars.sum()), p=global_weights
            )
        cast = np.unique(local)
        if cast.size < 2:
            continue
        iu, ju = np.triu_indices(cast.size, k=1)
        src_parts.append(cast[iu])
        dst_parts.append(cast[ju])
    if not src_parts:
        raise ValueError("generated no edges; increase sizes")
    edges = np.stack(
        [np.concatenate(src_parts), np.concatenate(dst_parts)], axis=1
    )
    return Graph(num_actors, edges, directed=False, name=name)


def road_network_graph(
    width: int,
    height: int,
    rewire_prob: float = 0.02,
    drop_prob: float = 0.05,
    seed: int = 0,
    name: str = "road",
) -> Graph:
    """Road-like network: 2D lattice with sparse perturbations.

    Average degree stays near 2-3 and the diameter near ``width + height``,
    matching the structural profile of Dimacs9-USA. Directed (both arc
    directions are usually present, as in real road data).
    """
    if width < 2 or height < 2:
        raise ValueError("grid must be at least 2x2")
    rng = np.random.default_rng(seed)
    ids = np.arange(width * height, dtype=np.int64).reshape(height, width)
    horizontal = np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], axis=1)
    vertical = np.stack([ids[:-1, :].ravel(), ids[1:, :].ravel()], axis=1)
    base = np.concatenate([horizontal, vertical], axis=0)
    keep = rng.random(base.shape[0]) >= drop_prob
    base = base[keep]
    num_shortcuts = int(rewire_prob * base.shape[0])
    shortcuts = rng.integers(
        0, width * height, size=(num_shortcuts, 2), dtype=np.int64
    )
    shortcuts = shortcuts[shortcuts[:, 0] != shortcuts[:, 1]]
    one_way = np.concatenate([base, shortcuts], axis=0)
    reverse_mask = rng.random(one_way.shape[0]) < 0.9
    arcs = np.concatenate([one_way, one_way[reverse_mask][:, ::-1]], axis=0)
    return Graph(width * height, arcs, directed=True, name=name)


def preferential_attachment_graph(
    num_vertices: int,
    mean_out_degree: float = 12.0,
    out_degree_exponent: float = 2.1,
    topic_mean_size: int = 300,
    intra_fraction: float = 0.8,
    seed: int = 0,
    name: str = "pref-attach",
) -> Graph:
    """Wiki-link stand-in (Enwiki-like).

    Articles belong to topics (communities); out-links are heavy-tailed in
    count and point preferentially to popular pages, ``intra_fraction`` of
    them within the article's own topic.
    """
    if num_vertices < 3:
        raise ValueError("need at least 3 vertices")
    rng = np.random.default_rng(seed)
    topic_sizes = _community_sizes(rng, num_vertices, topic_mean_size)
    topic_bounds = np.concatenate([[0], np.cumsum(topic_sizes)])
    topic_of = np.repeat(
        np.arange(len(topic_sizes)), topic_sizes
    ).astype(np.int64)

    hi = max(int(mean_out_degree * 8), 4)
    out_deg = _truncated_zipf(
        rng, num_vertices, out_degree_exponent, lo=1, hi=hi
    )
    out_deg = np.maximum(
        1,
        (out_deg * (mean_out_degree / max(out_deg.mean(), 1e-9))).astype(int),
    )
    global_weights = 1.0 / np.arange(1, num_vertices + 1) ** 0.9
    perm = rng.permutation(num_vertices)
    global_weights = global_weights[np.argsort(perm)]
    global_weights /= global_weights.sum()

    sources = np.repeat(np.arange(num_vertices, dtype=np.int64), out_deg)
    intra = rng.random(sources.shape[0]) < intra_fraction
    targets = np.empty(sources.shape[0], dtype=np.int64)
    # Global links: popularity-preferential over all pages.
    n_global = int((~intra).sum())
    if n_global:
        targets[~intra] = rng.choice(
            num_vertices, size=n_global, p=global_weights
        )
    # Topic-internal links: Zipf within the source's topic.
    intra_idx = np.flatnonzero(intra)
    src_topics = topic_of[sources[intra_idx]]
    for topic in np.unique(src_topics):
        mask = intra_idx[src_topics == topic]
        lo = int(topic_bounds[topic])
        size = int(topic_sizes[topic])
        w = 1.0 / np.arange(1, size + 1) ** 0.9
        w /= w.sum()
        targets[mask] = rng.choice(size, size=mask.size, p=w) + lo
    keep = sources != targets
    edges = np.stack([sources[keep], targets[keep]], axis=1)
    return Graph(num_vertices, edges, directed=True, name=name)


def web_host_graph(
    num_vertices: int,
    mean_out_degree: float = 12.0,
    host_mean_size: int = 250,
    intra_fraction: float = 0.85,
    seed: int = 0,
    name: str = "web-host",
) -> Graph:
    """Web-crawl stand-in (Eu-2015-like host graph).

    Pages live on hosts (communities with heavy-tailed sizes). Most links
    are intra-host and hub-preferential (index pages); the rest point to
    popular pages anywhere — the strong locality of real crawls, which is
    why web graphs partition so well.
    """
    return preferential_attachment_graph(
        num_vertices,
        mean_out_degree=mean_out_degree,
        out_degree_exponent=1.9,
        topic_mean_size=host_mean_size,
        intra_fraction=intra_fraction,
        seed=seed,
        name=name,
    )
