"""Reference implementations the golden tests compare production code against.

Each is the seed's readable per-source / all-pairs form of something
``src/`` now builds batched or sparse.  Nothing under ``src/`` imports
them; they live here so an oracle can stay slow and obvious.
"""

from __future__ import annotations

import numpy as np


def bfs_distances_reference(graph, source: int) -> np.ndarray:
    """The seed per-source frontier BFS.

    Batched :meth:`Graph.all_pairs_distances` and :meth:`Graph.bfs_distances`
    are pinned bit-identical to this implementation.
    """
    dist = np.full(graph.n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        starts = graph.indptr[frontier]
        stops = graph.indptr[frontier + 1]
        total = int((stops - starts).sum())
        if total == 0:
            break
        out = np.empty(total, dtype=np.int64)
        pos = 0
        for s, t in zip(starts, stops):
            out[pos : pos + (t - s)] = graph.indices[s:t]
            pos += t - s
        cand = out[dist[out] < 0]
        if cand.size == 0:
            break
        cand = np.unique(cand)
        dist[cand] = level
        frontier = cand
    return dist


def per_source_candidate_csr(graph, dist) -> tuple:
    """The seed per-source candidate-CSR build.

    The compact table (materialized through
    ``RoutingTables._candidate_csr``) is pinned to produce identical
    rows.  ``data`` is int64 as in the seed; the golden comparison is
    value-wise.
    """
    n = graph.n
    dist = np.asarray(dist)
    indptr = np.zeros(n * n + 1, dtype=np.int64)
    chunks = []
    for s in range(n):
        nbrs = graph.neighbors(s)
        on_path = dist[nbrs, :] == dist[s, :][None, :] - 1
        dst_idx, nbr_idx = np.nonzero(on_path.T)
        indptr[s * n + 1 : s * n + n + 1] = np.bincount(dst_idx, minlength=n)
        chunks.append(nbrs[nbr_idx].astype(np.int64))
    np.cumsum(indptr, out=indptr)
    data = np.concatenate(chunks) if chunks else np.empty(0, np.int64)
    return indptr, data


def dense_polar_adjacency(pf) -> np.ndarray:
    """Dense boolean ER_q adjacency: dot(v, w) == 0, diagonal cleared.

    One broadcasted field-dot over all N^2 vertex pairs — the paper's
    definition, which ``PolarFly._build_graph``'s sparse polar-line edge
    list is pinned against.
    """
    v = pf.vectors
    adj = pf.field.dot(v[:, None, :], v[None, :, :]) == 0
    np.fill_diagonal(adj, False)
    return adj
