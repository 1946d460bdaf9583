"""Reference implementations the golden tests compare production code against.

Each is the seed's readable per-source / all-pairs form of something
``src/`` now builds batched or sparse.  Nothing under ``src/`` imports
them; they live here so an oracle can stay slow and obvious.
:func:`walk_voqs` recovers what ``src/`` no longer stores at all, each
VOQ's length.
"""

from __future__ import annotations

import numpy as np


def walk_voqs(sim):
    """Each VOQ's length and last pool row, walking its chain through ``pool_next``.

    A VOQ record stores its head row plus one (0: empty) and its tail;
    the walk reads only the head, so the tail can be checked against it.
    """
    lengths = np.zeros(sim.fab.NV, dtype=np.int64)
    last = np.zeros(sim.fab.NV, dtype=np.int64)
    vq = np.flatnonzero(sim.voq_head != 0)
    f = sim.voq_head[vq].astype(np.int64) - 1
    while vq.size:
        assert lengths.max() <= sim.pool_cap, "a VOQ chain loops"
        lengths[vq] += 1
        last[vq] = f
        f = sim.pool_next[f].astype(np.int64)
        more = f >= 0
        vq, f = vq[more], f[more]
    return lengths, last


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

    The compact table (materialized through :func:`compact_candidate_csr`)
    is pinned to produce identical rows.  ``data`` is int64 as in the
    seed; the golden comparison is value-wise.
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


def compact_candidate_csr(tables) -> tuple:
    """The seed-shaped dense ``(indptr, data)`` CSR of a compact table.

    Rebuilt from ``count`` and ``first`` plus the serving scan
    (``nth_hop``) for every nonzero pick of every tied pair, so the
    golden comparison against :func:`per_source_candidate_csr` covers
    what serving can return.  Allocates the O(n^2) ``indptr`` the
    compact layout exists to avoid.
    """
    tab = tables._candidate_table()
    count = tab.count.astype(np.int64)
    indptr = np.zeros(tab.n * tab.n + 1, dtype=np.int64)
    np.cumsum(count, out=indptr[1:])
    have = np.flatnonzero(count)
    pairs = np.repeat(have, count[have])
    pick = np.arange(pairs.size, dtype=np.int64) - indptr[pairs]
    data = tab.first[pairs].astype(np.int32)
    tied = np.flatnonzero(pick > 0)
    if tied.size:
        data[tied] = tab.nth_hop(pairs[tied], pick[tied])
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


def message_list_workload(topo, kind: str, **kw):
    """The seed's per-message :class:`Message`-list build of a generator.

    ``ring_allreduce`` / ``recursive_doubling_allreduce`` / ``all_to_all``
    / ``halo_exchange`` / ``incast`` now emit their arrays directly via
    ``Workload.from_arrays``; each is pinned to build the same arrays as
    this loop form.
    """
    from repro.workloads.generators import _torus_grid, terminal_routers
    from repro.workloads.message import Message, Workload

    t = [int(x) for x in terminal_routers(topo)]
    n = len(t)
    size = int(kw.get("size", 8))
    msgs = []
    if kind == "ring":
        chunk = max(1, size // n)
        for s in range(2 * (n - 1)):
            for i in range(n):
                deps = ((s - 1) * n + (i - 1) % n,) if s else ()
                msgs.append(Message(t[i], t[(i + 1) % n], chunk, deps))
    elif kind == "rd":
        p = 1 << (n.bit_length() - 1)
        for s in range(p.bit_length() - 1):
            for i in range(p):
                deps = ((s - 1) * p + (i ^ (1 << (s - 1))),) if s else ()
                msgs.append(Message(t[i], t[i ^ (1 << s)], size, deps))
    elif kind == "alltoall":
        msgs = [Message(a, b, size) for a in t for b in t if a != b]
    elif kind == "halo":
        rows, cols = _torus_grid(n)
        neighbor = []
        for i in range(n):
            r, c = divmod(i, cols)
            out = []
            for x in (
                ((r - 1) % rows) * cols + c,
                ((r + 1) % rows) * cols + c,
                r * cols + (c - 1) % cols,
                r * cols + (c + 1) % cols,
            ):
                if x != i and x not in out:
                    out.append(x)
            neighbor.append(out)
        offsets = np.concatenate([[0], np.cumsum([len(x) for x in neighbor])])
        per_iter = int(offsets[-1])
        recv_ids = [[] for _ in range(n)]
        for i in range(n):
            for j, v in enumerate(neighbor[i]):
                recv_ids[v].append(int(offsets[i]) + j)
        for k in range(int(kw.get("iters", 2))):
            for i in range(n):
                deps = tuple((k - 1) * per_iter + d for d in recv_ids[i]) if k else ()
                for v in neighbor[i]:
                    msgs.append(Message(t[i], t[v], size, deps))
    elif kind == "incast":
        server = t[int(kw.get("root", 0))]
        workers = [x for x in t if x != server]
        msgs = [Message(w, server, size) for w in workers]
        if kw.get("reply", False):
            barrier = tuple(range(len(workers)))
            msgs.extend(Message(server, w, size, barrier) for w in workers)
    else:
        raise ValueError(kind)
    return Workload(kind, msgs, topo)
