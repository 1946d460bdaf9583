"""All-pairs distance tables and shortest-path extraction.

The paper notes table-based routing is the method of choice for ER graphs
(Section IV-D); the same tables also serve every baseline topology.  The
distance matrix comes from one bit-parallel all-sources BFS
(:meth:`repro.utils.graph.Graph.all_pairs_distances`, 64 sources per
machine word) and is stored as int16 (N x N).  Both it and the candidate
table below are built on first use, not by the constructor: an intact
PolarFly or PolarStar (:func:`repro.routing.algebraic.coordinates_apply`)
is routed from coordinates — PolarStar's ties from its two factors — by
the compiled selector and its diameter is known
(:attr:`RoutingTables.max_distance`), so a production cell on it builds
neither, while the numpy ``select_routes`` bodies, the reference engine,
fault repair and every other topology build them exactly as before.  The
minimal-next-hop candidates are then read straight off it by one
sort-free builder (:meth:`_CandidateTable.from_distances`) that streams
source-row blocks into a compact table — a per-pair count byte and a
narrow lowest-id ``first`` hop; the other candidates of an ECMP tie are
found again on demand by scanning the source's neighbors — instead of
the seed's dense ``n*n + 1`` int64 ``indptr``.  Fresh builds and
fault-repair rebuilds share that builder, its peak memory is the output
plus one block, and all of it is pinned bit-identical to the seed
per-source builds by golden tests, so large-radix networks (q=79,
N=6321, ~40M pairs) construct in seconds without changing a single
routed path.  Batched extraction
(:meth:`RoutingTables.shortest_paths_batch`) walks that table one path
column at a time — the numpy definition of route selection that the C
selector reproduces draw for draw.

Fault-epoch tables wrap the intact distance matrix in
:class:`RowPatchedDist` — only the BFS rows a failure actually changed
are stored densely.
"""

from __future__ import annotations

import numpy as np

from repro.topologies.base import Topology
from repro.utils.rng import make_rng

__all__ = ["RoutingTables", "RowPatchedDist"]


def _value_dtype(n: int):
    """Narrowest signed dtype holding router ids ``0..n-1`` (and -1)."""
    return np.int16 if n <= np.iinfo(np.int16).max else np.int32


def _count_dtype(max_degree: int):
    """Narrowest unsigned dtype holding per-pair candidate counts."""
    if max_degree < 2**8:
        return np.uint8
    if max_degree < 2**16:
        return np.uint16
    return np.uint32


class _CandidateTable:
    """Compact minimal-next-hop candidates over all ``(src, dst)`` pairs.

    Two flat ``n * n`` arrays replace the seed's dense CSR (whose
    ``n*n + 1`` int64 ``indptr`` alone is 320 MB at q=79):

    - ``count``: candidates per pair (uint8 for any realistic radix),
    - ``first``: the lowest-id candidate per pair (int16 when router
      ids fit; -1 for unset/unreachable pairs),

    next to ``nbr``, the builder's padded ``[n, W + 1]`` neighbor rows
    (``W`` the maximum degree), and the distance matrix it read.
    Deterministic serving reads ``first``; tie-breaking draws an index
    per tied pair and resolves a nonzero pick with :meth:`nth_hop`, which
    re-runs the builder's predicate over the source's sorted neighbor
    row.  Nothing is stored per tie, and the RNG stream and every served
    hop are bit-identical to the dense layout's.
    """

    __slots__ = ("n", "count", "first", "nbr", "dist")

    def __init__(self, n, count, first, nbr, dist):
        self.n = int(n)
        self.count = count
        self.first = first
        self.nbr = nbr
        self.dist = dist

    @classmethod
    def from_distances(cls, graph, dist) -> "_CandidateTable":
        """Derive the table from a finished distance matrix, row-streamed.

        Neighbor ``v`` of ``s`` is a candidate toward ``dst`` iff
        ``dist[v, dst] == dist[s, dst] - 1``.  The CSR is padded into a
        rectangular ``nbr[n, W + 1]`` whose pad is the router itself —
        never one hop closer than itself, so irregular-degree and
        dead-router rows need no special case — and the test runs for a
        block of source rows against all ``W`` neighbor slots and every
        destination at once.  Reducing that boolean block over the slot
        axis gives ``count`` and the lowest set slot (``first``; the last
        column, -1, stands for "no slot set").  Nothing is sorted or
        merged, and the only transient is one block's comparison
        workspace.
        """
        n = graph.n
        degree = graph.degree()
        width = int(degree.max()) if n else 0
        vdt = _value_dtype(n)
        cdt = _count_dtype(width)
        count = np.empty((n, n), dtype=cdt)
        first = np.empty((n, n), dtype=vdt)
        nbr = np.repeat(np.arange(n, dtype=vdt), width + 1).reshape(n, width + 1)
        nbr[:, width] = -1
        slot = np.arange(graph.indices.size, dtype=np.int64) - np.repeat(
            graph.indptr[:-1], degree
        )
        nbr[np.repeat(np.arange(n, dtype=np.int64), degree), slot] = graph.indices
        # Slot k weighs width - k, so the heaviest set slot is the lowest
        # neighbor id (CSR rows are sorted) and weight 0 means none set.
        weight = np.arange(width, 0, -1, dtype=cdt)[:, None]
        # The comparison only needs to tell equal from not among values
        # at most the diameter apart: int8 rows (when the diameter fits)
        # halve the gather traffic of this bandwidth-bound pass.
        if n and int(dist.max()) < 127:
            cmp_dist = dist.astype(np.int8)
        else:
            cmp_dist = np.asarray(dist)
        one = cmp_dist.dtype.type(1)
        step = graph._block_rows(width * n * cmp_dist.itemsize)
        # Flat offset of each block row's -1 column: slot width - best of
        # row r is element pad[r] - best of the flattened block, so one
        # flat take (no broadcast 2-D index) gathers ``first``.
        pad = np.arange(min(step, n), dtype=np.intp)[:, None] * (width + 1) + width
        for lo in range(0, n, step):
            rows = nbr[lo : lo + step]
            on_path = (
                cmp_dist[rows[:, :width]]
                == (cmp_dist[lo : lo + step] - one)[:, None, :]
            )
            count[lo : lo + step] = on_path.sum(axis=1, dtype=cdt)
            best = (on_path.view(np.uint8) * weight).max(axis=1, initial=0)
            first[lo : lo + step] = np.take(
                rows.reshape(-1), pad[: rows.shape[0]] - best
            )
        return cls(n, count.reshape(-1), first.reshape(-1), nbr, dist)

    def nth_hop(self, pairs, pick) -> np.ndarray:
        """Candidate ``pick`` (0-based, ascending id) of each pair key, int64.

        The builder's predicate again, for these pairs only: gather
        ``dist`` over the source's neighbor row, then take the first
        column where the running count of one-hop-closer neighbors
        exceeds ``pick``.  Every ``pick`` must be below the pair's
        ``count``.
        """
        cur, dst = np.divmod(pairs, self.n)
        rows = self.nbr[cur, :-1]
        closer = self.dist[cur, dst] - 1
        on_path = self.dist[rows, dst[:, None]] == closer[:, None]
        cdt = self.count.dtype
        seen = on_path.cumsum(axis=1, dtype=cdt)
        col = (seen > pick.astype(cdt)[:, None]).argmax(axis=1)
        return rows[np.arange(rows.shape[0]), col].astype(np.int64)

    def next_hops(self, pairs, rng=None) -> np.ndarray:
        """One candidate per pair key, int64.

        Deterministic mode returns ``first``.  With ``rng``, a uniform
        index is drawn per tied pair (one vectorized ``integers`` call
        over int64 counts — the exact draw the dense CSR path made) and
        nonzero picks are resolved by :meth:`nth_hop`.
        """
        nxt = self.first[pairs].astype(np.int64)
        if rng is not None:
            cnt = self.count[pairs]
            multi = np.flatnonzero(cnt > 1)
            if multi.size:
                pick = rng.integers(cnt[multi].astype(np.int64))
                pos = np.flatnonzero(pick > 0)
                if pos.size:
                    sel = multi[pos]
                    nxt[sel] = self.nth_hop(pairs[sel], pick[pos])
        return nxt

    def nbytes(self) -> int:
        """Total bytes across the table's own arrays (for perf reporting)."""
        return self.count.nbytes + self.first.nbytes + self.nbr.nbytes


class RowPatchedDist:
    """Row-sparse view of a fault-patched distance matrix.

    Incremental repair after a failure recomputes only the BFS rows the
    failure could have changed; this wraps the intact base matrix plus
    that patch block without materializing a dense copy per fault epoch.
    It implements exactly the indexing surface the routing/policy/fault
    layers use — pair gathers ``d[srcs, dsts]``, row and column gathers,
    ``np.ix_`` blocks, ``max()``, ``astype``, ``np.asarray`` — and
    anything fancier should materialize through ``np.asarray`` first.
    The base is never written.
    """

    __slots__ = ("base", "rows", "patch", "shape", "dtype", "row_of", "_max")

    def __init__(self, base, rows, patch):
        self.base = np.asarray(base)
        self.rows = np.asarray(rows, dtype=np.int64)
        self.patch = np.asarray(patch)
        self.shape = self.base.shape
        self.dtype = self.base.dtype
        #: patch-block row of each matrix row (-1: a base row); the
        #: indirection ``kselect`` binds as well
        self.row_of = np.full(self.shape[0], -1, dtype=np.int64)
        self.row_of[self.rows] = np.arange(self.rows.size, dtype=np.int64)
        self._max = None

    @property
    def ndim(self) -> int:
        return 2

    def dense(self) -> np.ndarray:
        out = self.base.copy()
        if self.rows.size:
            out[self.rows] = self.patch
        return out

    def __array__(self, dtype=None, copy=None):
        out = self.dense()
        if dtype is not None:
            out = out.astype(dtype, copy=False)
        return out

    def astype(self, dtype, copy=True) -> np.ndarray:
        return self.dense().astype(dtype, copy=False)

    def copy(self) -> np.ndarray:
        return self.dense()

    def max(self):
        if self._max is None:
            # Axis-wise max reads the base without an n^2 copy.
            row_max = self.base.max(axis=1)
            best = []
            if self.rows.size:
                best.append(self.patch.max())
                keep = np.ones(self.shape[0], dtype=bool)
                keep[self.rows] = False
                if keep.any():
                    best.append(row_max[keep].max())
            else:
                best.append(row_max.max())
            self._max = int(max(int(b) for b in best))
        return self._max

    def _take_rows(self, i):
        if isinstance(i, (int, np.integer)):
            p = int(self.row_of[i])
            return self.patch[p] if p >= 0 else self.base[i]
        i = np.asarray(i)
        if i.dtype == bool:
            i = np.flatnonzero(i)
        out = self.base[i]
        pi = self.row_of[i]
        m = pi >= 0
        if m.any():
            out[m] = self.patch[pi[m]]
        return out

    def _take_pairs(self, i, j):
        out = self.base[i, j]
        pi = self.row_of[i]
        if out.ndim == 0:
            p = int(pi)
            return self.patch[p, j] if p >= 0 else out
        bi, bj = np.broadcast_arrays(pi, np.asarray(j))
        m = bi >= 0
        if m.any():
            out[m] = self.patch[bi[m], bj[m]]
        return out

    def __getitem__(self, key):
        if isinstance(key, tuple) and len(key) == 2:
            i, j = key
            i_slice = isinstance(i, slice)
            j_slice = isinstance(j, slice)
            if not i_slice and j_slice and j == slice(None):
                return self._take_rows(i)
            if i_slice and i == slice(None) and not j_slice:
                out = np.array(self.base[:, j])
                if self.rows.size:
                    out[self.rows] = self.patch[:, j]
                return out
            if not i_slice and not j_slice:
                return self._take_pairs(i, j)
            return self.dense()[key]
        if isinstance(key, tuple):
            return self.dense()[key]
        return self._take_rows(key)


class RoutingTables:
    """Distance matrix plus shortest-path queries for a topology.

    Parameters
    ----------
    topo:
        Any :class:`~repro.topologies.base.Topology`; the router graph
        must be connected (unless ``alive`` marks failed routers).
    alive:
        Optional boolean mask of surviving routers for fault-epoch
        tables.  Dead routers stay in the vertex set with -1 distances;
        only the alive-alive block must be connected.  Policies consult
        :attr:`alive_routers` (e.g. Valiant intermediate draws) and the
        fault subsystem guarantees no route ever targets a dead router.
    """

    def __init__(self, topo: Topology, alive: "np.ndarray | None" = None):
        if alive is None and not topo.is_connected():
            raise ValueError("routing tables require a connected topology")
        # The distance matrix and the candidate table are built on first
        # use (see ``dist``): an intact PolarFly or PolarStar served from
        # coordinates never needs either.
        self._init_from(topo, None, alive)

    @classmethod
    def from_distances(
        cls, topo: Topology, dist, alive: "np.ndarray | None" = None
    ) -> "RoutingTables":
        """Tables over an externally computed distance matrix.

        The incremental fault-repair path
        (:func:`repro.routing.degraded.reroute_after_failures`) patches
        only the BFS rows a failure could have changed — handing over a
        :class:`RowPatchedDist` view instead of a dense copy — and
        builds the rest of the table state through here; the candidate
        table is rebuilt on demand, so served paths are identical to a
        fresh build's.
        """
        self = cls.__new__(cls)
        self._init_from(topo, dist, alive)
        return self

    def _init_from(self, topo, dist, alive) -> None:
        self.topo = topo
        self._dist = dist
        #: True when the distances were handed over (:meth:`from_distances`)
        #: rather than derived from ``topo`` on first use
        self.given_distances = dist is not None
        #: surviving-router mask for fault epochs (None: all alive)
        self.alive_routers = (
            np.asarray(alive, dtype=bool) if alive is not None else None
        )
        if self.alive_routers is not None:
            sub = self.dist[np.ix_(self.alive_routers, self.alive_routers)]
            if sub.size and bool((sub < 0).any()):
                raise ValueError("failures disconnect the network")
        # Compact table of minimal next-hop candidates per (src, dst)
        # pair, for the batched path extractor.
        self._cands: "_CandidateTable | None" = None

    @property
    def dist(self):
        """The hop-distance matrix, int16 (N x N), built on first use.

        One bit-parallel all-sources BFS fills it directly.  Tables over
        an external matrix (:meth:`from_distances`) hold theirs from the
        start.
        """
        if self._dist is None:
            self._dist = self.topo.graph.all_pairs_distances(dtype=np.int16)
        return self._dist

    @property
    def max_distance(self) -> int:
        """The largest distance the tables serve (the diameter).

        For tables served from coordinates
        (:func:`~repro.routing.algebraic.coordinates_apply`) the
        family's diameter — 2 for ER_q, 3 for PolarStar — so nothing is
        built; else ``dist.max()``.
        """
        # Imported here: repro.routing.algebraic imports the policies,
        # which import this module.
        from repro.routing.algebraic import _DIAMETER, coordinates_apply

        if coordinates_apply(self):
            return _DIAMETER[type(self.topo)]
        return int(self.dist.max())

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def distance(self, src: int, dst: int) -> int:
        """Hop distance between routers."""
        return int(self.dist[src, dst])

    def min_next_hops(self, cur: int, dst: int) -> np.ndarray:
        """All neighbors of ``cur`` lying on a shortest path to ``dst``."""
        if cur == dst:
            return np.empty(0, dtype=np.int64)
        nbrs = self.topo.graph.neighbors(cur)
        return nbrs[self.dist[nbrs, dst] == self.dist[cur, dst] - 1]

    def shortest_path(self, src: int, dst: int, rng=None) -> list[int]:
        """One shortest path ``[src, ..., dst]``.

        Deterministic (first next-hop) when ``rng`` is None, otherwise a
        uniformly random choice at each step — the ECMP behaviour used for
        baselines with path diversity.
        """
        path = [src]
        cur = src
        rng = make_rng(rng) if rng is not None else None
        while cur != dst:
            hops = self.min_next_hops(cur, dst)
            # integers() is much cheaper than rng.choice for the
            # per-hop tie-break on this per-packet hot path.
            cur = int(hops[0] if rng is None else hops[rng.integers(hops.size)])
            path.append(cur)
        return path

    # ------------------------------------------------------------------
    # Batched extraction (the per-cycle routing hot path)
    # ------------------------------------------------------------------
    def _candidate_table(self) -> _CandidateTable:
        """The compact candidate table, derived from ``dist`` on first use.

        Fresh tables and tables over an external distance matrix
        (:meth:`from_distances`, i.e. fault repair) alike build it on
        demand, with the same builder.
        """
        if self._cands is None:
            self._cands = _CandidateTable.from_distances(
                self.topo.graph, self.dist
            )
        return self._cands

    def shortest_paths_batch(self, srcs, dsts, rng=None) -> tuple:
        """Vectorized ECMP shortest paths for a batch of (src, dst) pairs.

        Returns ``(paths, lens)``: a ``[k, max_len]`` int32 matrix whose
        row ``i`` holds the path in columns ``0..lens[i]-1`` (columns
        beyond a row's length are unspecified).  With ``rng`` the
        tie-break at every step is a uniform candidate draw (one
        vectorized ``integers`` call per path column across the batch);
        without it the lowest-id candidate is taken, matching scalar
        :meth:`shortest_path`'s deterministic mode.
        """
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        lens = self.dist[srcs, dsts].astype(np.int64) + 1
        if srcs.size == 0:
            return np.empty((0, 1), dtype=np.int32), lens
        n = self.topo.num_routers
        tab = self._candidate_table()
        max_len = int(lens.max())
        paths = np.empty((srcs.size, max_len), dtype=np.int32)
        paths[:, 0] = srcs
        cur = srcs.copy()
        for col in range(1, max_len):
            # A row is still walking while col < lens - 1 + 1.
            act = np.flatnonzero(lens > col)
            nxt = tab.next_hops(cur[act] * n + dsts[act], rng)
            cur[act] = nxt
            paths[act, col] = nxt
        return paths, lens
