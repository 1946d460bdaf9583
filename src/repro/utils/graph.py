"""A compact undirected-graph kernel shared by all subsystems.

The graph is stored in CSR form (``indptr``/``indices``), which keeps
neighbor iteration allocation-free.  Every distance query runs one
bit-parallel BFS (:meth:`Graph.all_pairs_distances`): each vertex holds
one bit per source, 64 sources to a machine word, and a level is one
``bitwise_or.reduceat`` over the CSR — on diameter-2/3 graphs like
PolarFly and PolarStar, two or three whole-graph passes.

Only what the reproduction needs is implemented: construction from edge
lists, BFS distances (single-source and all-sources batched), diameter /
average shortest path length, connectivity, edge removal (for failure
sweeps), and triangle enumeration (for the PolarFly structural theorems).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = ["Graph"]

#: working-set bytes of one row block of the row-streamed passes — the
#: BFS's gathered neighbor words of a vertex block, the distance blocks the
#: diameter / ASPL consumers materialize, and the routing tables'
#: candidate comparison.  Measured flat within 256 KB-1 MB on every size
#: from q=19 to q=79 and both PolarStars; 4 MB and up lose to page faults.
_BLOCK_BYTES = 1 << 19


class Graph:
    """Immutable undirected simple graph over vertices ``0..n-1``.

    Parameters
    ----------
    n:
        Number of vertices.
    edges:
        Iterable of ``(u, v)`` pairs with ``u != v``.  Duplicate edges are
        collapsed; the graph is simple and undirected.
    """

    __slots__ = ("n", "indptr", "indices", "_edge_array")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        self.n = int(n)
        if isinstance(edges, np.ndarray) and edges.dtype != object:
            # Array fast path: orient every row u < v with one in-place
            # row sort instead of a Python comprehension over the edges
            # (the failure-sweep mutation helpers below construct graphs
            # from kept-edge arrays on their hot path).
            edge_arr = edges.astype(np.int64, copy=True)
            if edge_arr.size and (edge_arr.ndim != 2 or edge_arr.shape[1] != 2):
                raise ValueError("edge array must have shape (m, 2)")
            edge_arr.sort(axis=-1)
        else:
            edge_arr = np.asarray(
                [(u, v) if u < v else (v, u) for (u, v) in edges], dtype=np.int64
            )
        if edge_arr.size == 0:
            edge_arr = edge_arr.reshape(0, 2)
        else:
            if edge_arr.min() < 0 or edge_arr.max() >= self.n:
                raise ValueError("edge endpoint out of range")
            if np.any(edge_arr[:, 0] == edge_arr[:, 1]):
                raise ValueError("self-loops are not allowed")
            # Dedupe on the scalar key u * n + v: the same rows in the
            # same (lexicographic) order as np.unique(axis=0), without
            # its sort of a structured view.
            keys = np.unique(edge_arr[:, 0] * self.n + edge_arr[:, 1])
            edge_arr = np.stack(np.divmod(keys, self.n), axis=1)
        self._edge_array = edge_arr
        # Build CSR from the symmetrized edge list.
        src = np.concatenate([edge_arr[:, 0], edge_arr[:, 1]])
        dst = np.concatenate([edge_arr[:, 1], edge_arr[:, 0]])
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        self.indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.add.at(self.indptr, src + 1, 1)
        np.cumsum(self.indptr, out=self.indptr)
        self.indices = dst

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_adjacency_matrix(cls, adj: np.ndarray) -> "Graph":
        """Build from a boolean/0-1 adjacency matrix (diagonal ignored)."""
        adj = np.asarray(adj)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency matrix must be square")
        iu, ju = np.nonzero(np.triu(adj != 0, k=1))
        return cls(adj.shape[0], zip(iu.tolist(), ju.tolist()))

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return int(self._edge_array.shape[0])

    def edges(self) -> np.ndarray:
        """The ``(m, 2)`` array of undirected edges with ``u < v`` (a view)."""
        return self._edge_array

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor array of ``v`` (a CSR view, do not mutate)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def degree(self, v: int | None = None):
        """Degree of ``v``, or the full degree vector when ``v`` is None."""
        if v is None:
            return np.diff(self.indptr)
        return int(self.indptr[v + 1] - self.indptr[v])

    def has_edge(self, u: int, v: int) -> bool:
        """True iff ``{u, v}`` is an edge."""
        nbrs = self.neighbors(u)
        pos = np.searchsorted(nbrs, v)
        return bool(pos < nbrs.size and nbrs[pos] == v)

    def adjacency_matrix(self, dtype=bool) -> np.ndarray:
        """Dense adjacency matrix (freshly allocated)."""
        adj = np.zeros((self.n, self.n), dtype=dtype)
        e = self._edge_array
        adj[e[:, 0], e[:, 1]] = 1
        adj[e[:, 1], e[:, 0]] = 1
        return adj

    # ------------------------------------------------------------------
    # Shortest paths (unweighted)
    # ------------------------------------------------------------------
    def all_pairs_distances(self, sources=None, dtype=np.int64) -> np.ndarray:
        """Hop distances from many sources at once; unreachable pairs get -1.

        Bit-parallel level-synchronous BFS over all sources together:
        ``reach[t]`` holds one bit per source, 64 to a ``uint64`` word
        (bit ``j & 63`` of word ``j >> 6``), set once
        ``dist(sources[j], t) <= level``.  One level is ``reach[t] |= OR
        of reach[u] over u in N(t)`` — a ``np.bitwise_or.reduceat`` over
        the gathered CSR rows of each block of vertices — after which the
        newly set bits are unpacked block by block and ``level`` lands in
        the result through a transposed view of them.  Row ``i`` equals
        ``bfs_distances(sources[i])`` exactly; ``sources=None`` yields the
        full ``n x n`` distance matrix.

        The loop stops once every pair is settled (a diameter-2 graph
        pays two levels, not three) or a level adds nothing (the -1s of
        a disconnected graph stay).  Besides the result, it holds two
        bit matrices of ``n * len(sources) / 8`` bytes each and one
        :data:`_BLOCK_BYTES` block of gathered words or unpacked bits.

        ``dtype`` sizes the output (routing tables store int16); a graph
        whose eccentricity does not fit raises :class:`OverflowError`.
        """
        if sources is None:
            src = np.arange(self.n, dtype=np.int64)
        else:
            src = np.asarray(sources, dtype=np.int64).ravel()
        k = src.size
        dist = np.full((k, self.n), -1, dtype=dtype)
        col = np.arange(k, dtype=np.int64)
        dist[col, src] = 0
        words = -(-k // 64)
        reach = np.zeros((self.n, words), dtype=np.uint64)
        np.bitwise_or.at(
            reach, (src, col >> 6), np.uint64(1) << (col & 63).astype(np.uint64)
        )
        nxt = np.empty_like(reach)
        # Gather blocks, sized by a row's neighbor words: the CSR slice
        # each reads, and the reduceat offsets of its rows with neighbors
        # (reduceat hands an empty segment the next row's value).
        indptr, indices = self.indptr, self.indices
        step = self._block_rows(8 * words * (indices.size // max(self.n, 1) + 2))
        blocks = []
        for a in range(0, self.n, step):
            b = min(a + step, self.n)
            rows = np.flatnonzero(indptr[a + 1 : b + 1] > indptr[a:b])
            offsets = indptr[a:b][rows] - indptr[a]
            blocks.append((a, b, indices[indptr[a] : indptr[b]], rows, offsets))
        # Write blocks, sized by a row's unpacked bits and level term.
        wstep = self._block_rows(k * (1 + dist.itemsize))
        unknown = k * (self.n - 1)
        ceiling = np.iinfo(dist.dtype).max
        level = 0
        while unknown > 0:
            level += 1
            for a, b, nbrs, rows, offsets in blocks:
                new = nxt[a:b]
                np.copyto(new, reach[a:b])
                if offsets.size:
                    new[rows] |= np.bitwise_or.reduceat(reach[nbrs], offsets)
            added = 0
            for a in range(0, self.n, wstep):
                # '<u8', not native uint64: the unpack reads the words'
                # bytes, least significant first, on any host.
                fresh = nxt[a : a + wstep] & ~reach[a : a + wstep]
                fresh = fresh.astype("<u8", copy=False)
                if not fresh.any():
                    continue
                if level > ceiling:
                    raise OverflowError(
                        f"BFS level {level} does not fit distance dtype "
                        f"{dist.dtype.name} (max {ceiling})"
                    )
                bits = np.unpackbits(
                    fresh.view(np.uint8), axis=1, count=k, bitorder="little"
                ).view(bool)
                # Fresh pairs are still -1, so subtracting -1 - level sets
                # them to level: branch-free, unlike a masked copy.
                block = dist[:, a : a + wstep]
                np.subtract(block, bits.T * dist.dtype.type(-1 - level), out=block)
                added += int(np.count_nonzero(bits))
            if not added:
                break
            unknown -= added
            reach, nxt = nxt, reach
        return dist

    def bfs_distances(self, source: int) -> np.ndarray:
        """Hop distances from ``source``; unreachable vertices get -1."""
        return self.all_pairs_distances(np.array([source], dtype=np.int64))[0]

    def distances_from(self, sources: Sequence[int]) -> np.ndarray:
        """Batched BFS distances, one row per source."""
        return self.all_pairs_distances(np.asarray(sources, dtype=np.int64))

    def _block_rows(self, row_bytes: int) -> int:
        """Rows per block of a pass that works on ``row_bytes`` per row."""
        return max(1, _BLOCK_BYTES // max(row_bytes, 1))

    def eccentricity(self, v: int) -> int:
        """Max distance from ``v``; -1 when the graph is disconnected."""
        dist = self.bfs_distances(v)
        if np.any(dist < 0):
            return -1
        return int(dist.max())

    def diameter(self, sample: int | None = None, rng=None) -> int:
        """Graph diameter; -1 when disconnected.

        ``sample`` limits the number of BFS sources (lower bound estimate)
        for large failure sweeps; exact when None.
        """
        return self.diameter_and_aspl(sample, rng)[0]

    def average_shortest_path_length(
        self, sample: int | None = None, rng=None
    ) -> float:
        """Mean pairwise hop distance; ``inf`` when disconnected."""
        return self.diameter_and_aspl(sample, rng)[1]

    def diameter_and_aspl(
        self, sample: int | None = None, rng=None
    ) -> tuple[int, float]:
        """Diameter and mean pairwise distance in one batched BFS pass.

        Failure sweeps need both per checkpoint; computing them
        separately pays the all-pairs expansion twice (and, when
        sampling, draws two different source sets).  The sources are
        expanded in whole 64-source words, each block's int64 distance
        rows about :data:`_BLOCK_BYTES`.  Returns ``(-1, inf)`` on the
        first disconnected block, without expanding the remaining sources.
        """
        sources = np.arange(self.n)
        if sample is not None and sample < self.n:
            from repro.utils.rng import make_rng

            sources = make_rng(rng).choice(self.n, size=sample, replace=False)
        step = 64 * -(-self._block_rows(8 * self.n) // 64)
        worst = 0
        total = 0
        count = 0
        for lo in range(0, sources.size, step):
            dist = self.all_pairs_distances(sources[lo : lo + step])
            if bool((dist < 0).any()):
                return -1, float("inf")
            worst = max(worst, int(dist.max()))
            total += int(dist.sum())
            count += dist.shape[0] * (self.n - 1)
        return worst, total / count if count else 0.0

    def is_connected(self) -> bool:
        """True iff every vertex is reachable from vertex 0."""
        if self.n == 0:
            return True
        return bool(np.all(self.bfs_distances(0) >= 0))

    # ------------------------------------------------------------------
    # Mutation-by-copy
    # ------------------------------------------------------------------
    def remove_edges(self, doomed) -> "Graph":
        """Return a new graph with ``doomed`` edges removed.

        Accepts an ``(m, 2)`` array or any iterable of pairs; membership
        is one vectorized key comparison (failure sweeps call this once
        per checkpoint, so no Python loop over the edge set).
        """
        if isinstance(doomed, np.ndarray):
            doomed_arr = doomed.astype(np.int64, copy=True)
        else:
            doomed_arr = np.asarray(list(doomed), dtype=np.int64)
        doomed_arr = doomed_arr.reshape(-1, 2)
        if doomed_arr.size == 0:
            return Graph(self.n, self._edge_array)
        doomed_arr.sort(axis=1)
        # Out-of-range pairs can't be edges — drop them before keying so
        # they can't alias a real edge's u*n+v key (non-edges have
        # always been a silent no-op here).
        doomed_arr = doomed_arr[
            (doomed_arr[:, 0] >= 0) & (doomed_arr[:, 1] < self.n)
        ]
        e = self._edge_array
        keep = ~np.isin(
            e[:, 0] * self.n + e[:, 1],
            doomed_arr[:, 0] * self.n + doomed_arr[:, 1],
        )
        return Graph(self.n, e[keep])

    def subgraph_mask(self, mask: np.ndarray) -> "Graph":
        """Induced subgraph on vertices where ``mask`` is True (relabelled)."""
        mask = np.asarray(mask, dtype=bool)
        new_id = np.full(self.n, -1, dtype=np.int64)
        new_id[mask] = np.arange(int(mask.sum()), dtype=np.int64)
        e = self._edge_array
        kept = e[mask[e[:, 0]] & mask[e[:, 1]]]
        return Graph(int(mask.sum()), new_id[kept])

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def triangles(self) -> list[tuple[int, int, int]]:
        """All triangles as sorted vertex triples.

        Uses the standard forward-neighborhood intersection: for each edge
        ``(u, v)`` with ``u < v``, intersect the higher-numbered neighbors.
        """
        out: list[tuple[int, int, int]] = []
        for u, v in self._edge_array:
            nu = self.neighbors(int(u))
            nv = self.neighbors(int(v))
            common = np.intersect1d(
                nu[nu > v], nv[nv > v], assume_unique=True
            )
            for w in common:
                out.append((int(u), int(v), int(w)))
        return out

    def count_4cycles(self) -> int:
        """Number of quadrilaterals (4-cycles) in the graph.

        Counted via paths of length 2: an unordered pair with ``p2`` common
        neighbors contributes ``C(p2, 2)`` quadrilaterals, and every
        quadrilateral is seen by both of its diagonal pairs — hence the
        final halving.
        """
        adj = self.adjacency_matrix(dtype=np.int64)
        p2 = adj @ adj
        iu = np.triu_indices(self.n, k=1)
        c = p2[iu]
        return int((c * (c - 1) // 2).sum()) // 2

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.num_edges})"
