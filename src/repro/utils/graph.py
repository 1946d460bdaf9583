"""A compact undirected-graph kernel shared by all subsystems.

The graph is stored in CSR form (``indptr``/``indices``), which keeps
neighbor iteration allocation-free and makes the BFS kernels below pure
numpy frontier expansions — no per-vertex Python objects, no adjacency
copies (guides: vectorize loops, prefer views over copies).

Only what the reproduction needs is implemented: construction from edge
lists, BFS distances (single-source and all-sources batched), diameter /
average shortest path length, connectivity, edge removal (for failure
sweeps), and triangle enumeration (for the PolarFly structural theorems).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = ["Graph"]

#: working-set bytes of one source-row block of the row-streamed passes —
#: the batched BFS's int64 dedupe stamp (so also the distance blocks the
#: diameter / ASPL consumers materialize) and the routing tables'
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

        Level-synchronous batched BFS: the frontier is a set of
        ``(source row, vertex)`` pairs over a whole block of sources
        simultaneously, and one level is a handful of CSR gathers
        (``np.repeat`` over the frontier's neighbor slices) — no
        per-source Python loop.  Row ``i`` equals
        ``bfs_distances(sources[i])`` exactly; ``sources=None`` yields the
        full ``n x n`` distance matrix.

        The sources are expanded :data:`_BLOCK_BYTES` of dedupe stamp at a
        time, so the frontier arrays and the int64 dedupe stamp stay
        cache-sized whatever the caller asks for: the only allocation
        that scales with ``len(sources) * n`` is the result itself.

        ``dtype`` sizes the output (routing tables store int16); a graph
        whose eccentricity does not fit raises :class:`OverflowError`.
        """
        if sources is None:
            src = np.arange(self.n, dtype=np.int64)
        else:
            src = np.asarray(sources, dtype=np.int64).ravel()
        dist = np.full((src.size, self.n), -1, dtype=dtype)
        step = self._block_rows(8 * self.n)
        for lo in range(0, src.size, step):
            self._bfs_block(src[lo : lo + step], dist[lo : lo + step])
        return dist

    def _bfs_block(self, src: np.ndarray, dist: np.ndarray) -> None:
        """Fill ``dist`` (all -1, one row per entry of ``src``) in place."""
        k = src.size
        rows = np.arange(k, dtype=np.int64)
        dist[rows, src] = 0
        f_row, f_v = rows, src
        # Remaining unset entries: once every pair is settled (e.g. after
        # level 2 on a diameter-2 graph) the loop exits without paying
        # the final, fruitless frontier expansion.
        unknown = k * (self.n - 1)
        # Scratch stamp matrix for sort-free frontier deduplication: the
        # level's pairs scatter their positions in, and only the entries
        # that read their own position back survive (last write wins).
        # Never reset: a (row, vertex) pair is stamped at most once, so
        # stale stamps are never compared against.
        stamp = np.empty((k, self.n), dtype=np.int64)
        level = 0
        ceiling = np.iinfo(dist.dtype).max
        indptr, indices = self.indptr, self.indices
        while f_v.size and unknown > 0:
            level += 1
            starts = indptr[f_v]
            counts = indptr[f_v + 1] - starts
            total = int(counts.sum())
            if total == 0:
                break
            # Gather every frontier vertex's neighbor slice in one shot:
            # global position minus the slice's exclusive prefix sum is
            # the offset within its CSR slice.
            cum = np.cumsum(counts)
            gather = np.arange(total, dtype=np.int64) + np.repeat(
                starts - cum + counts, counts
            )
            nbr = indices[gather]
            row = np.repeat(f_row, counts)
            fresh = dist[row, nbr] < 0
            row, nbr = row[fresh], nbr[fresh]
            if row.size == 0:
                break
            if level > ceiling:
                raise OverflowError(
                    f"BFS level {level} does not fit distance dtype "
                    f"{dist.dtype.name} (max {ceiling})"
                )
            pos = np.arange(row.size, dtype=np.int64)
            stamp[row, nbr] = pos
            keep = stamp[row, nbr] == pos
            row, nbr = row[keep], nbr[keep]
            dist[row, nbr] = level
            unknown -= row.size
            f_row, f_v = row, nbr

    def bfs_distances(self, source: int) -> np.ndarray:
        """Hop distances from ``source``; unreachable vertices get -1."""
        return self.all_pairs_distances(np.array([source], dtype=np.int64))[0]

    def distances_from(self, sources: Sequence[int]) -> np.ndarray:
        """Batched BFS distances, one row per source."""
        return self.all_pairs_distances(np.asarray(sources, dtype=np.int64))

    def _block_rows(self, row_bytes: int) -> int:
        """Source rows per block of a pass that works on ``row_bytes`` each."""
        return max(1, _BLOCK_BYTES // max(row_bytes, 1))

    def _source_blocks(self, sources: np.ndarray):
        """Source chunks, one BFS block each, for the streaming consumers."""
        step = self._block_rows(8 * self.n)
        for i in range(0, len(sources), step):
            yield sources[i : i + step]

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
        sources = np.arange(self.n)
        if sample is not None and sample < self.n:
            from repro.utils.rng import make_rng

            sources = make_rng(rng).choice(self.n, size=sample, replace=False)
        worst = 0
        for block in self._source_blocks(sources):
            dist = self.all_pairs_distances(block)
            if bool((dist < 0).any()):
                return -1
            worst = max(worst, int(dist.max()))
        return worst

    def average_shortest_path_length(
        self, sample: int | None = None, rng=None
    ) -> float:
        """Mean pairwise hop distance; ``inf`` when disconnected."""
        sources = np.arange(self.n)
        if sample is not None and sample < self.n:
            from repro.utils.rng import make_rng

            sources = make_rng(rng).choice(self.n, size=sample, replace=False)
        total = 0
        count = 0
        for block in self._source_blocks(sources):
            dist = self.all_pairs_distances(block)
            if bool((dist < 0).any()):
                return float("inf")
            total += int(dist.sum())
            count += dist.shape[0] * (self.n - 1)
        return total / count if count else 0.0

    def diameter_and_aspl(
        self, sample: int | None = None, rng=None
    ) -> tuple[int, float]:
        """Diameter and mean pairwise distance in one batched BFS pass.

        Failure sweeps need both per checkpoint; computing them
        separately pays the all-pairs expansion twice (and, when
        sampling, draws two different source sets).  Returns
        ``(-1, inf)`` on the first disconnected block, without expanding
        the remaining sources.
        """
        sources = np.arange(self.n)
        if sample is not None and sample < self.n:
            from repro.utils.rng import make_rng

            sources = make_rng(rng).choice(self.n, size=sample, replace=False)
        worst = 0
        total = 0
        count = 0
        for block in self._source_blocks(sources):
            dist = self.all_pairs_distances(block)
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
