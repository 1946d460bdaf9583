"""PolarFly cluster (rack) layout — Algorithm 1 of the paper.

For odd prime power ``q``, the vertex set of ER_q decomposes into ``q + 1``
clusters:

* ``C0`` — the ``q + 1`` quadrics, mutually non-adjacent (an independent
  set, Property 1.1);
* ``C1 .. Cq`` — one cluster per neighbor of an arbitrarily chosen starter
  quadric.  Each consists of that neighbor (the *center*) plus its ``q - 1``
  non-quadric neighbors, and its internal edges form ``(q-1)/2`` triangles
  fanning out of the center (Proposition V.2).

Inter-rack structure (Propositions V.3/V.4): exactly ``q + 1`` links between
``C0`` and each non-quadric cluster, and exactly ``q - 2`` pairwise
independent links between any two non-quadric clusters.
"""

from __future__ import annotations

import numpy as np

from repro.core.polarfly import PolarFly

__all__ = ["ClusterLayout"]


class ClusterLayout:
    """Rack assignment of a PolarFly per Algorithm 1.

    Parameters
    ----------
    pf:
        The PolarFly topology (odd ``q`` required; even ``q`` has a
        different quadric structure and is out of the paper's layout scope).
    starter:
        Index of the quadric used to seed the layout; defaults to the
        lowest-indexed quadric.  Any quadric yields an isomorphic layout
        (Theorem V.8).

    Attributes
    ----------
    cluster_of:
        Length-N array mapping vertex -> cluster id (0 = quadrics rack).
    centers:
        ``centers[i]`` is the center vertex of cluster ``i`` for
        ``i >= 1``; ``centers[0] = -1`` (the quadric rack has no center).
    """

    def __init__(self, pf: PolarFly, starter: "int | None" = None):
        if pf.q % 2 == 0:
            raise ValueError(
                "Algorithm 1 layout is defined for odd q "
                "(even q has a degenerate quadric structure)"
            )
        self.pf = pf
        q = pf.q
        if starter is None:
            starter = int(pf.quadrics[0])
        if not pf.is_quadric(starter):
            raise ValueError(f"starter vertex {starter} is not a quadric")
        self.starter = int(starter)

        n = pf.num_routers
        cluster_of = np.full(n, -1, dtype=np.int64)
        cluster_of[pf.quadrics] = 0

        centers = np.full(q + 1, -1, dtype=np.int64)
        graph = pf.graph
        for i, center in enumerate(graph.neighbors(self.starter), start=1):
            center = int(center)
            centers[i] = center
            members = [center]
            for u in graph.neighbors(center):
                u = int(u)
                if not pf.is_quadric(u) and u != center:
                    members.append(u)
            members_arr = np.array(members, dtype=np.int64)
            if np.any(cluster_of[members_arr] != -1):
                raise RuntimeError(
                    "cluster overlap — violates Proposition V.1"
                )
            cluster_of[members_arr] = i

        if np.any(cluster_of < 0):
            raise RuntimeError("unassigned vertices — violates Proposition V.1")
        self.cluster_of = cluster_of
        self.centers = centers
        self.num_clusters = q + 1

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def cluster(self, i: int) -> np.ndarray:
        """Vertex indices of cluster ``i`` (sorted)."""
        return np.flatnonzero(self.cluster_of == i)

    def center(self, i: int) -> int:
        """Center vertex of non-quadric cluster ``i >= 1``."""
        if i == 0:
            raise ValueError("the quadric cluster C0 has no center")
        return int(self.centers[i])

    # ------------------------------------------------------------------
    # Structure census (Propositions V.2-V.4)
    # ------------------------------------------------------------------
    def intra_cluster_edges(self, i: int) -> list[tuple[int, int]]:
        """Edges internal to cluster ``i``."""
        members = set(self.cluster(i).tolist())
        out = []
        for u in sorted(members):
            for v in self.pf.graph.neighbors(u):
                v = int(v)
                if v > u and v in members:
                    out.append((u, v))
        return out

    def inter_cluster_edges(self, i: int, j: int) -> list[tuple[int, int]]:
        """Edges between clusters ``i`` and ``j`` (``i != j``)."""
        if i == j:
            raise ValueError("use intra_cluster_edges for i == j")
        members_i = set(self.cluster(i).tolist())
        members_j = set(self.cluster(j).tolist())
        out = []
        for u in sorted(members_i):
            for v in self.pf.graph.neighbors(u):
                v = int(v)
                if v in members_j:
                    out.append((u, v))
        return out

    def link_census(self) -> np.ndarray:
        """Matrix ``L[i, j]`` = number of links between clusters i and j.

        Expected: ``L[0, i] = q + 1`` and ``L[i, j] = q - 2`` for distinct
        non-quadric clusters (near-balanced all-to-all between racks).
        """
        c = self.num_clusters
        census = np.zeros((c, c), dtype=np.int64)
        cluster_of = self.cluster_of
        for u, v in self.pf.graph.edges():
            ci, cj = int(cluster_of[u]), int(cluster_of[v])
            if ci != cj:
                census[ci, cj] += 1
                census[cj, ci] += 1
        return census

    def fan_triangles(self, i: int) -> list[tuple[int, int, int]]:
        """The ``(q-1)/2`` internal triangles of non-quadric cluster ``i``.

        Each contains the cluster center (Proposition V.2); returned as
        sorted triples.
        """
        if i == 0:
            return []
        members = set(self.cluster(i).tolist())
        center = self.center(i)
        graph = self.pf.graph
        out = []
        nbrs = [int(v) for v in graph.neighbors(center) if int(v) in members]
        for a_pos, a in enumerate(nbrs):
            for b in nbrs[a_pos + 1 :]:
                if graph.has_edge(a, b):
                    out.append(tuple(sorted((center, a, b))))
        return out

    def unconnected_vertex(self, i: int, j: int) -> int:
        """The unique ``u' in Ci \\ {center}`` with no edge to ``Cj``.

        Proposition V.4.3 — used by the non-quadric expansion scheme to
        re-balance degrees.
        """
        if i == 0 or j == 0 or i == j:
            raise ValueError("defined for distinct non-quadric clusters")
        members_j = set(self.cluster(j).tolist())
        center = self.center(i)
        orphans = []
        for u in self.cluster(i):
            u = int(u)
            if u == center:
                continue
            if not any(int(v) in members_j for v in self.pf.graph.neighbors(u)):
                orphans.append(u)
        if len(orphans) != 1:
            raise RuntimeError(
                f"expected exactly one unconnected vertex, got {orphans} "
                "— violates Proposition V.4.3"
            )
        return orphans[0]
