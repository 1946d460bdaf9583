"""PolarFly: the Erdős–Rényi polarity graph ER_q as a network topology.

Construction (paper Section IV-C): vertices are the left-normalized nonzero
vectors of F_q^3 (equivalently, points of the projective plane PG(2, q));
two distinct vertices are adjacent iff their dot product over GF(q) is zero.
The resulting graph has

* ``N = q**2 + q + 1`` vertices,
* degree ``q + 1`` (quadric vertices — the self-orthogonal ones — have
  simple-graph degree ``q`` since their self-loop is dropped),
* diameter 2, asymptotically meeting the Moore bound ``N <= k**2 + 1``.

The vertex set splits into the quadrics ``W`` (size ``q+1``), the vertices
adjacent to a quadric ``V1`` (size ``q(q+1)/2``) and the rest ``V2``
(size ``q(q-1)/2``) — Property 1 of the paper (odd ``q``).

Construction is **sparse**: instead of the O(N^2) all-pairs dot product,
each vertex enumerates the ``q+1`` points of its *polar line* (the
projective line of vectors orthogonal to it) directly — O(N*q) work and
memory, which is what unlocks the q=53/q=79 tier.  The dense all-pairs
dot product survives only as ``dense_polar_adjacency`` in
``tests/oracles.py``, which ``tests/test_core_polarfly.py`` pins the
sparse edge list against.  All arithmetic is vectorized GF(q) table
gathers; no Python loop touches a vertex pair.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.registry import TOPOLOGIES
from repro.fields import GF, is_prime_power
from repro.topologies.base import Topology
from repro.utils.graph import Graph

__all__ = ["PolarFly", "polarfly_order", "polarfly_radix", "feasible_q_for_radix"]


def polarfly_order(q: int) -> int:
    """Number of routers of PolarFly(q): ``q**2 + q + 1``."""
    return q * q + q + 1


def polarfly_radix(q: int) -> int:
    """Network radix of PolarFly(q): ``q + 1``."""
    return q + 1


def feasible_q_for_radix(k: int) -> "int | None":
    """The ``q`` realizing network radix exactly ``k``, or None.

    PolarFly needs ``q = k - 1`` to be a prime power.
    """
    q = k - 1
    return q if (q >= 2 and is_prime_power(q)) else None


class PolarFly(Topology):
    """The ER_q polarity-graph topology (the paper's contribution).

    Parameters
    ----------
    q:
        Any prime power >= 2.  Odd ``q`` gives the layout/expansion
        structure analysed in the paper; even ``q`` still yields a valid
        diameter-2 ER graph.
    concentration:
        Endpoints per router (the paper's ``p``); default 0 builds the bare
        router graph for structural analyses.

    Attributes
    ----------
    vectors:
        ``(N, 3)`` array of left-normalized vertex vectors (GF(q) codes).
    quadric_mask, v1_mask, v2_mask:
        Boolean partition of the vertex set into W, V1 and V2.
    """

    def __init__(self, q: int, concentration: int = 0):
        if is_prime_power(q) is None:
            raise ValueError(f"PolarFly requires a prime power q, got {q}")
        self.q = int(q)
        self.field = GF(q)
        self.vectors = self._generate_vertices()
        graph = self._build_graph()
        super().__init__(f"PF(q={q})", graph, concentration)
        self._classify_vertices(graph)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _generate_vertices(self) -> np.ndarray:
        """All left-normalized nonzero vectors of F_q^3, in a fixed order.

        Order: ``[1, y, z]`` lexicographically, then ``[0, 1, z]``, then
        ``[0, 0, 1]`` — q^2 + q + 1 rows.
        """
        q = self.q
        yy, zz = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
        block1 = np.column_stack(
            [np.ones(q * q, dtype=np.int64), yy.ravel(), zz.ravel()]
        )
        block2 = np.column_stack(
            [np.zeros(q, dtype=np.int64), np.ones(q, dtype=np.int64), np.arange(q)]
        )
        block3 = np.array([[0, 0, 1]], dtype=np.int64)
        return np.vstack([block1, block2, block3])

    def _vertex_codes(self, normalized: np.ndarray) -> np.ndarray:
        """Closed-form vertex index of left-normalized vectors.

        Inverts the :meth:`_generate_vertices` ordering without a lookup
        table: ``[1, y, z] -> y*q + z``, ``[0, 1, z] -> q^2 + z``,
        ``[0, 0, 1] -> q^2 + q``.  Vectorized over leading axes.
        """
        q = self.q
        a, b, c = normalized[..., 0], normalized[..., 1], normalized[..., 2]
        return np.where(a == 1, b * q + c, np.where(b == 1, q * q + c, q * q + q))

    def _build_graph(self) -> Graph:
        """Sparse edge list via polar lines — O(N*q) work and memory.

        The neighbors of ``v`` are exactly the points of its polar line
        ``v^perp = {w : dot(v, w) == 0}`` (minus ``v`` itself when ``v``
        is a quadric).  A basis of that plane comes from the cross
        products ``c_i = v x e_i`` with the standard basis vectors: pick
        ``p1`` as the first nonzero ``c_i`` and ``p2`` as the first
        ``c_j`` independent of it; the line is ``{p1} ∪ {p2 + t*p1}`` for
        ``t`` in GF(q) — ``q + 1`` projective points per vertex, no N^2
        structure anywhere.  Pinned against the dense dot-product oracle
        by ``test_sparse_edges_match_dense_dot_product`` in
        ``tests/test_core_polarfly.py``.
        """
        f, v = self.field, self.vectors
        n = v.shape[0]
        basis = np.eye(3, dtype=np.int64)
        c = f.cross(v[:, None, :], basis[None, :, :])  # (N, 3, 3)
        nz = (c != 0).any(axis=2)
        i1 = np.argmax(nz, axis=1)
        p1 = c[np.arange(n), i1]
        indep = (f.cross(p1[:, None, :], c) != 0).any(axis=2)
        i2 = np.argmax(indep, axis=1)
        p2 = c[np.arange(n), i2]
        t = f.elements()
        pts = f.add(p2[:, None, :], f.mul(t[None, :, None], p1[:, None, :]))
        line = np.concatenate([p1[:, None, :], pts], axis=1)  # (N, q+1, 3)
        nbr = self._vertex_codes(f.left_normalize(line))
        src = np.repeat(np.arange(n, dtype=np.int64), self.q + 1)
        dst = nbr.ravel()
        keep = src != dst  # quadrics lie on their own polar line
        return Graph(n, np.column_stack([src[keep], dst[keep]]))

    def _classify_vertices(self, graph: Graph) -> None:
        v = self.vectors
        self_dots = self.field.dot(v, v)
        self.quadric_mask = self_dots == 0
        # V1 = non-quadrics adjacent to at least one quadric, found by
        # scanning the (sparse) edge list rather than a dense adjacency.
        e = graph.edges()
        touches_quadric = np.zeros(v.shape[0], dtype=bool)
        touches_quadric[e[:, 0][self.quadric_mask[e[:, 1]]]] = True
        touches_quadric[e[:, 1][self.quadric_mask[e[:, 0]]]] = True
        self.v1_mask = touches_quadric & ~self.quadric_mask
        self.v2_mask = ~touches_quadric & ~self.quadric_mask
        self.quadrics = np.flatnonzero(self.quadric_mask)
        self.v1 = np.flatnonzero(self.v1_mask)
        self.v2 = np.flatnonzero(self.v2_mask)

    # ------------------------------------------------------------------
    # Vertex identity and classification
    # ------------------------------------------------------------------
    def vertex_index(self, vector) -> int:
        """Index of the vertex for any nonzero vector (normalizes first)."""
        norm = self.field.left_normalize(np.asarray(vector, dtype=np.int64))[0]
        return int(self._vertex_codes(norm))

    def vertex_class(self, v: int) -> str:
        """``"W"``, ``"V1"`` or ``"V2"`` for vertex ``v``."""
        if self.quadric_mask[v]:
            return "W"
        return "V1" if self.v1_mask[v] else "V2"

    def is_quadric(self, v: int) -> bool:
        """True iff ``v`` is self-orthogonal (lies on the quadric conic)."""
        return bool(self.quadric_mask[v])

    # ------------------------------------------------------------------
    # Algebraic routing (Section IV-D)
    # ------------------------------------------------------------------
    def intermediate(self, s: int, d: int) -> int:
        """The unique midpoint of the 2-hop minimal path between ``s``, ``d``.

        Computed algebraically as the left-normalized cross product
        ``s x d`` (equation (2) in the paper) — the single vector
        orthogonal to both endpoints.  Valid for any distinct pair; when
        ``s`` and ``d`` are adjacent the result is the intermediate vertex
        of the *alternative* 2-hop path (it may coincide with an endpoint
        when one endpoint is a quadric).
        """
        if s == d:
            raise ValueError("intermediate vertex undefined for s == d")
        cross = self.field.cross(self.vectors[s], self.vectors[d])
        return self.vertex_index(cross)

    def are_adjacent(self, s: int, d: int) -> bool:
        """True iff ``dot(s, d) == 0`` and ``s != d``."""
        if s == d:
            return False
        return int(self.field.dot(self.vectors[s], self.vectors[d])) == 0

    def minimal_path(self, s: int, d: int) -> list[int]:
        """The unique minimal path from ``s`` to ``d`` (length <= 2)."""
        if s == d:
            return [s]
        if self.are_adjacent(s, d):
            return [s, d]
        return [s, self.intermediate(s, d), d]

    # ------------------------------------------------------------------
    # Bound bookkeeping
    # ------------------------------------------------------------------
    @property
    def moore_bound_efficiency(self) -> float:
        """``N / (k**2 + 1)`` — fraction of the diameter-2 Moore bound."""
        k = polarfly_radix(self.q)
        return polarfly_order(self.q) / (k * k + 1)


@TOPOLOGIES.register("polarfly", example="polarfly:conc=2,q=5")
def _polarfly_from_spec(q: int, conc: int = 0) -> PolarFly:
    return PolarFly(q, concentration=conc)
