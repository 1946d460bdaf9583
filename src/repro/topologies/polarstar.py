"""PolarStar: the star-product diameter-3 family (Lakhotia et al., SPAA 2024).

The same group's follow-up to PolarFly (see PAPERS.md): a *star product*
of the ER_q polarity graph with a small diameter-2 *supernode* graph
multiplies PolarFly's near-Moore-optimal vertex count by the supernode
order while adding only one hop of diameter — hundreds of thousands of
routers at practical radix.  This module implements the Paley-supernode
instance PS(q, sq):

* **Structure graph** ER_q — vertices ``u`` are PolarFly(q) routers
  (``q**2 + q + 1`` of them, built sparsely via polar lines).
* **Supernode** Paley(sq) — vertices ``x`` in GF(sq) for a prime power
  ``sq = 1 (mod 4)``, adjacent iff ``x - y`` is a nonzero square
  (quadratic residue).  Paley graphs are self-complementary with
  diameter 2; the congruence makes adjacency symmetric.
* **Star product** — vertex set ``{(u, x)}``, id ``u * sq + x``.
  Intra-supernode edges copy Paley(sq) inside every supernode.  For
  every ER_q edge ``u < u'`` the supernodes are joined by the perfect
  matching ``(u, x) ~ (u', eta * x)`` where ``eta`` is a fixed primitive
  element of GF(sq) (a non-residue, since ``sq`` is odd).

**Diameter <= 3.**  Same supernode: Paley diameter 2.  Adjacent
supernodes: one matching edge then <= 2 Paley hops would give 3; in fact
the matching edge plus the *destination* supernode's Paley hops already
reach everything in <= 3.  Non-adjacent supernodes ``u, u'`` have a
common ER_q neighbor ``w`` (ER_q has diameter 2), and the composite
matching map ``F`` through ``w`` multiplies by one of
``{eta**2, 1, eta**-2}`` — always a *square*.  A path of length <= 3 may
insert its single spare intra hop at ``u`` or ``u'`` (reaching
``F(x) + QR``, since squares map residues to residues) or at ``w``
(reaching ``F(x) + eta*QR = F(x) + NQR``); together with ``F(x)`` itself
that covers all of GF(sq).  The non-residue matching is load-bearing:
identity matchings leave the middle insertion inside ``F(x) + QR`` and
the diameter degrades to 4.  The construction-invariants test pins the
exact BFS diameter at <= 3.

The default supernode order is the largest prime power
``sq = 1 (mod 4)`` with ``5 <= sq <= 2q + 3`` — the balance point where
the Paley degree ``(sq - 1) / 2`` does not exceed the ER_q degree
``q + 1``, mirroring the paper's balanced joiner choice.

Everything is vectorized edge-array construction: O(N * radix) work and
memory, no dense N x N structure — this family is the scale exerciser
for the sparse routing/simulation tier.  Routing needs none either: the
same case split gives every distance and every tied minimal next hop in
closed form (:mod:`repro.routing.algebraic`), so the compiled route
selector serves an intact PS(q, sq) from the structure graph's vertex
vectors, the Paley adjacency and the two matchings, and its routing
tables are never built.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.registry import TOPOLOGIES
from repro.fields import GF, is_prime_power
from repro.topologies.base import Topology
from repro.utils.graph import Graph

__all__ = [
    "PolarStar",
    "polarstar_order",
    "polarstar_radix",
    "default_supernode_order",
]


def default_supernode_order(q: int) -> int:
    """Largest prime power ``sq = 1 (mod 4)`` with ``5 <= sq <= 2q + 3``.

    Keeps the Paley degree ``(sq - 1) / 2`` at most the ER_q degree
    ``q + 1``.  Raises when no candidate exists (only for ``q < 2``;
    every supported ``q >= 2`` admits at least ``sq = 5``).
    """
    for sq in range(2 * q + 3, 4, -1):
        if sq % 4 == 1 and is_prime_power(sq) is not None:
            return sq
    raise ValueError(f"no feasible Paley supernode order for q={q}")


def polarstar_order(q: int, sq: int) -> int:
    """Number of routers of PS(q, sq): ``(q**2 + q + 1) * sq``."""
    return (q * q + q + 1) * sq


def polarstar_radix(q: int, sq: int) -> int:
    """Network radix of PS(q, sq): ``(q + 1) + (sq - 1) / 2``."""
    return (q + 1) + (sq - 1) // 2


class PolarStar(Topology):
    """The PS(q, sq) = ER_q star-product-Paley(sq) topology.

    Parameters
    ----------
    q:
        Prime power >= 2 — the PolarFly structure-graph parameter.
    sq:
        Supernode (Paley graph) order: a prime power ``= 1 (mod 4)``,
        at least 5.  0 (the default) picks
        :func:`default_supernode_order`.
    concentration:
        Endpoints per router; default 0 builds the bare router graph.

    Attributes
    ----------
    structure:
        The underlying :class:`~repro.core.polarfly.PolarFly` instance.
    supernode_field:
        GF(sq); ``supernode_field.squares()`` is the Paley generator set.
    eta:
        The matching multiplier (primitive element of GF(sq)).
    """

    def __init__(self, q: int, sq: int = 0, concentration: int = 0):
        if is_prime_power(q) is None:
            raise ValueError(f"PolarStar requires a prime power q, got {q}")
        sq = int(sq) or default_supernode_order(int(q))
        if is_prime_power(sq) is None or sq % 4 != 1 or sq < 5:
            raise ValueError(
                "supernode order sq must be a prime power = 1 (mod 4), >= 5; "
                f"got sq={sq}"
            )
        self.q = int(q)
        self.sq = int(sq)
        # Deferred import: core.polarfly itself imports topologies.base,
        # whose package __init__ imports this module — a cycle at import
        # time but not at construction time.
        from repro.core.polarfly import PolarFly

        self.structure = PolarFly(q)
        self.supernode_field = GF(sq)
        self.eta = int(self.supernode_field.primitive_element)
        graph = self._build_graph()
        super().__init__(f"PS(q={q},s={sq})", graph, concentration)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def vertex_id(self, u: int, x: int) -> int:
        """Dense id of vertex ``(u, x)``: ``u * sq + x``."""
        return u * self.sq + x

    def vertex_tuple(self, v: int) -> tuple[int, int]:
        """Inverse of :meth:`vertex_id`."""
        u, x = divmod(int(v), self.sq)
        return u, x

    def _build_graph(self) -> Graph:
        f, sq = self.supernode_field, self.sq
        n_er = self.structure.num_routers
        xs = f.elements()
        # Intra edges: the Paley graph copied into every supernode.
        # sq = 1 (mod 4) makes -1 a residue, so each edge appears twice
        # (once per endpoint); Graph dedups.
        qr = f.squares()
        pal_src = np.repeat(xs, qr.size)
        pal_dst = f.add(pal_src, np.tile(qr, sq))
        offs = np.arange(n_er, dtype=np.int64) * sq
        intra_src = (offs[:, None] + pal_src[None, :]).ravel()
        intra_dst = (offs[:, None] + pal_dst[None, :]).ravel()
        # Inter edges: per ER_q edge u < u', the matching x -> eta * x.
        er = self.structure.graph.edges()
        eta_x = f.mul(self.eta, xs)
        inter_src = (er[:, 0][:, None] * sq + xs[None, :]).ravel()
        inter_dst = (er[:, 1][:, None] * sq + eta_x[None, :]).ravel()
        edges = np.column_stack(
            [
                np.concatenate([intra_src, inter_src]),
                np.concatenate([intra_dst, inter_dst]),
            ]
        )
        return Graph(n_er * sq, edges)


@TOPOLOGIES.register("polarstar", example="polarstar:conc=2,q=3,sq=5")
def _polarstar_from_spec(q: int, sq: int = 0, conc: int = 0) -> PolarStar:
    return PolarStar(q, sq=sq, concentration=conc)
