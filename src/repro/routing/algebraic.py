"""Table-free algebraic routing for PolarFly (paper Section IV-D).

The paper notes table-based routing is the efficient implementation, but
the unique 2-hop midpoint can also be computed *in the router* from the
endpoint coordinates alone: the cross product ``s x d`` left-normalized,
"in the worst case needing only two multiplies and three adds in F_q ...
then at most another two multiplies" — no O(N^2) state.

Any two ER_q vertices share exactly one neighbour, so PolarFly has no
ECMP tie: coordinates give every pair's one minimal next hop, which is
the candidate table's ``first`` hop, and no tie-break draw is ever made.
:func:`coordinates_apply` is the one rule for when tables may be served
that way — the compiled route selector (:mod:`repro.flitsim.kselect`)
then routes from the vertex vectors and the field's tables and never
reads an N x N array, and :attr:`RoutingTables.max_distance
<repro.routing.tables.RoutingTables.max_distance>` answers the diameter
without building one.

:class:`AlgebraicMinimalRouting` is a drop-in
:class:`~repro.routing.policies.RoutingPolicy` that derives routes purely
from GF(q) arithmetic on the vertex vectors.  Tests assert it produces
exactly the same routes as the BFS table implementation; the cost bench
uses it to demonstrate O(1)-state routing.
"""

from __future__ import annotations

from repro.core.polarfly import PolarFly
from repro.routing.policies import RoutingPolicy, ZERO_CONGESTION

__all__ = ["AlgebraicMinimalRouting", "coordinates_apply"]


def coordinates_apply(tables) -> bool:
    """Whether ``tables`` may be served from PolarFly coordinates.

    Exactly an intact ER_q: the topology's type is :class:`PolarFly`
    itself (a subclass may rewire the graph), every router is alive,
    and the tables derive their own distances — not a fault epoch's
    repaired or row-patched matrix handed over by
    :meth:`~repro.routing.tables.RoutingTables.from_distances`.
    Everything else is served from the tables.
    """
    return (
        type(tables.topo) is PolarFly
        and tables.alive_routers is None
        and not tables.given_distances
    )


class AlgebraicMinimalRouting(RoutingPolicy):
    """Minimal PolarFly routing computed from coordinates, not tables.

    Parameters
    ----------
    pf:
        The PolarFly topology (works on any prime power q).

    Notes
    -----
    ``tables`` is intentionally absent: the point of this policy is that
    a router needs only its own and the destination's 3-vectors.  The
    ``max_hops`` bound is the ER graph diameter, 2.
    """

    max_hops = 2

    def __init__(self, pf: PolarFly):
        # RoutingPolicy's constructor expects tables; this policy carries
        # the topology directly instead.
        self.pf = pf
        self.topo = pf
        self.tables = None

    def retable(self, tables) -> None:
        raise NotImplementedError(
            "dynamic fault repair is not supported for table-free "
            "algebraic routing (routes derive from intact coordinates)"
        )

    def select_route(self, src: int, dst: int, rng, congestion=ZERO_CONGESTION):
        """The unique minimal route, via one dot and one cross product."""
        return self.pf.minimal_path(src, dst)

    def next_hop(self, current: int, dst: int) -> int:
        """Hardware-style per-hop decision from coordinates only.

        At the source of a 2-hop pair this returns the cross-product
        midpoint; at the midpoint (or any neighbor of ``dst``) it returns
        ``dst``.
        """
        if current == dst:
            raise ValueError("already at destination")
        if self.pf.are_adjacent(current, dst):
            return dst
        return self.pf.intermediate(current, dst)
