"""Table-free algebraic routing for PolarFly (paper Section IV-D) and
PolarStar.

The paper notes table-based routing is the efficient implementation, but
the unique 2-hop midpoint can also be computed *in the router* from the
endpoint coordinates alone: the cross product ``s x d`` left-normalized,
"in the worst case needing only two multiplies and three adds in F_q ...
then at most another two multiplies" — no O(N^2) state.
:meth:`PolarFly.intermediate <repro.core.polarfly.PolarFly.intermediate>`
and :meth:`~repro.core.polarfly.PolarFly.minimal_path` are that per-hop
rule.

Any two ER_q vertices share exactly one neighbour, so PolarFly has no
ECMP tie: coordinates give every pair's one minimal next hop, which is
the candidate table's ``first`` hop, and no tie-break draw is ever made.

PolarStar (:mod:`repro.topologies.polarstar`) has ties, but its two
factors give them in closed form.  For ``(u, x) -> (v, y)``, with
``M_ab(x)`` the matching along the ER_q edge ``a ~ b`` (``eta * x`` for
``a < b``, else ``eta**-1 * x``) and ``w = u x v`` the ER_q common
neighbour:

* ``u == v``: the Paley distance; the ties are the common Paley
  neighbours of ``x`` and ``y``.
* ``u ~ v``: 1 if ``y == M_uv(x)``, else 2, via ``(u, M_vu(y))`` if
  Paley-adjacent to ``x`` or else via ``(v, M_uv(x))`` — ``y - eta*x``
  and ``eta**-1*y - x`` differ by the non-residue factor ``eta``, so
  exactly one is a residue — and via ``(w, M_uw(x))`` when ``w`` is not
  ``u`` or ``v`` and ``M_wv(M_uw(x)) == y``.
* otherwise ``w`` is the only supernode adjacent to both, so the
  distance is 2 iff ``M_wv(M_uw(x)) == y`` (one candidate, via ``w``),
  else 3, via ``(w, M_uw(x))`` (``w ~ v`` puts it within 2), via
  ``(u, M_wu(M_vw(y)))`` if Paley-adjacent to ``x``, and via each other
  neighbour ``(u', M_uu'(x))`` whose matchings through ``u' x v`` carry
  it to ``y``.

:func:`coordinates_apply` is the one rule for when tables may be served
that way — the compiled route selector (:mod:`repro.flitsim.kselect`)
then routes from the vertex vectors and the field's tables (and, on
PolarStar, the supernode layer) and never reads an N x N array, and
:attr:`RoutingTables.max_distance
<repro.routing.tables.RoutingTables.max_distance>` answers the diameter
— 2 and 3 — without building one.
"""

from __future__ import annotations

from repro.core.polarfly import PolarFly
from repro.topologies.polarstar import PolarStar

__all__ = ["coordinates_apply"]

#: topology type served from coordinates -> its diameter
_DIAMETER = {PolarFly: 2, PolarStar: 3}


def coordinates_apply(tables) -> bool:
    """Whether ``tables`` may be served from coordinates.

    Exactly an intact ER_q or PolarStar: the topology's type is
    :class:`PolarFly` or :class:`~repro.topologies.polarstar.PolarStar`
    itself (a subclass may rewire the graph), every router is alive,
    and the tables derive their own distances — not a fault epoch's
    repaired or row-patched matrix handed over by
    :meth:`~repro.routing.tables.RoutingTables.from_distances`.
    Everything else is served from the tables.
    """
    return (
        type(tables.topo) in _DIAMETER
        and tables.alive_routers is None
        and not tables.given_distances
    )

