"""Failure-aware routing: rebuild tables on a degraded network.

Section IX-B studies metrics under link failures; this module closes the
loop operationally — given a set of failed links (or routers), produce a
same-vertex-id degraded topology and fresh routing tables so simulations
can run on the broken network.  Combined with Table VI's path diversity,
this demonstrates the paper's claim that PolarFly keeps routing at <= 4
hops deep into failure regimes.

Two construction modes:

* **Fresh** (``base=None``): full batched all-pairs BFS on the degraded
  graph — the simple oracle.
* **Incremental** (``base=`` existing tables of the intact topology):
  only the BFS rows a removed edge could have perturbed are recomputed.
  An edge ``(u, v)`` lies on some shortest path from source ``s`` iff
  ``|d(s,u) - d(s,v)| == 1`` (adjacent vertices differ by at most 1), so
  rows where every removed edge has equal endpoint distances are copied
  verbatim.  This is the repair path the dynamic fault subsystem
  (:mod:`repro.faults`) runs at every in-simulation failure epoch; a
  golden test pins it row-identical to the fresh build.

Both modes raise :class:`ValueError` when the failures disconnect the
surviving routers — callers should treat that as the terminal condition
it is.
"""

from __future__ import annotations

import numpy as np

from repro.routing.tables import RoutingTables, RowPatchedDist
from repro.topologies.base import Topology

__all__ = ["degraded_topology", "reroute_after_failures", "fault_epoch_tables"]


def _as_edge_array(failed_links) -> np.ndarray:
    arr = (
        failed_links.astype(np.int64, copy=True)
        if isinstance(failed_links, np.ndarray)
        else np.asarray([tuple(e) for e in failed_links], dtype=np.int64)
    )
    arr = arr.reshape(-1, 2)
    arr.sort(axis=1)
    return arr


def degraded_topology(topo: Topology, failed_links) -> Topology:
    """Copy of ``topo`` with ``failed_links`` removed (vertex ids kept).

    Raises if the failures disconnect the network — callers should treat
    that as the terminal condition it is.
    """
    graph = topo.graph.remove_edges(failed_links)
    degraded = Topology(f"{topo.name}-deg{len(list(failed_links))}",
                        graph, topo.concentration)
    if not degraded.is_connected():
        raise ValueError("failures disconnect the network")
    return degraded


def _incremental_tables(
    degraded: Topology,
    base: RoutingTables,
    failed: np.ndarray,
    alive: "np.ndarray | None" = None,
) -> RoutingTables:
    """Repair ``base`` for ``degraded``: recompute only perturbed rows.

    The repaired matrix is a :class:`RowPatchedDist` view — the intact
    base matrix shared read-only plus a dense block holding just the
    recomputed rows — so a fault epoch costs O(affected x n) memory, not
    O(n^2).  When ``base`` itself carries a patched view (chained
    repairs), it is materialized first; patches never stack.
    """
    dist = base.dist
    if isinstance(dist, RowPatchedDist):
        dist = dist.dense()
    if failed.size:
        touched = dist[:, failed[:, 0]] != dist[:, failed[:, 1]]
        affected = np.flatnonzero(touched.any(axis=1))
    else:
        affected = np.empty(0, dtype=np.int64)
    if affected.size:
        patch = degraded.graph.all_pairs_distances(affected, dtype=np.int16)
        # Unaffected rows are provably identical on the degraded graph,
        # so any new disconnection must surface in the patch block.
        if alive is None and bool((patch < 0).any()):
            raise ValueError("failures disconnect the network")
        if affected.size < dist.shape[0]:
            new_dist = RowPatchedDist(dist, affected, patch)
        else:
            new_dist = dist.copy()
            new_dist[affected] = patch
    else:
        # No row touched a failed edge: the base matrix is exact and can
        # be shared as-is (RoutingTables never mutates its dist).
        new_dist = dist
    return RoutingTables.from_distances(degraded, new_dist, alive=alive)


def reroute_after_failures(
    topo: Topology, failed_links, base: "RoutingTables | None" = None
) -> RoutingTables:
    """Routing tables recomputed around the failed links.

    With ``base`` (tables of the *intact* ``topo``) the rebuild is
    incremental: rows whose shortest-path DAG cannot have used a failed
    link are copied, the rest re-run one batched BFS.  Identical tables
    either way, pinned by the golden degraded-routing tests.
    """
    failed = _as_edge_array(failed_links)
    if base is None:
        return RoutingTables(degraded_topology(topo, failed))
    graph = topo.graph.remove_edges(failed)
    degraded = Topology(
        f"{topo.name}-deg{failed.shape[0]}", graph, topo.concentration
    )
    return _incremental_tables(degraded, base, failed)


def fault_epoch_tables(
    topo: Topology,
    failed_links=(),
    failed_routers=(),
    base: "RoutingTables | None" = None,
) -> RoutingTables:
    """Tables for one dynamic-fault epoch: links and/or whole routers out.

    Dead routers stay in the vertex set (the simulator's port geometry
    is immutable) with all incident links removed and -1 distances; the
    returned tables carry the ``alive_routers`` mask so adaptive
    policies can exclude them from intermediate draws.  Raises when the
    surviving routers disconnect.
    """
    failed_routers = sorted(int(r) for r in failed_routers)
    failed = _as_edge_array(failed_links)
    if failed_routers:
        dead = np.asarray(failed_routers, dtype=np.int64)
        edges = topo.graph.edges()
        incident = edges[np.isin(edges[:, 0], dead) | np.isin(edges[:, 1], dead)]
        failed = np.unique(
            np.concatenate([failed, incident.astype(np.int64)]), axis=0
        ) if failed.size else incident.astype(np.int64)
        alive = np.ones(topo.num_routers, dtype=bool)
        alive[dead] = False
    else:
        alive = None
    if not failed_routers and base is None:
        return reroute_after_failures(topo, failed)
    graph = topo.graph.remove_edges(failed)
    degraded = Topology(
        f"{topo.name}-deg{failed.shape[0]}", graph, topo.concentration
    )
    if base is None:
        return RoutingTables(degraded, alive=alive)
    return _incremental_tables(degraded, base, failed, alive=alive)
