"""Bisection bandwidth via balanced graph partitioning (Figure 12).

The paper uses METIS; we substitute the two classic heuristics METIS is
built from: a spectral (Fiedler-vector) initial split refined by
Kernighan-Lin passes.  The metric reported is the paper's: edges crossing
the best balanced bisection found, normalized by total edges.
"""

from __future__ import annotations

import numpy as np

from repro.topologies.base import Topology
from repro.utils.graph import Graph

__all__ = [
    "spectral_bisection",
    "kernighan_lin_refine",
    "bisection_cut",
    "bisection_fraction",
]


def spectral_bisection(graph: Graph, weights=None) -> np.ndarray:
    """Weight-balanced split from the Fiedler vector of the Laplacian.

    ``weights`` (default: all ones) is what the split balances — for
    indirect topologies the natural choice is endpoints per switch, so the
    bisection separates half the *compute* from the other half rather
    than half the switches.  Vertices are sorted by Fiedler value and the
    prefix holding half the total weight forms side 0.
    """
    adj = graph.adjacency_matrix(dtype=np.float64)
    deg = adj.sum(axis=1)
    lap = np.diag(deg) - adj
    # Dense symmetric eigensolve: topologies here are <= a few thousand
    # vertices, well within dense range.
    vals, vecs = np.linalg.eigh(lap)
    fiedler = vecs[:, np.argsort(vals)[1]]
    order = np.argsort(fiedler, kind="stable")
    if weights is None:
        weights = np.ones(graph.n)
    weights = np.asarray(weights, dtype=np.float64)
    half = weights.sum() / 2
    side = np.zeros(graph.n, dtype=bool)
    acc = 0.0
    for pos, v in enumerate(order):
        if acc >= half:
            side[order[pos:]] = True
            break
        acc += weights[v]
    return side


def _cut_size(graph: Graph, side: np.ndarray) -> int:
    e = graph.edges()
    return int(np.count_nonzero(side[e[:, 0]] != side[e[:, 1]]))


def kernighan_lin_refine(
    graph: Graph, side: np.ndarray, max_passes: int = 8, weights=None
) -> np.ndarray:
    """Kernighan-Lin refinement of a balanced bisection.

    Classic pairwise-swap passes: repeatedly compute vertex gains
    (external minus internal degree), greedily swap the best
    cross-partition pairs with locking, and keep the best prefix of the
    swap sequence.  Stops when a pass yields no improvement.  When
    ``weights`` is given, only equal-weight pairs may swap, so the weight
    balance of the input split is preserved exactly.
    """
    side = side.copy()
    n = graph.n
    adj = graph.adjacency_matrix(dtype=np.int64)
    if weights is not None:
        weights = np.asarray(weights)
    for _ in range(max_passes):
        # D[v] = external - internal degree under the current partition.
        same = side[None, :] == side[:, None]
        internal = (adj * same).sum(axis=1)
        external = (adj * ~same).sum(axis=1)
        D = external - internal
        locked = np.zeros(n, dtype=bool)
        swaps: list[tuple[int, int, int]] = []
        total_gain = 0
        work_side = side.copy()
        for _step in range(n // 2):
            a_cand = np.flatnonzero(~locked & ~work_side)
            b_cand = np.flatnonzero(~locked & work_side)
            if a_cand.size == 0 or b_cand.size == 0:
                break
            # Best pair by gain D[a] + D[b] - 2*adj[a,b]; evaluate against
            # the top few candidates on each side to stay near O(n log n).
            # With weights, only equal-weight swaps keep the balance.
            best = None
            classes = (
                [None]
                if weights is None
                else np.unique(weights[np.concatenate([a_cand, b_cand])])
            )
            for wclass in classes:
                ac = a_cand if wclass is None else a_cand[weights[a_cand] == wclass]
                bc = b_cand if wclass is None else b_cand[weights[b_cand] == wclass]
                if ac.size == 0 or bc.size == 0:
                    continue
                top_a = ac[np.argsort(D[ac])[-8:]]
                top_b = bc[np.argsort(D[bc])[-8:]]
                gains = (
                    D[top_a][:, None]
                    + D[top_b][None, :]
                    - 2 * adj[np.ix_(top_a, top_b)]
                )
                ai, bi = np.unravel_index(np.argmax(gains), gains.shape)
                cand = (int(gains[ai, bi]), int(top_a[ai]), int(top_b[bi]))
                if best is None or cand[0] > best[0]:
                    best = cand
            if best is None:
                break
            gain, a, b = best
            locked[a] = locked[b] = True
            total_gain += gain
            swaps.append((a, b, total_gain))
            # Update D for unlocked vertices (standard KL update).
            nb_a, nb_b = adj[a] > 0, adj[b] > 0
            unlocked = ~locked
            same_a = work_side == work_side[a]
            D += np.where(
                nb_a & unlocked, np.where(same_a, 2, -2) * adj[:, a], 0
            )
            same_b = work_side == work_side[b]
            D += np.where(
                nb_b & unlocked, np.where(same_b, 2, -2) * adj[:, b], 0
            )
            work_side[a], work_side[b] = work_side[b], work_side[a]
        if not swaps:
            break
        best_prefix = int(np.argmax([g for (_, _, g) in swaps]))
        if swaps[best_prefix][2] <= 0:
            break
        for a, b, _ in swaps[: best_prefix + 1]:
            side[a], side[b] = side[b], side[a]
    return side


def _graph_and_weights(topo_or_graph):
    if isinstance(topo_or_graph, Topology):
        graph = topo_or_graph.graph
        conc = topo_or_graph.concentration
        # Indirect topologies: balance compute endpoints, not switches.
        weights = conc if conc.sum() and (conc == 0).any() else None
        return graph, weights
    return topo_or_graph, None


def bisection_cut(
    topo_or_graph, refine: bool = True, seed=0
) -> tuple[np.ndarray, int]:
    """Best balanced bisection found; returns ``(side, cut_edges)``.

    For topologies whose endpoints sit on a subset of routers (fat trees),
    the balance constraint is endpoint weight; otherwise vertex count.
    """
    graph, weights = _graph_and_weights(topo_or_graph)
    side = spectral_bisection(graph, weights=weights)
    if refine:
        side = kernighan_lin_refine(graph, side, weights=weights)
    return side, _cut_size(graph, side)


def bisection_fraction(topo_or_graph, refine: bool = True) -> float:
    """Fraction of all links crossing the bisection (Figure 12's y-axis)."""
    graph, _ = _graph_and_weights(topo_or_graph)
    _, cut = bisection_cut(topo_or_graph, refine=refine)
    return cut / graph.num_edges
