"""Jellyfish: random regular graph topology (Singla et al., NSDI'12).

The random-expander baseline.  We build an ``r``-regular simple graph on
``N`` switches with our own configuration-model sampler plus local edge
swaps to clear residual conflicts — deterministic under a seed, no external
graph library.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.registry import TOPOLOGIES
from repro.topologies.base import Topology
from repro.utils.graph import Graph
from repro.utils.rng import make_rng

__all__ = ["Jellyfish", "random_regular_graph"]


def random_regular_graph(n: int, r: int, rng=None, max_tries: int = 200) -> Graph:
    """A uniform-ish random ``r``-regular simple graph on ``n`` vertices.

    Pairing (configuration) model: shuffle ``n*r`` stubs and pair them
    off; conflicting pairs (self-loops/multi-edges) are retried with edge
    swaps against randomly chosen good edges, restarting on the rare
    unfixable draw.  Requires ``n*r`` even and ``r < n``, and — the
    graph must be connected — ``r >= 1``, ``r >= 2`` once ``n > 2``.
    """
    if r >= n:
        raise ValueError(
            f"degree r must be smaller than the vertex count n; got r={r}, n={n}"
        )
    if r < 1 or (r == 1 and n > 2):
        raise ValueError(
            f"degree r={r} is too small: a connected r-regular graph on "
            f"n={n} vertices needs r >= {1 if n <= 2 else 2}"
        )
    if (n * r) % 2:
        raise ValueError(
            f"n*r must be even for an r-regular graph; got n={n}, r={r}"
        )
    rng = make_rng(rng)
    for _ in range(max_tries):
        stubs = np.repeat(np.arange(n), r)
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        edges: set[tuple[int, int]] = set()
        bad: list[tuple[int, int]] = []
        for u, v in pairs:
            u, v = int(u), int(v)
            key = (u, v) if u < v else (v, u)
            if u == v or key in edges:
                bad.append((u, v))
            else:
                edges.add(key)
        ok = _repair(edges, bad, rng)
        if ok:
            g = Graph(n, edges)
            if g.is_connected():
                return g
    raise RuntimeError(
        f"failed to sample a connected {r}-regular graph on {n} vertices"
    )


def _repair(edges: set, bad: list, rng) -> bool:
    """Resolve conflicting stub pairs via double edge swaps."""
    edge_list = list(edges)
    for u, v in bad:
        fixed = False
        for _ in range(500):
            x, y = edge_list[int(rng.integers(len(edge_list)))]
            # Swap (u,v),(x,y) -> (u,x),(v,y).
            cand1 = (u, x) if u < x else (x, u)
            cand2 = (v, y) if v < y else (y, v)
            if u == x or v == y or cand1 in edges or cand2 in edges:
                # Try the other orientation.
                cand1 = (u, y) if u < y else (y, u)
                cand2 = (v, x) if v < x else (x, v)
                if u == y or v == x or cand1 in edges or cand2 in edges:
                    continue
                x, y = y, x
            old = (x, y) if x < y else (y, x)
            edges.remove(old)
            edge_list.remove(old)
            edges.add(cand1)
            edges.add(cand2)
            edge_list.extend([cand1, cand2])
            fixed = True
            break
        if not fixed:
            return False
    return True


class Jellyfish(Topology):
    """Random ``r``-regular switch graph with ``p`` endpoints per switch.

    Parameters
    ----------
    n:
        Number of switches.
    r:
        Network radix (router-to-router degree).
    p:
        Endpoints per switch.
    seed:
        RNG seed — fixed default so the baseline is reproducible.
    """

    def __init__(self, n: int, r: int, p: int = 0, seed: "int | None" = 4242):
        graph = random_regular_graph(n, r, rng=make_rng(seed))
        super().__init__(f"JF(n={n},r={r})", graph, p)
        self.seed = seed


@TOPOLOGIES.register("jellyfish", example="jellyfish:n=25,p=2,r=4,seed=7")
def _jellyfish_from_spec(n: int, r: int, p: int = 0, seed: int = 4242) -> Jellyfish:
    return Jellyfish(n=n, r=r, p=p, seed=seed)
