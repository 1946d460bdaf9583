"""Traffic patterns (paper Section VIII-A).

All patterns operate at *router* granularity, mirroring the paper's
co-packaged setting: under permutation patterns every endpoint of a router
sends to endpoints of a single partner router ("permutations are computed
between routers, and not endpoints").

* :class:`UniformTraffic` — destination router uniform at random.
* :class:`TornadoTraffic` — router ``i`` sends to ``i + N/2 mod N``.
* :class:`RandomPermutationTraffic` — a fixed random router derangement.
* :func:`one_hop_permutation` / :func:`two_hop_permutation` — the paper's
  Perm1Hop / Perm2Hop adversarial patterns: permutations whose image is
  always at exactly 1 (resp. 2) hops, built with Kuhn's bipartite-matching
  algorithm so they exist whenever the topology admits them.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.registry import TRAFFICS
from repro.topologies.base import Topology
from repro.utils.rng import make_rng

__all__ = [
    "TrafficPattern",
    "UniformTraffic",
    "PermutationTraffic",
    "TornadoTraffic",
    "RandomPermutationTraffic",
    "one_hop_permutation",
    "two_hop_permutation",
    "OneHopPermutationTraffic",
    "TwoHopPermutationTraffic",
]


class TrafficPattern:
    """Maps a source router to a destination router per packet.

    Only *terminal* routers — those hosting at least one endpoint — send
    or receive traffic; on direct networks that is every router, while on
    a fat tree it is the edge switches.

    A pattern provides ``dest_routers(src_routers, rng)``, the simulator's
    injection entry point (both engines): one call per cycle with all
    Bernoulli winners, in endpoint order, returning their destination
    routers.  A pattern's RNG consumption is defined by that method; the
    scalar ``dest_router(src_router, rng)`` each pattern also provides
    need not consume the stream identically.
    """

    name = "abstract"

    def __init__(self, topo: Topology):
        self.topo = topo
        terminals = np.flatnonzero(topo.concentration > 0)
        if terminals.size == 0:
            terminals = np.arange(topo.num_routers)
        self.terminals = terminals
        self._pos = {int(t): i for i, t in enumerate(terminals)}
        # Array form of _pos for the batched/vectorized path.
        self._pos_arr = np.full(topo.num_routers, -1, dtype=np.int64)
        self._pos_arr[terminals] = np.arange(terminals.size)


class UniformTraffic(TrafficPattern):
    """Uniform random destinations (excluding the source router)."""

    name = "uniform"

    def dest_router(self, src_router: int, rng) -> int:
        t = self.terminals
        d = int(rng.integers(t.size - 1))
        pos = self._pos[src_router]
        return int(t[d if d < pos else d + 1])

    def dest_routers(self, src_routers, rng) -> np.ndarray:
        t = self.terminals
        d = rng.integers(t.size - 1, size=len(src_routers))
        pos = self._pos_arr[np.asarray(src_routers, dtype=np.int64)]
        return t[np.where(d < pos, d, d + 1)]


class PermutationTraffic(TrafficPattern):
    """Fixed terminal-router to terminal-router permutation traffic."""

    name = "permutation"

    def __init__(self, topo: Topology, mapping: np.ndarray):
        super().__init__(topo)
        mapping = np.asarray(mapping, dtype=np.int64)
        t = self.terminals
        if mapping.shape != t.shape:
            raise ValueError("mapping must assign one destination per terminal")
        if np.any(np.sort(mapping) != np.sort(t)):
            raise ValueError("mapping must permute the terminal routers")
        self.mapping = mapping

    def dest_router(self, src_router: int, rng) -> int:
        return int(self.mapping[self._pos[src_router]])

    def dest_routers(self, src_routers, rng) -> np.ndarray:
        # Fixed mapping: no RNG draws in either scalar or batched form.
        return self.mapping[self._pos_arr[np.asarray(src_routers, dtype=np.int64)]]


class TornadoTraffic(PermutationTraffic):
    """Tornado: terminal ``i`` sends halfway across, to ``i + N/2 mod N``."""

    name = "tornado"

    def __init__(self, topo: Topology):
        terminals = np.flatnonzero(topo.concentration > 0)
        if terminals.size == 0:
            terminals = np.arange(topo.num_routers)
        n = terminals.size
        mapping = terminals[(np.arange(n) + n // 2) % n]
        super().__init__(topo, mapping)


class RandomPermutationTraffic(PermutationTraffic):
    """A uniformly random derangement of the terminal routers (seeded)."""

    name = "randperm"

    def __init__(self, topo: Topology, seed=0):
        rng = make_rng(seed)
        terminals = np.flatnonzero(topo.concentration > 0)
        if terminals.size == 0:
            terminals = np.arange(topo.num_routers)
        n = terminals.size
        while True:
            perm = rng.permutation(n)
            if not np.any(perm == np.arange(n)):
                break
        super().__init__(topo, terminals[perm])


# ----------------------------------------------------------------------
# Distance-constrained permutations (Perm1Hop / Perm2Hop)
# ----------------------------------------------------------------------
def _distance_permutation(topo: Topology, hops: int, seed=0) -> np.ndarray:
    """A permutation of the terminal routers with ``dist(i, pi(i)) == hops``.

    Kuhn's augmenting-path bipartite matching between terminals and their
    exact-``hops`` neighborhoods; candidate order is shuffled by ``seed``
    so different seeds give different adversarial instances.  Returns the
    image array aligned with the topology's terminal list.
    """
    rng = make_rng(seed)
    terminals = np.flatnonzero(topo.concentration > 0)
    if terminals.size == 0:
        terminals = np.arange(topo.num_routers)
    n = terminals.size
    # One batched BFS from every terminal; column i of ``at_hops`` is the
    # i-th terminal, so a row's nonzeros are candidate terminal positions.
    dist = topo.graph.all_pairs_distances(terminals, dtype=np.int16)
    at_hops = dist[:, terminals] == hops
    candidates: list[list[int]] = []
    for v, row in zip(terminals, at_hops):
        cand = np.flatnonzero(row)
        if not cand.size:
            raise ValueError(
                f"router {int(v)} has no terminal at exactly {hops} hops"
            )
        candidates.append(rng.permutation(cand).tolist())

    match_of_dst = np.full(n, -1, dtype=np.int64)

    def try_assign(src: int, visited: set) -> bool:
        for dst in candidates[src]:
            if dst in visited:
                continue
            visited.add(dst)
            if match_of_dst[dst] < 0 or try_assign(int(match_of_dst[dst]), visited):
                match_of_dst[dst] = src
                return True
        return False

    for src in rng.permutation(n):
        if not try_assign(int(src), set()):
            raise RuntimeError(
                f"no {hops}-hop permutation exists for {topo.name}"
            )
    mapping = np.empty(n, dtype=np.int64)
    for d in range(n):
        mapping[int(match_of_dst[d])] = terminals[d]
    return mapping


def one_hop_permutation(topo: Topology, seed=0) -> np.ndarray:
    """Permutation sending every router to one of its direct neighbors."""
    return _distance_permutation(topo, 1, seed)


def two_hop_permutation(topo: Topology, seed=0) -> np.ndarray:
    """Permutation sending every router exactly 2 hops away."""
    return _distance_permutation(topo, 2, seed)


class OneHopPermutationTraffic(PermutationTraffic):
    """Perm1Hop: min-paths are 1 hop; UGAL_PF detours are 4 hops."""

    name = "perm1hop"

    def __init__(self, topo: Topology, seed=0):
        super().__init__(topo, one_hop_permutation(topo, seed))


class TwoHopPermutationTraffic(PermutationTraffic):
    """Perm2Hop: min-paths are 2 hops; UGAL_PF detours are 3 hops."""

    name = "perm2hop"

    def __init__(self, topo: Topology, seed=0):
        super().__init__(topo, two_hop_permutation(topo, seed))


# ----------------------------------------------------------------------
# Spec registrations — factories take (topo, **spec kwargs)
# ----------------------------------------------------------------------
@TRAFFICS.register("uniform")
def _uniform_from_spec(topo) -> UniformTraffic:
    return UniformTraffic(topo)


@TRAFFICS.register("tornado")
def _tornado_from_spec(topo) -> TornadoTraffic:
    return TornadoTraffic(topo)


@TRAFFICS.register("randperm", example="randperm:seed=3")
def _randperm_from_spec(topo, seed: int = 0) -> RandomPermutationTraffic:
    return RandomPermutationTraffic(topo, seed=seed)


@TRAFFICS.register("perm1hop", example="perm1hop:seed=1")
def _perm1hop_from_spec(topo, seed: int = 0) -> OneHopPermutationTraffic:
    return OneHopPermutationTraffic(topo, seed=seed)


@TRAFFICS.register("perm2hop", example="perm2hop:seed=1")
def _perm2hop_from_spec(topo, seed: int = 0) -> TwoHopPermutationTraffic:
    return TwoHopPermutationTraffic(topo, seed=seed)
