"""Additional standard traffic patterns (BookSim's classic suite).

Beyond the paper's patterns, interconnect studies routinely exercise
bit-complement, shift, and hotspot traffic; they are included so the
harness can run the full classic suite on any topology.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.registry import TRAFFICS
from repro.flitsim.traffic import PermutationTraffic, TrafficPattern
from repro.topologies.base import Topology

__all__ = ["BitComplementTraffic", "ShiftTraffic", "HotspotTraffic"]


class BitComplementTraffic(PermutationTraffic):
    """Terminal ``i`` sends to terminal ``n-1-i`` (index complement).

    The classic "bit complement" generalized to arbitrary terminal counts
    (for powers of two it coincides with complementing the index bits).
    Terminals mapping to themselves (the middle of an odd count) are
    shifted by one to keep the mapping a derangement-like permutation.
    """

    name = "bitcomp"

    def __init__(self, topo: Topology):
        terminals = np.flatnonzero(topo.concentration > 0)
        if terminals.size == 0:
            terminals = np.arange(topo.num_routers)
        n = terminals.size
        idx = n - 1 - np.arange(n)
        fixed = np.flatnonzero(idx == np.arange(n))
        if fixed.size:  # odd n: swap the fixed point with its neighbor
            i = int(fixed[0])
            j = (i + 1) % n
            idx[[i, j]] = idx[[j, i]]
        super().__init__(topo, terminals[idx])


class ShiftTraffic(PermutationTraffic):
    """Terminal ``i`` sends to terminal ``i + offset mod n``."""

    name = "shift"

    def __init__(self, topo: Topology, offset: int = 1):
        terminals = np.flatnonzero(topo.concentration > 0)
        if terminals.size == 0:
            terminals = np.arange(topo.num_routers)
        n = terminals.size
        if offset % n == 0:
            raise ValueError("shift offset must be nonzero modulo terminals")
        self.offset = int(offset)
        super().__init__(topo, terminals[(np.arange(n) + offset) % n])


class HotspotTraffic(TrafficPattern):
    """A fraction of packets target a fixed hot router; rest is uniform.

    Models incast-style congestion: ``fraction`` of traffic converges on
    ``hotspot`` (default: terminal 0).
    """

    name = "hotspot"

    def __init__(self, topo: Topology, fraction: float = 0.2, hotspot: "int | None" = None):
        super().__init__(topo)
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        self.fraction = float(fraction)
        self.hotspot = int(self.terminals[0] if hotspot is None else hotspot)
        if self.hotspot not in set(self.terminals.tolist()):
            raise ValueError("hotspot must be a terminal router")

    def dest_router(self, src_router: int, rng) -> int:
        if src_router != self.hotspot and rng.random() < self.fraction:
            return self.hotspot
        t = self.terminals
        d = int(rng.integers(t.size - 1))
        pos = self._pos[src_router]
        return int(t[d if d < pos else d + 1])

    def dest_routers(self, src_routers, rng) -> np.ndarray:
        # Batched form draws both vectors unconditionally (the uniform
        # draw is discarded for packets that hit the hotspot).
        srcs = np.asarray(src_routers, dtype=np.int64)
        t = self.terminals
        hot = rng.random(srcs.size) < self.fraction
        d = rng.integers(t.size - 1, size=srcs.size)
        pos = self._pos_arr[srcs]
        uniform = t[np.where(d < pos, d, d + 1)]
        return np.where(hot & (srcs != self.hotspot), self.hotspot, uniform)


# ----------------------------------------------------------------------
# Spec registrations
# ----------------------------------------------------------------------
@TRAFFICS.register("bitcomp")
def _bitcomp_from_spec(topo) -> BitComplementTraffic:
    return BitComplementTraffic(topo)


@TRAFFICS.register("shift", example="shift:offset=1")
def _shift_from_spec(topo, offset: int = 1) -> ShiftTraffic:
    return ShiftTraffic(topo, offset=offset)


@TRAFFICS.register("hotspot", example="hotspot:fraction=0.2")
def _hotspot_from_spec(topo, fraction: float = 0.2, hotspot: int | None = None) -> HotspotTraffic:
    return HotspotTraffic(topo, fraction=fraction, hotspot=hotspot)
