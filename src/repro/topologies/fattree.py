"""k-ary n-tree (three-stage fat tree) — Leiserson's fat tree as deployed.

The indirect baseline: ``n`` switch levels, ``k`` up-ports and ``k``
down-ports per switch (radix ``2k``; the top level uses only its ``k``
down-ports), ``n * k**(n-1)`` switches and ``k**n`` endpoints attached
``k`` per level-0 (edge) switch.  The paper's FT row (n=3, k=18: 972
switches of radix 36) is exactly this construction.

Switch identity: ``(level l, address w)`` with ``w in [k]**(n-1)``.
``(l, w)`` and ``(l+1, w')`` are wired iff ``w`` and ``w'`` agree on every
digit except possibly digit ``l`` — the standard butterfly-style k-ary
n-tree wiring, which makes least-common-ancestor routing purely digit-wise.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.registry import TOPOLOGIES
from repro.topologies.base import Topology
from repro.utils.graph import Graph

__all__ = ["FatTree"]


class FatTree(Topology):
    """A k-ary n-tree.

    Parameters
    ----------
    k:
        Arity — up/down port count per switch (switch radix is ``2k``).
    n:
        Number of levels (3 for the paper's baseline).

    Notes
    -----
    Endpoints: ``k`` per level-0 switch, none elsewhere; endpoint ``e``
    attaches to edge switch ``e // k``.
    """

    def __init__(self, k: int, n: int = 3):
        if k < 2 or n < 2:
            raise ValueError("need k >= 2 and n >= 2")
        self.k, self.n_levels = int(k), int(n)
        self.switches_per_level = k ** (n - 1)
        graph = self._build_graph()
        conc = np.zeros(graph.n, dtype=np.int64)
        conc[: self.switches_per_level] = k  # endpoints on level-0 only
        super().__init__(f"FT(k={k},n={n})", graph, conc)

    # ------------------------------------------------------------------
    # Identity helpers
    # ------------------------------------------------------------------
    def switch_id(self, level: int, addr: tuple[int, ...]) -> int:
        """Dense switch id for ``(level, address)``."""
        idx = 0
        for d in addr:
            idx = idx * self.k + d
        return level * self.switches_per_level + idx

    def switch_tuple(self, s: int) -> tuple[int, tuple[int, ...]]:
        """Inverse of :meth:`switch_id`."""
        level, idx = divmod(s, self.switches_per_level)
        addr = []
        for _ in range(self.n_levels - 1):
            idx, d = divmod(idx, self.k)
            addr.append(d)
        return level, tuple(reversed(addr))

    def switch_level(self, s: int) -> int:
        """Level (0 = edge) of switch ``s``."""
        return s // self.switches_per_level

    def _build_graph(self) -> Graph:
        k, n = self.k, self.n_levels
        spl = self.switches_per_level
        edges: list[tuple[int, int]] = []
        # Going up from level l frees the digit of weight k**l (least
        # significant first), so the NCA of two edge switches sits at the
        # length of their differing suffix — see nca_level.
        for level in range(n - 1):
            w = k**level
            for idx in range(spl):
                # Zero out digit `level`, then enumerate its k values on
                # the upper switch.
                digit = (idx // w) % k
                base = idx - digit * w
                u = level * spl + idx
                for d in range(k):
                    v = (level + 1) * spl + base + d * w
                    edges.append((u, v))
        return Graph(n * spl, edges)

    # ------------------------------------------------------------------
    # NCA helper used by fat-tree routing
    # ------------------------------------------------------------------
    def nca_level(self, src_switch: int, dst_switch: int) -> int:
        """Lowest level at which up-paths from the two edge switches meet.

        Both arguments must be level-0 switches.  Going up one level frees
        digit 0, then digit 1, etc.; the nearest common ancestor is at the
        lowest level ``l`` such that the addresses agree on digits
        ``l .. n-2``.
        """
        # Going up level l frees the digit of weight k**l, least
        # significant first: strip digits until the addresses agree.
        a = src_switch % self.switches_per_level
        b = dst_switch % self.switches_per_level
        level = 0
        while a != b:
            a //= self.k
            b //= self.k
            level += 1
        return level


@TOPOLOGIES.register("fattree", example="fattree:k=4,n=3")
def _fattree_from_spec(k: int, n: int = 3) -> FatTree:
    return FatTree(k=k, n=n)
