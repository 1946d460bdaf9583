"""Unit tests for bisection bandwidth analysis (Figure 12)."""

import numpy as np

from repro.analysis import bisection_cut, bisection_fraction, kernighan_lin_refine, spectral_bisection
from repro.core import PolarFly
from repro.topologies import Dragonfly, FatTree, SlimFly
from repro.utils.graph import Graph


def two_cliques(n=8, bridges=1):
    """Two n-cliques joined by `bridges` edges — known optimal cut."""
    edges = []
    for base in (0, n):
        edges += [(base + i, base + j) for i in range(n) for j in range(i + 1, n)]
    edges += [(i, n + i) for i in range(bridges)]
    return Graph(2 * n, edges)


class TestSpectral:
    def test_balanced_split(self):
        g = two_cliques()
        side = spectral_bisection(g)
        assert side.sum() == g.n // 2

    def test_finds_obvious_cut(self):
        g = two_cliques(bridges=2)
        side, cut = bisection_cut(g, refine=False)
        assert cut == 2

    def test_odd_vertex_count(self):
        g = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
        side = spectral_bisection(g)
        assert side.sum() in (2, 3)


class TestKernighanLin:
    def test_refine_never_worse(self):
        g = two_cliques(bridges=3)
        side0 = spectral_bisection(g)
        e = g.edges()
        cut0 = int(np.count_nonzero(side0[e[:, 0]] != side0[e[:, 1]]))
        side1 = kernighan_lin_refine(g, side0)
        cut1 = int(np.count_nonzero(side1[e[:, 0]] != side1[e[:, 1]]))
        assert cut1 <= cut0

    def test_preserves_balance(self):
        g = two_cliques()
        side = kernighan_lin_refine(g, spectral_bisection(g))
        assert side.sum() == g.n // 2

    def test_fixes_bad_start(self):
        # Start from a terrible interleaved split; KL must recover the
        # obvious clique cut.
        g = two_cliques(bridges=1)
        bad = np.zeros(g.n, dtype=bool)
        bad[::2] = True
        side = kernighan_lin_refine(g, bad)
        e = g.edges()
        cut = int(np.count_nonzero(side[e[:, 0]] != side[e[:, 1]]))
        assert cut <= 5


class TestFigure12Ordering:
    """The qualitative claim: PF bisection fraction > SF > DF; FT ~ 0.5."""

    def test_polarfly_high_bisection(self):
        frac = bisection_fraction(PolarFly(7))
        assert frac > 0.35  # paper: >40% for radix >= 18; small q slightly less

    def test_polarfly_beats_slimfly_and_dragonfly(self):
        # Figure 12's ordering emerges at moderate radix (the paper notes
        # PF pulls ahead for radix >= 18; tiny instances can invert).
        pf = bisection_fraction(PolarFly(13))      # 183 routers, k=14
        sf = bisection_fraction(SlimFly(9))        # 162 routers, k=13
        df = bisection_fraction(Dragonfly(a=12, h=1))  # 156 routers, k=12
        assert pf > sf > df

    def test_dragonfly_low(self):
        assert bisection_fraction(Dragonfly(a=5, h=2)) < 0.25

    def test_fraction_in_unit_interval(self):
        for topo in (PolarFly(5), SlimFly(5), FatTree(k=3, n=3)):
            frac = bisection_fraction(topo)
            assert 0.0 < frac <= 0.55
