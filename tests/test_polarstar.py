"""PolarStar construction invariants.

PS(q, sq) = ER_q star-product Paley(sq) (Lakhotia et al., SPAA 2024 —
see PAPERS.md): the vertex-count formula, the radix formula, the
diameter <= 3 guarantee (exact BFS, not sampled — the non-residue
matching is what keeps it from degrading to 4), connectivity, the
default supernode choice and registry round-trips.  PolarStar cells run
on all three cycle paths in ``tests/test_differential.py``.
"""

import numpy as np
import pytest

from repro.experiments.registry import TOPOLOGIES
from repro.topologies import (
    PolarStar,
    default_supernode_order,
    polarstar_order,
    polarstar_radix,
)

#: (q, sq) instances kept small enough for exact-diameter BFS.
INSTANCES = [(2, 5), (3, 5), (3, 9), (4, 9), (5, 13)]


class TestConstructionInvariants:
    @pytest.mark.parametrize("q,sq", INSTANCES)
    def test_vertex_count_formula(self, q, sq):
        ps = PolarStar(q, sq=sq)
        assert ps.num_routers == polarstar_order(q, sq) == (q * q + q + 1) * sq

    @pytest.mark.parametrize("q,sq", INSTANCES)
    def test_radix(self, q, sq):
        ps = PolarStar(q, sq=sq)
        deg = ps.graph.degree()
        assert deg.max() == polarstar_radix(q, sq) == (q + 1) + (sq - 1) // 2
        # Quadric supernodes sit one ER edge lower; nothing else varies.
        assert deg.min() == q + (sq - 1) // 2

    @pytest.mark.parametrize("q,sq", INSTANCES)
    def test_diameter_at_most_3_and_connected(self, q, sq):
        ps = PolarStar(q, sq=sq)
        assert ps.is_connected()
        assert ps.graph.diameter() <= 3

    def test_supernode_must_be_paley_feasible(self):
        with pytest.raises(ValueError):
            PolarStar(3, sq=7)  # 7 = 3 (mod 4): Paley graph undirected only for 1 (mod 4)
        with pytest.raises(ValueError):
            PolarStar(3, sq=6)  # not a prime power
        with pytest.raises(ValueError):
            PolarStar(6, sq=5)  # q must be a prime power

    def test_default_supernode_order(self):
        # Largest prime power = 1 (mod 4) with 5 <= sq <= 2q + 3.
        assert default_supernode_order(2) == 5
        assert default_supernode_order(3) == 9
        assert default_supernode_order(11) == 25
        ps = PolarStar(3)
        assert ps.sq == 9

    def test_vertex_id_round_trip(self):
        ps = PolarStar(3, sq=5)
        for v in range(0, ps.num_routers, 7):
            u, x = ps.vertex_tuple(v)
            assert ps.vertex_id(u, x) == v
            assert 0 <= u < ps.structure.num_routers
            assert 0 <= x < ps.sq

    def test_intra_edges_are_paley(self):
        ps = PolarStar(3, sq=5)
        f = ps.supernode_field
        qr = set(int(s) for s in f.squares())
        e = ps.graph.edges()
        u0, x0 = np.divmod(e[:, 0], ps.sq)
        u1, x1 = np.divmod(e[:, 1], ps.sq)
        intra = u0 == u1
        assert intra.sum() == ps.structure.num_routers * ps.sq * (ps.sq - 1) // 4
        for a, b in zip(x0[intra], x1[intra]):
            assert int(f.sub(a, b)) in qr
        # Inter edges follow the eta matching along ER_q edges.
        for ua, xa, ub, xb in zip(u0[~intra], x0[~intra], u1[~intra], x1[~intra]):
            assert ps.structure.graph.has_edge(int(ua), int(ub))
            lo, xlo, xhi = (ua, xa, xb) if ua < ub else (ub, xb, xa)
            assert int(f.mul(ps.eta, xlo)) == int(xhi)

    def test_registry_round_trip(self):
        spec = "polarstar:conc=2,q=3,sq=5"
        assert TOPOLOGIES.canonical(spec) == TOPOLOGIES.canonical(
            "polarstar:sq=5,q=3,conc=2"
        )
        ps = TOPOLOGIES.create(spec)
        assert ps.num_routers == 65
        assert (np.asarray(ps.concentration) == 2).all()
