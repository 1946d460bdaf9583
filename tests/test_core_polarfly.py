"""Unit tests for the PolarFly (ER_q) construction — paper Section IV."""

from math import comb

import numpy as np
import pytest
from oracles import dense_polar_adjacency

from repro.core import PolarFly, feasible_q_for_radix, polarfly_order, polarfly_radix


class TestOrderAndDegree:
    @pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9, 11, 13))
    def test_vertex_count(self, q):
        pf = PolarFly(q)
        assert pf.num_routers == q * q + q + 1 == polarfly_order(q)

    @pytest.mark.parametrize("q", (3, 5, 7, 9))
    def test_degrees(self, q):
        pf = PolarFly(q)
        deg = pf.graph.degree()
        # Quadrics lose their self-loop: degree q; the rest have q+1.
        assert np.all(deg[pf.quadrics] == q)
        assert np.all(deg[~pf.quadric_mask] == q + 1)
        assert pf.network_radix == polarfly_radix(q)

    def test_rejects_non_prime_power(self):
        with pytest.raises(ValueError):
            PolarFly(6)

    def test_edge_count(self, pf7):
        q = 7
        # q(q+1)^2 / 2 total edges (Proposition V.5 proof).
        assert pf7.num_links == q * (q + 1) ** 2 // 2


class TestDiameterAndGirth:
    @pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9, 11))
    def test_diameter_two(self, q):
        assert PolarFly(q).diameter() == 2

    @pytest.mark.parametrize("q", (3, 5, 7, 9))
    def test_no_quadrangles(self, q):
        assert PolarFly(q).graph.count_4cycles() == 0

    @pytest.mark.parametrize("q", (5, 7, 9))
    def test_triangle_count(self, q):
        # Proposition V.5.
        assert len(PolarFly(q).graph.triangles()) == comb(q + 1, 3)


class TestVertexPartition:
    @pytest.mark.parametrize("q", (3, 5, 7, 9, 11, 13))
    def test_partition_sizes(self, q):
        pf = PolarFly(q)
        assert pf.quadric_mask.sum() == q + 1
        assert pf.v1_mask.sum() == q * (q + 1) // 2
        assert pf.v2_mask.sum() == q * (q - 1) // 2

    def test_partition_disjoint_and_complete(self, pf7):
        total = pf7.quadric_mask | pf7.v1_mask | pf7.v2_mask
        assert total.all()
        assert not (pf7.quadric_mask & pf7.v1_mask).any()
        assert not (pf7.v1_mask & pf7.v2_mask).any()

    def test_quadrics_independent(self, pf7):
        # Property 1.1: no two quadrics adjacent.
        for i, u in enumerate(pf7.quadrics):
            for v in pf7.quadrics[i + 1 :]:
                assert not pf7.graph.has_edge(int(u), int(v))

    def test_quadric_neighbors_in_v1(self, pf7):
        # Property 1.1: every quadric adjacent to exactly q V1 vertices.
        for w in pf7.quadrics:
            nbrs = pf7.graph.neighbors(int(w))
            assert nbrs.size == 7
            assert pf7.v1_mask[nbrs].all()

    def test_v1_adjacency_profile(self, pf7):
        # Property 1.2: 2 quadrics, (q-1)/2 each of V1, V2.
        q = 7
        for v in pf7.v1:
            nbrs = pf7.graph.neighbors(int(v))
            assert pf7.quadric_mask[nbrs].sum() == 2
            assert pf7.v1_mask[nbrs].sum() == (q - 1) // 2
            assert pf7.v2_mask[nbrs].sum() == (q - 1) // 2

    def test_v2_adjacency_profile(self, pf7):
        # Property 1.3: (q+1)/2 each of V1 and V2, no quadrics.
        q = 7
        for v in pf7.v2:
            nbrs = pf7.graph.neighbors(int(v))
            assert pf7.quadric_mask[nbrs].sum() == 0
            assert pf7.v1_mask[nbrs].sum() == (q + 1) // 2
            assert pf7.v2_mask[nbrs].sum() == (q + 1) // 2

    def test_vertex_class_labels(self, pf7):
        assert pf7.vertex_class(int(pf7.quadrics[0])) == "W"
        assert pf7.vertex_class(int(pf7.v1[0])) == "V1"
        assert pf7.vertex_class(int(pf7.v2[0])) == "V2"


class TestVectors:
    def test_left_normalized(self, pf7):
        lead_idx = np.argmax(pf7.vectors != 0, axis=1)
        lead = pf7.vectors[np.arange(pf7.num_routers), lead_idx]
        assert np.all(lead == 1)

    def test_all_distinct(self, pf7):
        assert len({tuple(v) for v in pf7.vectors.tolist()}) == pf7.num_routers

    def test_vertex_index_roundtrip(self, pf7):
        for i in (0, 10, 30, 56):
            assert pf7.vertex_index(pf7.vectors[i]) == i

    def test_vertex_index_normalizes(self, pf7):
        # A non-normalized multiple must resolve to the same vertex.
        F = pf7.field
        v = pf7.vectors[12]
        scaled = F.mul(np.full(3, 3), v)
        assert pf7.vertex_index(scaled) == 12

    def test_edges_are_orthogonal_pairs(self, pf7):
        F = pf7.field
        e = pf7.graph.edges()
        dots = F.dot(pf7.vectors[e[:, 0]], pf7.vectors[e[:, 1]])
        assert np.all(dots == 0)

    def test_quadrics_self_orthogonal(self, pf7):
        F = pf7.field
        dots = F.dot(pf7.vectors, pf7.vectors)
        assert np.array_equal(dots == 0, pf7.quadric_mask)

    @pytest.mark.parametrize("q", (5, 7, 9, 11))
    def test_sparse_edges_match_dense_dot_product(self, q):
        # Orthogonal edges alone would pass with edges missing; the
        # all-pairs definition pins the polar-line list both ways.
        pf = PolarFly(q)
        assert np.array_equal(
            pf.graph.adjacency_matrix(), dense_polar_adjacency(pf)
        )


class TestAlgebraicRouting:
    """Section IV-D: unique minimal paths via cross products."""

    @pytest.mark.parametrize("q", (5, 7, 9))
    def test_unique_2hop_midpoint(self, q):
        pf = PolarFly(q)
        rng = np.random.default_rng(0)
        adj = pf.graph.adjacency_matrix(np.int64)
        p2 = adj @ adj
        for _ in range(50):
            s, d = map(int, rng.integers(0, pf.num_routers, 2))
            if s == d or pf.are_adjacent(s, d):
                continue
            # exactly one common neighbor...
            assert p2[s, d] == 1
            # ...and the cross product finds it.
            mid = pf.intermediate(s, d)
            assert pf.are_adjacent(s, mid) and pf.are_adjacent(mid, d)

    def test_paper_er3_example(self):
        # Section IV-D: in ER3 the midpoint of (0,0,1)-(1,2,2) is (1,1,0).
        pf = PolarFly(3)
        s = pf.vertex_index([0, 0, 1])
        d = pf.vertex_index([1, 2, 2])
        assert not pf.are_adjacent(s, d)
        assert pf.intermediate(s, d) == pf.vertex_index([1, 1, 0])

    def test_paper_er3_adjacency_example(self):
        # Figure 4: [1,1,1] adjacent to [0,1,2] over F_3.
        pf = PolarFly(3)
        assert pf.are_adjacent(
            pf.vertex_index([1, 1, 1]), pf.vertex_index([0, 1, 2])
        )

    def test_minimal_path_cases(self, pf7):
        rng = np.random.default_rng(1)
        for _ in range(40):
            s, d = map(int, rng.integers(0, pf7.num_routers, 2))
            path = pf7.minimal_path(s, d)
            if s == d:
                assert path == [s]
                continue
            assert path[0] == s and path[-1] == d
            assert len(path) - 1 <= 2
            for a, b in zip(path, path[1:]):
                assert pf7.are_adjacent(a, b)

    def test_intermediate_same_vertex_raises(self, pf7):
        with pytest.raises(ValueError):
            pf7.intermediate(3, 3)


class TestMooreBound:
    @pytest.mark.parametrize("q", (7, 9, 11, 13))
    def test_efficiency_formula(self, q):
        pf = PolarFly(q)
        k = q + 1
        assert pf.moore_bound_efficiency == pytest.approx(
            (q * q + q + 1) / (k * k + 1)
        )

    def test_exceeds_96_percent_at_radix_32(self):
        # The abstract's claim for moderate radixes.
        assert PolarFly(31).moore_bound_efficiency > 0.96

    def test_feasible_q_for_radix(self):
        assert feasible_q_for_radix(32) == 31
        assert feasible_q_for_radix(10) == 9
        assert feasible_q_for_radix(7) is None  # 6 is not a prime power
        assert feasible_q_for_radix(128) == 127


class TestEvenQ:
    """Even prime powers still give valid ER graphs (layout aside)."""

    @pytest.mark.parametrize("q", (2, 4, 8))
    def test_structure(self, q):
        pf = PolarFly(q)
        assert pf.num_routers == q * q + q + 1
        assert pf.diameter() == 2
        assert pf.quadric_mask.sum() == q + 1
