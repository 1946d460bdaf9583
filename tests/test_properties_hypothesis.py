"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import PolarFly
from repro.fields import GF, is_prime_power, prime_powers_up_to
from repro.fields.polynomials import (
    is_irreducible,
    poly_add,
    poly_divmod,
    poly_mul,
    poly_sub,
    poly_trim,
)
from repro.utils.graph import Graph

SMALL_PRIME_POWERS = [q for q in prime_powers_up_to(32) if q >= 3]

field_orders = st.sampled_from(SMALL_PRIME_POWERS)
small_primes = st.sampled_from([2, 3, 5, 7])


def polys(p, max_deg=5):
    return st.lists(
        st.integers(min_value=0, max_value=p - 1), min_size=0, max_size=max_deg + 1
    ).map(poly_trim)


# ----------------------------------------------------------------------
# Field axioms as universal properties
# ----------------------------------------------------------------------
class TestFieldProperties:
    @given(q=field_orders, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_add_group(self, q, data):
        F = GF(q)
        a = data.draw(st.integers(0, q - 1))
        b = data.draw(st.integers(0, q - 1))
        c = data.draw(st.integers(0, q - 1))
        assert int(F.add(a, b)) == int(F.add(b, a))
        assert int(F.add(F.add(a, b), c)) == int(F.add(a, F.add(b, c)))
        assert int(F.add(a, 0)) == a
        assert int(F.add(a, F.neg(a))) == 0

    @given(q=field_orders, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_mul_group_and_distributivity(self, q, data):
        F = GF(q)
        a = data.draw(st.integers(0, q - 1))
        b = data.draw(st.integers(0, q - 1))
        c = data.draw(st.integers(0, q - 1))
        assert int(F.mul(a, b)) == int(F.mul(b, a))
        assert int(F.mul(F.mul(a, b), c)) == int(F.mul(a, F.mul(b, c)))
        assert int(F.mul(a, 1)) == a
        assert int(F.mul(a, F.add(b, c))) == int(F.add(F.mul(a, b), F.mul(a, c)))
        if a != 0:
            assert int(F.mul(a, F.inv(a))) == 1

    @given(q=field_orders, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_no_zero_divisors(self, q, data):
        F = GF(q)
        a = data.draw(st.integers(1, q - 1))
        b = data.draw(st.integers(1, q - 1))
        assert int(F.mul(a, b)) != 0

    @given(q=field_orders, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_frobenius_is_additive(self, q, data):
        # (a+b)^p == a^p + b^p in characteristic p.
        F = GF(q)
        a = data.draw(st.integers(0, q - 1))
        b = data.draw(st.integers(0, q - 1))
        lhs = F.pow(np.array(int(F.add(a, b))), F.p)
        rhs = F.add(int(F.pow(np.array(a), F.p)), int(F.pow(np.array(b), F.p)))
        assert int(lhs) == int(rhs)

    @given(q=field_orders, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_cross_product_orthogonal(self, q, data):
        F = GF(q)
        u = np.array([data.draw(st.integers(0, q - 1)) for _ in range(3)])
        v = np.array([data.draw(st.integers(0, q - 1)) for _ in range(3)])
        c = F.cross(u, v)
        assert int(F.dot(u, c)) == 0
        assert int(F.dot(v, c)) == 0

    @given(q=field_orders, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_left_normalize_projective_invariant(self, q, data):
        F = GF(q)
        v = np.array([data.draw(st.integers(0, q - 1)) for _ in range(3)])
        if not v.any():
            return
        s = data.draw(st.integers(1, q - 1))
        scaled = F.mul(np.full(3, s), v)
        assert np.array_equal(
            F.left_normalize(v), F.left_normalize(scaled)
        )


# ----------------------------------------------------------------------
# Polynomial ring properties
# ----------------------------------------------------------------------
class TestPolynomialProperties:
    @given(p=small_primes, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, p, data):
        f = data.draw(polys(p))
        g = data.draw(polys(p))
        h = data.draw(polys(p))
        assert poly_add(f, g, p) == poly_add(g, f, p)
        assert poly_mul(f, g, p) == poly_mul(g, f, p)
        assert poly_mul(f, poly_add(g, h, p), p) == poly_add(
            poly_mul(f, g, p), poly_mul(f, h, p), p
        )
        assert poly_sub(f, f, p) == ()

    @given(p=small_primes, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_division_identity(self, p, data):
        f = data.draw(polys(p))
        g = data.draw(polys(p).filter(lambda x: x != ()))
        quo, rem = poly_divmod(f, g, p)
        assert poly_add(poly_mul(quo, g, p), rem, p) == f
        assert len(rem) < len(g)

    @given(p=small_primes, data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_irreducible_products_are_reducible(self, p, data):
        f = data.draw(polys(p, 3).filter(lambda x: len(x) >= 2))
        g = data.draw(polys(p, 3).filter(lambda x: len(x) >= 2))
        prod = poly_mul(f, g, p)
        # Normalize to monic for the test.
        lead_inv = pow(int(prod[-1]), p - 2, p)
        monic = poly_trim([(c * lead_inv) % p for c in prod])
        assert not is_irreducible(monic, p)


# ----------------------------------------------------------------------
# Graph kernel properties
# ----------------------------------------------------------------------
@st.composite
def random_graphs(draw):
    n = draw(st.integers(2, 16))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(possible), max_size=40, unique=True))
    return Graph(n, chosen)


class TestGraphProperties:
    @given(g=random_graphs())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_handshake(self, g):
        assert int(g.degree().sum()) == 2 * g.num_edges

    @given(g=random_graphs())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_bfs_triangle_inequality(self, g):
        # dist(0, v) <= dist(0, u) + 1 for every edge (u, v).
        dist = g.bfs_distances(0)
        for u, v in g.edges():
            du, dv = int(dist[u]), int(dist[v])
            if du >= 0 and dv >= 0:
                assert abs(du - dv) <= 1

    @given(g=random_graphs())
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_remove_all_edges_isolates(self, g):
        empty = g.remove_edges([tuple(e) for e in g.edges()])
        assert empty.num_edges == 0

    @given(g=random_graphs())
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_adjacency_roundtrip(self, g):
        g2 = Graph.from_adjacency_matrix(g.adjacency_matrix())
        assert np.array_equal(g.edges(), g2.edges())


# ----------------------------------------------------------------------
# PolarFly invariants under arbitrary prime powers
# ----------------------------------------------------------------------
class TestPolarFlyProperties:
    @given(q=st.sampled_from([q for q in SMALL_PRIME_POWERS if q <= 13]))
    @settings(max_examples=10, deadline=None)
    def test_moore_bound_never_exceeded(self, q):
        pf = PolarFly(q)
        k = pf.network_radix
        assert pf.num_routers <= k * k + 1

    @given(
        q=st.sampled_from([5, 7, 9]),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_unique_minimal_path_property(self, q, data):
        pf = PolarFly(q)
        n = pf.num_routers
        s = data.draw(st.integers(0, n - 1))
        d = data.draw(st.integers(0, n - 1))
        if s == d:
            return
        path = pf.minimal_path(s, d)
        assert len(path) - 1 <= 2
        for a, b in zip(path, path[1:]):
            assert pf.are_adjacent(a, b)

    @given(q=st.sampled_from([5, 7, 9]), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_intermediate_is_orthogonal_to_both(self, q, data):
        pf = PolarFly(q)
        n = pf.num_routers
        s = data.draw(st.integers(0, n - 1))
        d = data.draw(st.integers(0, n - 1))
        if s == d:
            return
        mid = pf.intermediate(s, d)
        F = pf.field
        assert int(F.dot(pf.vectors[s], pf.vectors[mid])) == 0
        assert int(F.dot(pf.vectors[d], pf.vectors[mid])) == 0

    def test_prime_power_detection_consistent(self):
        for q in range(2, 200):
            pp = is_prime_power(q)
            if pp:
                p, m = pp
                assert p**m == q
