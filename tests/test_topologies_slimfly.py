"""Unit tests for the Slim Fly (MMS) construction."""

import numpy as np
import pytest

from repro.topologies import (
    SlimFly,
    feasible_slimfly_q,
    slimfly_delta,
    slimfly_order,
    slimfly_radix,
)


class TestParameters:
    def test_delta(self):
        assert slimfly_delta(5) == 1   # 4*1+1
        assert slimfly_delta(7) == -1  # 4*2-1
        assert slimfly_delta(4) == 0
        assert slimfly_delta(23) == -1
        assert slimfly_delta(2) is None  # needs w >= 1

    def test_radix(self):
        assert slimfly_radix(5) == 7
        assert slimfly_radix(23) == 35  # the paper's Table V config

    def test_order(self):
        assert slimfly_order(23) == 1058  # Table V

    def test_feasible_q(self):
        assert feasible_slimfly_q(35) == 23
        assert feasible_slimfly_q(7) == 5
        assert feasible_slimfly_q(34) is None


class TestGeneratorSets:
    @pytest.mark.parametrize("q", (5, 7, 9, 11, 13))
    def test_sizes(self, q):
        sf = SlimFly(q)
        assert len(sf.X) == len(sf.Xp) == (q - sf.delta) // 2

    @pytest.mark.parametrize("q", (5, 7, 9, 11))
    def test_symmetric(self, q):
        sf = SlimFly(q)
        F = sf.field
        assert {int(F.neg(x)) for x in sf.X} == set(sf.X)
        assert {int(F.neg(x)) for x in sf.Xp} == set(sf.Xp)

    @pytest.mark.parametrize("q", (5, 7, 9, 11))
    def test_union_covers(self, q):
        sf = SlimFly(q)
        assert set(sf.X) | set(sf.Xp) == set(range(1, q))

    @pytest.mark.parametrize("q", (4, 8, 16, 32))
    def test_char2_sets_are_the_even_powers_and_their_shift(self, q):
        """delta = 0, GF(2^k): X is the even powers of the primitive
        element and X' = xi * X, which meets X once and needs no search."""
        sf = SlimFly(q)
        F = sf.field
        xi = F.primitive_element
        power, powers = 1, []
        for _ in range(q - 1):
            powers.append(power)
            power = int(F.mul(power, xi))
        assert set(sf.X) == set(powers[0::2])
        assert set(sf.Xp) == {int(F.mul(xi, x)) for x in sf.X}
        assert len(set(sf.X) & set(sf.Xp)) == 1
        assert sf.diameter() == 2

    def test_delta1_quadratic_residues(self):
        sf = SlimFly(13)
        F = sf.field
        assert set(sf.X) == set(F.squares().tolist())


class TestGraph:
    @pytest.mark.parametrize("q", (4, 5, 7, 8, 9, 11, 13))
    def test_order_degree_diameter(self, q):
        sf = SlimFly(q)
        assert sf.num_routers == 2 * q * q
        assert np.all(sf.graph.degree() == slimfly_radix(q))
        assert sf.diameter() == 2

    def test_vertex_id_roundtrip(self):
        sf = SlimFly(5)
        for v in (0, 7, 23, 49):
            s, x, y = sf.vertex_tuple(v)
            assert sf.vertex_id(s, x, y) == v

    def test_cross_edges_are_lines(self):
        # (0,x,y) ~ (1,m,c) iff y = m*x + c.
        sf = SlimFly(5)
        F = sf.field
        for u, v in sf.graph.edges()[:200]:
            su, xu, yu = sf.vertex_tuple(int(u))
            sv, xv, yv = sf.vertex_tuple(int(v))
            if su != sv:
                (x, y), (m, c) = ((xu, yu), (xv, yv)) if su == 0 else (
                    (xv, yv),
                    (xu, yu),
                )
                assert y == int(F.add(F.mul(m, x), c))

    def test_moore_efficiency_8_9(self):
        # Slim Fly tends to 8/9 of the Moore bound (from above for
        # delta=1: finite q slightly exceeds the asymptote).
        assert SlimFly(13).moore_bound_efficiency == pytest.approx(8 / 9, abs=0.06)
        assert slimfly_order(61) / ((slimfly_radix(61) ** 2) + 1) == pytest.approx(
            8 / 9, abs=0.02
        )

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            SlimFly(6)
        with pytest.raises(ValueError):
            SlimFly(2)

    def test_invalid_generators_detected(self):
        # Corrupting the generator sets must trip validation.
        sf = SlimFly(5)
        sf.X = frozenset({1})
        with pytest.raises(RuntimeError):
            sf._validate_generators()

    def test_endpoints(self):
        sf = SlimFly(5, concentration=3)
        assert sf.num_endpoints == 150
