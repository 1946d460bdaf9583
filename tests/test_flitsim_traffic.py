"""Unit tests for traffic patterns."""

import numpy as np
import pytest

from repro.core import PolarFly
from repro.flitsim import (
    OneHopPermutationTraffic,
    RandomPermutationTraffic,
    TornadoTraffic,
    TwoHopPermutationTraffic,
    UniformTraffic,
    one_hop_permutation,
    two_hop_permutation,
)
from repro.flitsim.traffic import PermutationTraffic
from repro.topologies import FatTree
from repro.utils.rng import make_rng


@pytest.fixture(scope="module")
def pf():
    return PolarFly(7, concentration=2)


class TestUniform:
    def test_never_self(self, pf):
        tr = UniformTraffic(pf)
        rng = make_rng(0)
        for src in (0, 10, 56):
            for _ in range(50):
                assert tr.dest_router(src, rng) != src

    def test_covers_all_destinations(self, pf):
        tr = UniformTraffic(pf)
        rng = make_rng(1)
        seen = {tr.dest_router(0, rng) for _ in range(3000)}
        assert len(seen) == pf.num_routers - 1

    def test_roughly_uniform(self, pf):
        tr = UniformTraffic(pf)
        rng = make_rng(2)
        counts = np.zeros(pf.num_routers)
        for _ in range(5600):
            counts[tr.dest_router(5, rng)] += 1
        expect = 5600 / (pf.num_routers - 1)
        assert counts[5] == 0
        live = np.delete(counts, 5)
        assert live.min() > 0.3 * expect and live.max() < 3 * expect

    def test_fat_tree_targets_edge_switches_only(self):
        ft = FatTree(k=3, n=3)
        tr = UniformTraffic(ft)
        rng = make_rng(0)
        for _ in range(200):
            d = tr.dest_router(0, rng)
            assert ft.switch_level(d) == 0


class TestTornado:
    def test_halfway_mapping(self, pf):
        tr = TornadoTraffic(pf)
        n = pf.num_routers
        for i in (0, 5, 30):
            assert tr.dest_router(i, None) == (i + n // 2) % n

    def test_is_permutation(self, pf):
        tr = TornadoTraffic(pf)
        images = {tr.dest_router(i, None) for i in range(pf.num_routers)}
        assert len(images) == pf.num_routers


class TestRandomPermutation:
    def test_derangement(self, pf):
        tr = RandomPermutationTraffic(pf, seed=5)
        for i in range(pf.num_routers):
            assert tr.dest_router(i, None) != i

    def test_seeded_reproducible(self, pf):
        a = RandomPermutationTraffic(pf, seed=5)
        b = RandomPermutationTraffic(pf, seed=5)
        assert np.array_equal(a.mapping, b.mapping)

    def test_rejects_non_permutation(self, pf):
        with pytest.raises(ValueError):
            PermutationTraffic(pf, np.zeros(pf.num_routers, dtype=int))

    def test_rejects_wrong_length(self, pf):
        with pytest.raises(ValueError):
            PermutationTraffic(pf, np.arange(5))


class TestDistancePermutations:
    def test_one_hop(self, pf):
        mapping = one_hop_permutation(pf, seed=0)
        dist_ok = all(
            pf.graph.has_edge(i, int(mapping[i])) for i in range(pf.num_routers)
        )
        assert dist_ok
        assert len(set(mapping.tolist())) == pf.num_routers

    def test_two_hop(self, pf):
        mapping = two_hop_permutation(pf, seed=0)
        for i in range(pf.num_routers):
            d = pf.graph.bfs_distances(i)[int(mapping[i])]
            assert d == 2
        assert len(set(mapping.tolist())) == pf.num_routers

    def test_traffic_wrappers(self, pf):
        t1 = OneHopPermutationTraffic(pf, seed=1)
        t2 = TwoHopPermutationTraffic(pf, seed=1)
        for i in (0, 9, 33):
            assert pf.graph.has_edge(i, t1.dest_router(i, None))
            assert pf.graph.bfs_distances(i)[t2.dest_router(i, None)] == 2

    def test_seeds_give_different_instances(self, pf):
        a = one_hop_permutation(pf, seed=0)
        b = one_hop_permutation(pf, seed=1)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize(
        "spec, hops, seed, digest, head",
        [
            ("polarfly:conc=2,q=7", 1, 0, "60190249a59a9e30", [53, 6, 17, 49, 5, 32]),
            ("polarfly:conc=2,q=7", 1, 3, "6d1066a47f1ef4fe", [56, 13, 31, 37, 19, 32]),
            ("polarfly:conc=2,q=7", 2, 0, "647f0340b9f98bca", [44, 28, 8, 42, 50, 23]),
            ("polarfly:conc=2,q=7", 2, 3, "396af7a8cb5df0d0", [23, 47, 43, 15, 28, 31]),
            ("slimfly:conc=2,q=5", 1, 0, "3bacabd899d4f21b", [45, 41, 27, 28, 34, 25]),
            ("slimfly:conc=2,q=5", 1, 3, "d769fc061ff57620", [45, 0, 3, 2, 34, 25]),
            ("slimfly:conc=2,q=5", 2, 0, "0c2d5ee3c1ddc85f", [21, 34, 7, 18, 46, 31]),
            ("slimfly:conc=2,q=5", 2, 3, "11a8e8c45f3d9cf4", [20, 37, 13, 46, 9, 35]),
            # Terminals are a subset of the routers (the edge switches).
            ("fattree:k=4,n=3", 2, 0, "0dd3e489ab0339ff", [3, 2, 0, 1, 5, 4]),
            ("fattree:k=4,n=3", 2, 3, "b29f40597e35ae03", [3, 0, 1, 2, 5, 6]),
        ],
    )
    def test_permutation_pinned(self, spec, hops, seed, digest, head):
        """Fixed seeds give the same permutation as the per-terminal BFS loop."""
        import hashlib

        from repro.experiments.registry import TOPOLOGIES
        from repro.flitsim.traffic import _distance_permutation

        mapping = _distance_permutation(TOPOLOGIES.create(spec), hops, seed)
        assert mapping[:6].tolist() == head
        raw = np.ascontiguousarray(mapping, dtype="<i8").tobytes()
        assert hashlib.sha256(raw).hexdigest()[:16] == digest

    def test_impossible_distance_raises(self):
        # Diameter-2 network has no 3-hop destinations.
        pf = PolarFly(5, concentration=1)
        from repro.flitsim.traffic import _distance_permutation

        with pytest.raises(ValueError):
            _distance_permutation(pf, 3)
