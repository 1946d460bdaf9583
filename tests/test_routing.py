"""Unit tests for routing tables, policies and path enumeration."""

import numpy as np
import pytest

from repro.routing import (
    CompactValiantRouting,
    FatTreeNCARouting,
    MinimalRouting,
    RoutingTables,
    UGALPFRouting,
    UGALRouting,
    ValiantRouting,
    ZERO_CONGESTION,
    count_paths_of_length,
    count_paths_up_to,
    enumerate_paths,
)
from repro.routing.policies import iter_routes
from repro.topologies import FatTree
from repro.utils.graph import Graph
from repro.utils.rng import make_rng


@pytest.fixture(scope="module")
def pf(pf7_endpoints):
    return pf7_endpoints


@pytest.fixture(scope="module")
def tables(tables7):
    return tables7


def _check_path(topo, path, src, dst):
    assert path[0] == src and path[-1] == dst
    for a, b in zip(path, path[1:]):
        assert topo.graph.has_edge(a, b), path


class TestRoutingTables:
    def test_distance_matrix_symmetric(self, tables):
        assert np.array_equal(tables.dist, tables.dist.T)

    def test_distances_bounded_by_diameter(self, tables):
        assert tables.dist.max() == 2

    def test_zero_diagonal(self, tables):
        assert np.all(np.diagonal(tables.dist) == 0)

    def test_min_next_hops_decrease_distance(self, tables):
        rng = make_rng(0)
        n = tables.topo.num_routers
        for _ in range(30):
            s, d = map(int, rng.integers(0, n, 2))
            if s == d:
                continue
            hops = tables.min_next_hops(s, d)
            assert hops.size >= 1
            assert np.all(tables.dist[hops, d] == tables.dist[s, d] - 1)

    def test_min_next_hops_unique_on_polarfly(self, tables):
        # PolarFly's minimal paths are unique (Property 1.4).
        rng = make_rng(1)
        n = tables.topo.num_routers
        for _ in range(40):
            s, d = map(int, rng.integers(0, n, 2))
            if s != d:
                assert tables.min_next_hops(s, d).size == 1

    def test_shortest_path_valid(self, tables):
        path = tables.shortest_path(0, 37)
        _check_path(tables.topo, path, 0, 37)
        assert len(path) - 1 == tables.distance(0, 37)

    def test_disconnected_rejected(self):
        topo_graph = Graph(4, [(0, 1), (2, 3)])
        from repro.topologies.base import Topology

        with pytest.raises(ValueError):
            RoutingTables(Topology("broken", topo_graph, 1))


def _pairs(n, count, seed):
    """Random ``(src, dst)`` router pairs with ``src != dst``, as arrays."""
    srcs, dsts = make_rng(seed).integers(0, n, (2, count))
    keep = srcs != dsts
    return srcs[keep], dsts[keep]


def _routes(policy, srcs, dsts, rng, congestion=ZERO_CONGESTION):
    """One ``select_routes`` batch (the numpy body) as per-packet lists."""
    batch = policy.select_routes(
        np.asarray(srcs, dtype=np.int64), np.asarray(dsts, dtype=np.int64),
        rng, congestion,
    )
    return [list(map(int, route)) for route in iter_routes(batch)]


class TestMinimalRouting:
    def test_paths_are_minimal(self, pf, tables):
        policy = MinimalRouting(tables)
        srcs, dsts = _pairs(pf.num_routers, 30, seed=0)
        for s, d, path in zip(srcs, dsts, _routes(policy, srcs, dsts, make_rng(0))):
            _check_path(pf, path, s, d)
            assert len(path) - 1 == tables.distance(s, d)

    def test_max_hops(self, tables):
        assert MinimalRouting(tables).max_hops == 2


class TestValiantRouting:
    def test_paths_valid(self, pf, tables):
        policy = ValiantRouting(tables)
        srcs, dsts = _pairs(pf.num_routers, 30, seed=0)
        for s, d, path in zip(srcs, dsts, _routes(policy, srcs, dsts, make_rng(0))):
            _check_path(pf, path, s, d)
            assert len(path) - 1 <= 4

    def test_intermediate_not_endpoint(self, pf, tables):
        policy = ValiantRouting(tables)
        mids = policy.random_intermediates(np.full(50, 3), np.full(50, 9), make_rng(1))
        assert not np.isin(mids, (3, 9)).any()
        srcs, dsts = _pairs(pf.num_routers, 200, seed=1)
        mids = policy.random_intermediates(srcs, dsts, make_rng(1))
        assert np.all((mids != srcs) & (mids != dsts))

    def test_spreads_paths(self, pf, tables):
        # Valiant must produce many distinct paths for a fixed pair.
        policy = ValiantRouting(tables)
        paths = {tuple(p) for p in _routes(policy, [0] * 60, [9] * 60, make_rng(2))}
        assert len(paths) > 10


def _far_pairs(tables, count, seed):
    """Random pairs more than one hop apart."""
    srcs, dsts = _pairs(tables.topo.num_routers, count, seed)
    far = tables.dist[srcs, dsts] > 1
    return srcs[far], dsts[far]


class TestCompactValiant:
    def test_detour_bounded_three_hops(self, pf, tables):
        policy = CompactValiantRouting(tables)
        srcs, dsts = _far_pairs(tables, 60, seed=0)
        for s, d, path in zip(srcs, dsts, _routes(policy, srcs, dsts, make_rng(0))):
            _check_path(pf, path, s, d)
            assert len(path) - 1 <= 3
            # First hop is a neighbor-intermediate.
            assert pf.graph.has_edge(s, path[1])

    def test_no_bounce_through_source(self, pf, tables):
        # The paper's bounce-back scenario cannot occur for non-adjacent
        # endpoints: the source never reappears later in the path.
        policy = CompactValiantRouting(tables)
        srcs, dsts = _far_pairs(tables, 80, seed=3)
        for s, path in zip(srcs, _routes(policy, srcs, dsts, make_rng(3))):
            assert s not in path[1:]

    def test_adjacent_falls_back_to_general_valiant(self, pf, tables):
        policy = CompactValiantRouting(tables)
        e = pf.graph.edges()[0]
        s, d = int(e[0]), int(e[1])
        lengths = {
            len(path) - 1 for path in _routes(policy, [s] * 40, [d] * 40, make_rng(4))
        }
        # General Valiant: up to 4 hops possible.
        assert max(lengths) >= 3


class _FakeCongestion:
    """Congestion stub: heavy on given (router, next_hop) pairs."""

    def __init__(self, hot, occ=100, capacity=8):
        self.hot = hot
        self.occ = occ
        self.capacity = capacity

    def output_occupancies(self, routers, next_hops):
        return np.array(
            [
                self.occ if (int(r), int(v)) in self.hot else 0
                for r, v in zip(routers, next_hops)
            ],
            dtype=np.int64,
        )

    def output_capacity(self):
        return self.capacity


class TestUGAL:
    def test_idle_network_stays_minimal(self, pf, tables):
        policy = UGALRouting(tables)
        srcs, dsts = _pairs(pf.num_routers, 30, seed=0)
        routes = _routes(policy, srcs, dsts, make_rng(0), ZERO_CONGESTION)
        for s, d, path in zip(srcs, dsts, routes):
            assert len(path) - 1 == tables.distance(s, d)

    def test_idle_network_keeps_ugalpf_minimal(self, pf, tables):
        # Outside a simulation UGAL_PF scales its threshold by
        # ZERO_CONGESTION's one-flit capacity; every queue is empty.
        policy = UGALPFRouting(tables, threshold=0.0)
        srcs, dsts = _pairs(pf.num_routers, 30, seed=0)
        assert ZERO_CONGESTION.output_capacity() == 1
        routes = _routes(policy, srcs, dsts, make_rng(0))
        for s, d, path in zip(srcs, dsts, routes):
            assert len(path) - 1 == tables.distance(s, d)

    def test_congestion_diverts(self, pf, tables):
        policy = UGALRouting(tables)
        s, d = 0, 37
        min_path = tables.shortest_path(s, d)
        hot = {(s, min_path[1])}
        routes = _routes(policy, [s] * 30, [d] * 30, make_rng(1), _FakeCongestion(hot))
        for path in routes:
            _check_path(pf, path, s, d)
        diverted = sum(path[1] != min_path[1] for path in routes)
        assert diverted > 20  # nearly always avoids the hot port

    def test_ugalpf_threshold_blocks_diversion(self, pf, tables):
        # Below the 2/3 occupancy threshold UGAL_PF must stay minimal even
        # if the min-path queue is (slightly) longer than alternatives.
        policy = UGALPFRouting(tables, threshold=2 / 3)
        s, d = 0, 37
        min_path = tables.shortest_path(s, d)
        mild = _FakeCongestion({(s, min_path[1])}, occ=4, capacity=8)
        for path in _routes(policy, [s] * 20, [d] * 20, make_rng(2), mild):
            assert path[1] == min_path[1]

    def test_ugalpf_diverts_over_threshold(self, pf, tables):
        policy = UGALPFRouting(tables, threshold=2 / 3)
        s, d = 0, 37
        min_path = tables.shortest_path(s, d)
        heavy = _FakeCongestion({(s, min_path[1])}, occ=100, capacity=8)
        diverted = sum(
            path[1] != min_path[1]
            for path in _routes(policy, [s] * 30, [d] * 30, make_rng(3), heavy)
        )
        assert diverted > 20

    def test_ugalpf_detour_is_compact(self, pf, tables):
        policy = UGALPFRouting(tables)
        s, d = 0, 37
        assert tables.distance(s, d) == 2
        min_path = tables.shortest_path(s, d)
        heavy = _FakeCongestion({(s, min_path[1])}, occ=100)
        routes = _routes(policy, [s] * 30, [d] * 30, make_rng(4), heavy)
        assert any(path[1] != min_path[1] for path in routes)
        for path in routes:
            _check_path(pf, path, s, d)
            assert len(path) - 1 <= 3


class TestFatTreeNCA:
    @pytest.fixture(scope="class")
    def ft(self):
        return FatTree(k=3, n=3)

    @pytest.fixture(scope="class")
    def ft_tables(self, ft):
        return RoutingTables(ft)

    def test_up_down_paths(self, ft, ft_tables):
        policy = FatTreeNCARouting(ft_tables)
        srcs, dsts = _pairs(ft.switches_per_level, 40, seed=0)
        for s, d, path in zip(srcs, dsts, _routes(policy, srcs, dsts, make_rng(0))):
            _check_path(ft, path, s, d)
            levels = [ft.switch_level(v) for v in path]
            peak = levels.index(max(levels))
            assert levels[: peak + 1] == sorted(levels[: peak + 1])
            assert levels[peak:] == sorted(levels[peak:], reverse=True)

    def test_path_length_is_2_nca(self, ft, ft_tables):
        policy = FatTreeNCARouting(ft_tables)
        srcs, dsts = _pairs(ft.switches_per_level, 30, seed=1)
        for s, d, path in zip(srcs, dsts, _routes(policy, srcs, dsts, make_rng(1))):
            assert len(path) - 1 == 2 * ft.nca_level(s, d)

    def test_requires_fattree(self, tables):
        with pytest.raises(TypeError):
            FatTreeNCARouting(tables)


class TestPathEnumeration:
    def test_cycle_graph(self):
        g = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
        assert count_paths_of_length(g, 0, 2, 2) == 1
        assert count_paths_of_length(g, 0, 2, 3) == 1  # the long way
        assert count_paths_of_length(g, 0, 1, 1) == 1

    def test_complete_graph(self):
        g = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        # K4: 0->1 paths of length 2 via {2,3}.
        assert count_paths_of_length(g, 0, 1, 2) == 2
        # length 3: 0-a-b-1 with {a,b} = perm of {2,3}.
        assert count_paths_of_length(g, 0, 1, 3) == 2

    def test_zero_length(self):
        g = Graph(3, [(0, 1)])
        assert count_paths_of_length(g, 0, 0, 0) == 1
        assert count_paths_of_length(g, 0, 1, 0) == 0

    def test_paths_are_simple(self):
        g = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        for p in enumerate_paths(g, 0, 1, 3):
            assert len(set(p)) == len(p)

    def test_count_paths_up_to(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        counts = count_paths_up_to(g, 0, 2, 2)
        assert counts == {1: 1, 2: 1}
