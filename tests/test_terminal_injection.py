"""Terminal-only injection on indirect topologies (fat trees).

Regression guard for the edge case the workload engine leans on: on a
fat tree only the edge switches host endpoints (``concentration > 0``),
so permutation and workload traffic must inject and eject exclusively
there — internal/core switches forward but never source or sink — and
the batched traffic path must honor ``TrafficPattern._pos_arr`` (the
terminal-position map) exactly as the scalar path does.
"""

import numpy as np
import pytest

from repro.experiments import POLICIES, TOPOLOGIES, TRAFFICS, WORKLOADS
from repro.experiments.runner import auto_sim_config, simulate_point
from repro.flitsim import FlatSimulator, NetworkSimulator
from repro.flitsim.traffic import RandomPermutationTraffic, UniformTraffic
from repro.routing.tables import RoutingTables
from repro.topologies.base import Topology
from repro.utils.graph import Graph
from repro.utils.rng import make_rng


@pytest.fixture(scope="module")
def ft():
    return TOPOLOGIES.create("fattree:k=4,n=2")


@pytest.fixture(scope="module")
def ft_tables(ft):
    return RoutingTables(ft)


@pytest.fixture(scope="module")
def sparse_topo():
    """A direct topology whose terminals are non-contiguous router ids.

    A 6-cycle where only routers {1, 3, 4} host endpoints — so the
    position map ``_pos_arr`` is a genuine permutation-with-holes, not
    the identity.
    """
    graph = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    return Topology("sparse", graph, np.array([0, 2, 0, 1, 2, 0]))


class TestTerminalOnlyTraffic:
    def test_fattree_terminals_are_edge_switches(self, ft):
        terminals = np.flatnonzero(ft.concentration > 0)
        assert np.array_equal(terminals, np.arange(ft.switches_per_level))
        # Every endpoint attaches to a terminal router by construction.
        assert np.all(ft.concentration[ft.endpoint_routers] > 0)

    @pytest.mark.parametrize("spec", ["uniform", "tornado", "randperm:seed=3"])
    def test_batched_destinations_are_terminals(self, ft, spec):
        traffic = TRAFFICS.create(spec, ft)
        terminals = set(np.flatnonzero(ft.concentration > 0).tolist())
        rng = make_rng(5)
        srcs = ft.endpoint_routers  # every injecting router, in order
        for _ in range(20):
            dsts = traffic.dest_routers(srcs, rng)
            assert set(dsts.tolist()) <= terminals
            assert np.all(dsts != srcs)

    def test_simulated_fattree_ejects_only_at_edge_switches(self, ft, ft_tables):
        # Instrument dest_routers during a real closed run: every
        # destination the simulator ever routes to must be terminal.
        policy = POLICIES.create("ftnca", ft_tables)
        traffic = TRAFFICS.create("randperm:seed=1", ft)
        seen = []
        orig = traffic.dest_routers
        traffic.dest_routers = lambda srcs, rng: seen.append(orig(srcs, rng)) or seen[-1]
        sim = NetworkSimulator(
            ft, policy, traffic, 0.5, config=auto_sim_config(policy), seed=2
        )
        sim.run(warmup=40, measure=80, drain=40)
        terminals = set(np.flatnonzero(ft.concentration > 0).tolist())
        assert seen, "no injections happened"
        for batch in seen:
            assert set(batch.tolist()) <= terminals


class TestPosArrBatchedPath:
    def test_pos_arr_shape(self, sparse_topo):
        traffic = UniformTraffic(sparse_topo)
        assert traffic._pos_arr.tolist() == [-1, 0, -1, 1, 2, -1]

    def test_permutation_batched_matches_scalar(self, sparse_topo):
        traffic = RandomPermutationTraffic(sparse_topo, seed=4)
        rng = make_rng(0)
        srcs = np.array([1, 3, 4, 4, 1])
        batched = traffic.dest_routers(srcs, rng)
        scalar = np.array([traffic.dest_router(int(s), rng) for s in srcs])
        assert np.array_equal(batched, scalar)

    def test_uniform_batched_never_self_sends(self, sparse_topo):
        # A broken _pos_arr lookup would shift the skip-self index and
        # let a terminal draw itself.
        traffic = UniformTraffic(sparse_topo)
        rng = make_rng(7)
        terminals = np.flatnonzero(sparse_topo.concentration > 0)
        srcs = np.repeat(terminals, 200)
        dsts = traffic.dest_routers(srcs, rng)
        assert np.all(dsts != srcs)
        assert set(dsts.tolist()) <= set(terminals.tolist())


class TestWorkloadsOnFatTree:
    def test_workload_endpoints_are_terminals(self, ft):
        for spec in ["allreduce:algo=ring,size=32", "alltoall:size=4",
                     "halo:iters=1,size=8", "incast:size=8"]:
            wl = WORKLOADS.create(spec, ft)
            assert np.all(ft.concentration[wl.src] > 0), spec
            assert np.all(ft.concentration[wl.dst] > 0), spec

    def test_closed_loop_fattree_engines_agree(self, ft, ft_tables):
        policy = POLICIES.create("ftnca", ft_tables)
        wl = WORKLOADS.create("alltoall:size=4", ft)
        cfg = auto_sim_config(policy)
        results = []
        for cls in (NetworkSimulator, FlatSimulator):
            sim = cls(ft, policy, None, 0.0, config=cfg, seed=11, workload=wl)
            results.append(sim.run_workload(max_cycles=50_000))
        ref, flat = results
        assert ref.finished and flat.finished
        assert ref.cycles == flat.cycles
        assert np.array_equal(ref.msg_latencies, flat.msg_latencies)
        assert np.array_equal(ref.packet_latencies, flat.packet_latencies)

    def test_non_terminal_workload_rejected(self, ft, ft_tables):
        from repro.workloads import Message, Workload

        core = int(np.flatnonzero(ft.concentration == 0)[0])
        edge = int(np.flatnonzero(ft.concentration > 0)[0])
        wl = Workload("bad", [Message(core, edge, 4)])
        policy = POLICIES.create("ftnca", ft_tables)
        with pytest.raises(ValueError, match="terminal"):
            simulate_point(ft, policy, workload=wl, seed=0)
