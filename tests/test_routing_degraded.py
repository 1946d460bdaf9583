"""Golden tests for failure-aware routing repair (``routing/degraded.py``).

The incremental ``reroute_after_failures(..., base=)`` path must produce
tables *identical* to a fresh build on the degraded graph — distances,
candidate CSR rows, and served paths — and both paths must raise on
disconnection.
"""

import numpy as np
import pytest
from oracles import compact_candidate_csr

from repro.core import PolarFly
from repro.routing.degraded import (
    degraded_topology,
    fault_epoch_tables,
    reroute_after_failures,
)
from repro.routing.tables import RoutingTables
from repro.utils.rng import make_rng


@pytest.fixture(scope="module")
def pf():
    return PolarFly(7, concentration=2)


@pytest.fixture(scope="module")
def base(pf):
    return RoutingTables(pf)


def random_failures(pf, k, seed):
    rng = make_rng(seed)
    edges = pf.graph.edges()
    kill = rng.choice(edges.shape[0], size=k, replace=False)
    return edges[kill]


@pytest.mark.parametrize("seed,k", [(0, 5), (1, 12), (2, 20)])
def test_incremental_matches_fresh_build(pf, base, seed, k):
    failed = random_failures(pf, k, seed)
    fresh = RoutingTables(degraded_topology(pf, failed))
    incr = reroute_after_failures(pf, failed, base=base)

    assert np.array_equal(fresh.dist, incr.dist)
    fi, fd = compact_candidate_csr(fresh)
    ii, idata = compact_candidate_csr(incr)
    assert np.array_equal(fi, ii)
    assert np.array_equal(fd, idata)

    # Served paths match too (deterministic tie-break mode).
    rng = make_rng(seed + 100)
    srcs = rng.integers(pf.num_routers, size=64)
    dsts = (srcs + 1 + rng.integers(pf.num_routers - 1, size=64)) % pf.num_routers
    fp, fl = fresh.shortest_paths_batch(srcs, dsts)
    ip, il = incr.shortest_paths_batch(srcs, dsts)
    assert np.array_equal(fl, il)
    for row, length in enumerate(fl):
        assert np.array_equal(fp[row, :length], ip[row, :length])


def test_base_tables_untouched_by_repair(pf, base):
    failed = random_failures(pf, 8, 3)
    before = base.dist.copy()
    reroute_after_failures(pf, failed, base=base)
    assert np.array_equal(base.dist, before)
    assert base.topo is pf


def test_disconnection_raises_both_paths(pf, base):
    # All links of one router: it ends up isolated.
    isolating = np.array(
        [(0, int(v)) for v in pf.graph.neighbors(0)], dtype=np.int64
    )
    with pytest.raises(ValueError, match="disconnect"):
        reroute_after_failures(pf, isolating)
    with pytest.raises(ValueError, match="disconnect"):
        reroute_after_failures(pf, isolating, base=base)


def test_no_failures_is_identity(pf, base):
    incr = reroute_after_failures(pf, np.empty((0, 2), dtype=np.int64), base=base)
    assert np.array_equal(incr.dist, base.dist)


class TestFaultEpochTables:
    def test_router_failure_masks_and_distances(self, pf, base):
        tables = fault_epoch_tables(pf, failed_routers=[5], base=base)
        assert tables.alive_routers is not None
        assert not tables.alive_routers[5]
        n = pf.num_routers
        # Dead router unreachable from everywhere (and vice versa).
        others = np.array([r for r in range(n) if r != 5])
        assert np.all(tables.dist[others, 5] == -1)
        assert np.all(tables.dist[5, others] == -1)
        # Alive block fully connected and matches a fresh masked build.
        alive_block = tables.dist[np.ix_(tables.alive_routers, tables.alive_routers)]
        assert np.all(alive_block >= 0)
        fresh = fault_epoch_tables(pf, failed_routers=[5])
        assert np.array_equal(fresh.dist, tables.dist)

    def test_combined_links_and_router(self, pf, base):
        extra = random_failures(pf, 4, 7)
        tables = fault_epoch_tables(
            pf, failed_links=extra, failed_routers=[9], base=base
        )
        g = tables.topo.graph
        for u, v in extra:
            assert not g.has_edge(int(min(u, v)), int(max(u, v)))
        assert g.degree(9) == 0

    def test_articulating_router_raises(self, pf, base):
        # Killing every neighbor of router 0 strands it: survivors
        # of the removal exclude them but 0 keeps no alive links.
        victims = [int(v) for v in pf.graph.neighbors(0)]
        with pytest.raises(ValueError, match="disconnect"):
            fault_epoch_tables(pf, failed_routers=victims, base=base)
