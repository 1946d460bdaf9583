"""Golden tests for the vectorized RoutingTables construction.

The batched all-pairs distance matrix and the one-shot candidate CSR
must be bit-identical to the seed per-source builds on every registry
topology — large-radix scaling must not change a single routed path.
"""

import numpy as np
import pytest
from oracles import (
    bfs_distances_reference,
    compact_candidate_csr,
    per_source_candidate_csr,
)

from repro.experiments.registry import TOPOLOGIES
from repro.routing.tables import RoutingTables, _count_dtype, _value_dtype
from repro.topologies.base import Topology
from repro.utils.graph import Graph


@pytest.fixture(scope="module", params=sorted(TOPOLOGIES.names()))
def topo(request):
    return TOPOLOGIES.create(TOPOLOGIES.example(request.param))


class TestGoldenConstruction:
    def test_distance_matrix_matches_per_source(self, topo):
        tables = RoutingTables(topo)
        expected = np.stack(
            [bfs_distances_reference(topo.graph, s) for s in range(topo.graph.n)]
        ).astype(np.int16)
        assert tables.dist.dtype == np.int16
        assert np.array_equal(tables.dist, expected)

    def test_candidate_csr_matches_per_source(self, topo):
        tables = RoutingTables(topo)
        indptr, data = compact_candidate_csr(tables)
        ref_indptr, ref_data = per_source_candidate_csr(topo.graph, tables.dist)
        assert np.array_equal(indptr, ref_indptr)
        assert np.array_equal(data, ref_data)
        assert data.dtype == np.int32

    def test_batch_paths_match_scalar(self, topo):
        tables = RoutingTables(topo)
        n = topo.num_routers
        rng = np.random.default_rng(5)
        srcs = rng.integers(0, n, size=40)
        dsts = rng.integers(0, n, size=40)
        paths, lens = tables.shortest_paths_batch(srcs, dsts)
        assert paths.dtype == np.int32
        for i in range(srcs.size):
            scalar = tables.shortest_path(int(srcs[i]), int(dsts[i]))
            assert list(paths[i, : lens[i]]) == scalar


class TestCandidateBuilderDtypeEdges:
    """Hand-built graphs at the builder's dtype and shape boundaries."""

    GRAPHS = {
        # diameter 199: the comparison stays int16 instead of int8
        "long-path": Graph(200, [(i, i + 1) for i in range(199)]),
        # 300 candidates between the two hubs: uint16 counts and weights
        "wide-bipartite": Graph(
            302, [(h, leaf) for h in (0, 1) for leaf in range(2, 302)]
        ),
        # no neighbor slot at all
        "single-router": Graph(1, []),
    }

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_matches_per_source_oracle(self, name):
        graph = self.GRAPHS[name]
        tables = RoutingTables(Topology(name, graph, 1))
        indptr, data = compact_candidate_csr(tables)
        ref_indptr, ref_data = per_source_candidate_csr(graph, tables.dist)
        assert np.array_equal(indptr, ref_indptr)
        assert np.array_equal(data, ref_data)

    def test_wide_counts_are_uint16(self):
        graph = self.GRAPHS["wide-bipartite"]
        tab = RoutingTables(Topology("wide", graph, 1))._candidate_table()
        assert tab.count.dtype == np.uint16
        assert tab.count[0 * graph.n + 1] == 300

    @pytest.mark.parametrize(
        "narrow,size,dtype",
        [
            # router ids 0..n-1 and -1: int16 up to its max, then int32
            (_value_dtype, 32_767, np.int16),
            (_value_dtype, 32_768, np.int32),
            # candidate counts up to the max degree: uint8, uint16, uint32
            (_count_dtype, 255, np.uint8),
            (_count_dtype, 256, np.uint16),
            (_count_dtype, 65_535, np.uint16),
            (_count_dtype, 65_536, np.uint32),
        ],
    )
    def test_narrow_dtypes_switch_at_their_ceilings(self, narrow, size, dtype):
        assert narrow(size) is dtype
