"""Unit tests for the CSR graph kernel."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import bfs_distances_reference

from repro.utils.graph import Graph


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def random_graph(rng, n, degree):
    """~``degree * n / 2`` random edges: isolated vertices and several
    components at low degree."""
    pairs = rng.integers(0, max(n, 1), size=(int(degree * n / 2), 2))
    return Graph(n, pairs[pairs[:, 0] != pairs[:, 1]])


def _assert_matches_reference(g, sources, dtype):
    """Rows equal the per-source oracle, or the BFS raises exactly when
    the oracle's distances overflow ``dtype``."""
    rows = range(g.n) if sources is None else [int(s) for s in sources]
    want = np.array(
        [bfs_distances_reference(g, s) for s in rows], dtype=np.int64
    ).reshape(len(rows), g.n)
    ceiling = np.iinfo(dtype).max
    if want.size and want.max() > ceiling:
        with pytest.raises(OverflowError, match=f"level {ceiling + 1} "):
            g.all_pairs_distances(sources, dtype=dtype)
        return
    got = g.all_pairs_distances(sources, dtype=dtype)
    assert got.dtype == dtype and got.shape == want.shape
    assert np.array_equal(got, want)


class TestConstruction:
    def test_empty(self):
        g = Graph(3, [])
        assert g.num_edges == 0
        assert g.degree().tolist() == [0, 0, 0]

    def test_dedup_and_symmetry(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_edge_array_is_the_row_wise_unique(self):
        """The scalar-key dedupe keeps ``np.unique(axis=0)``'s rows, order and layout."""
        from repro.experiments.registry import TOPOLOGIES

        rng = np.random.default_rng(3)
        inputs = [
            (5, np.array([[3, 1], [1, 3], [0, 4], [1, 3], [4, 0], [2, 1], [0, 1]])),
        ]
        for name in TOPOLOGIES.names():
            g = TOPOLOGIES.create(TOPOLOGIES.example(name)).graph
            e = g.edges()
            # Every edge once, a third of them again reversed, shuffled.
            inputs.append((g.n, rng.permutation(np.concatenate([e, e[::3, ::-1]]))))
        for n, rows in inputs:
            got = Graph(n, rows).edges()
            want = np.unique(np.sort(rows, axis=1), axis=0)
            assert got.dtype == want.dtype == np.int64
            assert got.flags.c_contiguous and got.shape == want.shape
            assert np.array_equal(got, want)
            assert np.array_equal(Graph(n, [tuple(r) for r in rows.tolist()]).edges(), want)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 5)])

    def test_neighbors_sorted(self):
        g = Graph(4, [(2, 0), (2, 3), (2, 1)])
        assert g.neighbors(2).tolist() == [0, 1, 3]

    def test_from_adjacency_matrix_roundtrip(self):
        g = cycle_graph(6)
        g2 = Graph.from_adjacency_matrix(g.adjacency_matrix())
        assert np.array_equal(g.edges(), g2.edges())

    def test_adjacency_matrix_symmetric(self):
        g = cycle_graph(5)
        adj = g.adjacency_matrix()
        assert np.array_equal(adj, adj.T)
        assert not adj.diagonal().any()


class TestDistances:
    def test_bfs_path_graph(self):
        g = path_graph(5)
        assert g.bfs_distances(0).tolist() == [0, 1, 2, 3, 4]

    def test_bfs_disconnected(self):
        g = Graph(4, [(0, 1)])
        d = g.bfs_distances(0)
        assert d[1] == 1 and d[2] == -1 and d[3] == -1

    def test_diameter(self):
        assert path_graph(6).diameter() == 5
        assert cycle_graph(6).diameter() == 3
        assert complete_graph(5).diameter() == 1

    def test_diameter_disconnected(self):
        assert Graph(3, [(0, 1)]).diameter() == -1

    def test_aspl_complete(self):
        assert complete_graph(4).average_shortest_path_length() == 1.0

    def test_aspl_path(self):
        # P3: distances 1,2,1,1,2,1 over 6 ordered pairs -> 4/3
        assert path_graph(3).average_shortest_path_length() == pytest.approx(4 / 3)

    def test_aspl_disconnected_inf(self):
        assert Graph(3, [(0, 1)]).average_shortest_path_length() == float("inf")

    def test_eccentricity(self):
        g = path_graph(5)
        assert g.eccentricity(0) == 4
        assert g.eccentricity(2) == 2

    def test_connectivity(self):
        assert cycle_graph(4).is_connected()
        assert not Graph(4, [(0, 1), (2, 3)]).is_connected()

    def test_sampled_diameter_lower_bound(self):
        g = cycle_graph(20)
        full = g.diameter()
        sampled = g.diameter(sample=5, rng=0)
        assert sampled <= full


class TestBatchedBFS:
    """all_pairs_distances is pinned bit-identical to the seed BFS."""

    def _assert_golden(self, g):
        expected = np.stack(
            [bfs_distances_reference(g, s) for s in range(g.n)]
        ) if g.n else np.empty((0, 0), dtype=np.int64)
        got = g.all_pairs_distances()
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)

    def test_golden_on_basic_graphs(self):
        for g in (path_graph(7), cycle_graph(9), complete_graph(5), Graph(4, [])):
            self._assert_golden(g)

    def test_golden_on_disconnected_graph(self):
        self._assert_golden(Graph(7, [(0, 1), (1, 2), (4, 5)]))

    def test_golden_on_registry_topologies(self):
        from repro.experiments.registry import TOPOLOGIES

        for name in TOPOLOGIES.names():
            topo = TOPOLOGIES.create(TOPOLOGIES.example(name))
            self._assert_golden(topo.graph)

    def test_golden_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 50))
            pairs = rng.integers(0, n, size=(2 * n, 2))
            g = Graph(n, pairs[pairs[:, 0] != pairs[:, 1]])
            self._assert_golden(g)

    def test_source_subset_matches_rows(self):
        g = cycle_graph(12)
        sources = [3, 0, 7]
        sub = g.all_pairs_distances(sources)
        assert np.array_equal(sub, g.all_pairs_distances()[sources])
        assert np.array_equal(sub, g.distances_from(sources))

    def test_dtype_and_empty_sources(self):
        g = path_graph(5)
        d16 = g.all_pairs_distances(dtype=np.int16)
        assert d16.dtype == np.int16
        assert np.array_equal(d16, g.all_pairs_distances())
        assert g.all_pairs_distances(np.empty(0, np.int64)).shape == (0, 5)

    def test_dtype_ceiling_raises_loudly(self):
        # Level 128 does not fit int8: numpy >= 2 used to die with a bare
        # "Python integer 128 out of bounds", numpy < 2 wrapped silently
        # into negative ("unreachable") distances.
        g = path_graph(200)
        with pytest.raises(OverflowError, match=r"level 128 .*int8 \(max 127\)"):
            g.all_pairs_distances([0], dtype=np.int8)
        assert g.all_pairs_distances([0], dtype=np.int16)[0, -1] == 199
        # 127 itself still fits.
        assert path_graph(128).all_pairs_distances([0], dtype=np.int8)[0, -1] == 127

    def test_sources_across_word_boundaries(self):
        # 63/64/65/129 sources: a partial word, one full word, a word and
        # one bit, two words and one bit — on a graph with isolated
        # vertices and several components.
        g = random_graph(np.random.default_rng(5), 150, 1.2)
        for k in (63, 64, 65, 129):
            sources = np.random.default_rng(k).integers(0, g.n, size=k)
            _assert_matches_reference(g, sources, np.int16)

    def test_word_bit_order(self):
        # Bit j of word j >> 6 is source j: on a path the distance from
        # source s to t is |s - t|, so a misplaced bit or byte shows up
        # as a row with the wrong minimum.
        g = path_graph(70)
        sources = np.arange(68, 3, -1)
        got = g.all_pairs_distances(sources)
        assert np.array_equal(got, np.abs(sources[:, None] - np.arange(70)))

    def test_vertex_block_boundaries(self, monkeypatch):
        # One vertex row per block, a ragged last block and one block all
        # give the same matrix (and the same diameter/ASPL blocks).
        g = random_graph(np.random.default_rng(8), 130, 1.5)
        g = Graph(g.n, np.concatenate([g.edges(), [[0, 1], [1, 2]]]))
        want = np.stack([bfs_distances_reference(g, s) for s in range(g.n)])
        connected = path_graph(90)
        want_stats = connected.diameter_and_aspl()
        for rows in (1, 7, g.n + 3):
            monkeypatch.setattr(Graph, "_block_rows", lambda self, row_bytes: rows)
            assert np.array_equal(g.all_pairs_distances(), want)
            assert connected.diameter_and_aspl() == want_stats
            assert g.diameter_and_aspl() == (-1, float("inf"))

    @given(data=st.data())
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_matches_reference_property(self, data):
        """Any graph up to 200 vertices, any source multiset, any dtype."""
        n = data.draw(st.integers(0, 200), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        degree = data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 5.0]))
        chain = data.draw(st.integers(0, n), label="chain")
        k = data.draw(st.sampled_from([0, 1, 63, 64, 65, 129]) | st.integers(0, 300))
        every_source = data.draw(st.booleans(), label="all")
        dtype = data.draw(st.sampled_from([np.int8, np.int16, np.int64]))
        g = random_graph(rng, n, degree)
        if chain > 1:
            # A long path through part of the graph: deep BFS levels
            # (int8 overflows past 127).
            walk = rng.permutation(n)[:chain]
            g = Graph(n, np.concatenate([g.edges(), np.stack([walk[:-1], walk[1:]], 1)]))
        # Unsorted, with repeats, possibly empty.
        sources = None if every_source else rng.integers(0, max(n, 1), size=k if n else 0)
        _assert_matches_reference(g, sources, dtype)

    def test_bfs_distances_delegates(self):
        g = Graph(7, [(0, 1), (1, 2), (4, 5)])
        for s in range(7):
            assert np.array_equal(
                g.bfs_distances(s), bfs_distances_reference(g, s)
            )


class TestMutation:
    def test_remove_edges(self):
        g = cycle_graph(5)
        g2 = g.remove_edges([(0, 1)])
        assert g2.num_edges == 4
        assert not g2.has_edge(0, 1)
        # original untouched
        assert g.has_edge(0, 1)

    def test_remove_edges_either_orientation(self):
        g = cycle_graph(5)
        assert not g.remove_edges([(1, 0)]).has_edge(0, 1)

    def test_remove_edges_array_matches_iterable(self):
        g = complete_graph(6)
        doomed = np.array([[0, 1], [4, 2], [3, 5]])
        ga = g.remove_edges(doomed)
        gb = g.remove_edges([(0, 1), (2, 4), (5, 3)])
        assert np.array_equal(ga.edges(), gb.edges())
        assert ga.num_edges == g.num_edges - 3

    def test_remove_no_edges(self):
        g = cycle_graph(5)
        assert np.array_equal(g.remove_edges([]).edges(), g.edges())

    def test_remove_nonexistent_or_out_of_range_is_noop(self):
        g = Graph(5, [(2, 3), (0, 1)])
        # (1, 8) is out of range and must not alias edge (2, 3)'s key
        assert np.array_equal(g.remove_edges([(1, 8)]).edges(), g.edges())
        assert np.array_equal(g.remove_edges([(0, 4)]).edges(), g.edges())

    def test_subgraph_mask(self):
        g = complete_graph(5)
        sub = g.subgraph_mask(np.array([True, True, True, False, False]))
        assert sub.n == 3
        assert sub.num_edges == 3

    def test_subgraph_mask_relabels(self):
        g = path_graph(6)
        sub = g.subgraph_mask(np.array([False, True, True, False, True, True]))
        # vertices 1-2 and 4-5 survive as 0-1 and 2-3
        assert sub.n == 4
        assert sub.has_edge(0, 1) and sub.has_edge(2, 3)
        assert not sub.has_edge(1, 2)

    def test_ndarray_constructor_matches_iterable(self):
        edges = [(4, 0), (1, 3), (2, 1), (1, 3)]
        g1 = Graph(5, edges)
        g2 = Graph(5, np.array(edges))
        assert np.array_equal(g1.edges(), g2.edges())
        with pytest.raises(ValueError):
            Graph(5, np.array([[0, 0]]))
        with pytest.raises(ValueError):
            Graph(5, np.array([[0, 9]]))
        with pytest.raises(ValueError):
            Graph(5, np.array([[0, 1, 2]]))


class TestStructure:
    def test_triangles_complete(self):
        assert len(complete_graph(4).triangles()) == 4

    def test_triangles_none_in_cycle(self):
        assert cycle_graph(6).triangles() == []

    def test_triangles_sorted_triples(self):
        for tri in complete_graph(5).triangles():
            assert tri[0] < tri[1] < tri[2]

    def test_4cycles_in_c4(self):
        assert cycle_graph(4).count_4cycles() == 1

    def test_4cycles_in_k4(self):
        assert complete_graph(4).count_4cycles() == 3

    def test_no_4cycles_in_triangle(self):
        assert complete_graph(3).count_4cycles() == 0
