"""Golden pins for the sparse (O(N^2)-free) scaling tier.

Every sparse structure that replaced a dense one is pinned against the
dense oracle it replaced:

* the CSR port map of :class:`~repro.flitsim.flatcore.FlatFabric`
  (sorted-neighbor searchsorted) against a scatter-built dense port
  matrix, plus the int16 ``rev_mat``;
* the compact candidate table — one sort-free builder that streams
  source-row blocks of the finished distance matrix, used by fresh
  builds and fault repair alike — against the seed per-source CSR
  oracle, on the topologies that actually carry ECMP ties or irregular
  degree, across row-block boundaries and on a fault epoch; its tie
  serving scan for every pick of every tied pair; plus a traced-memory
  ceiling (no N x N transient beyond the output) and a byte ceiling
  (nothing stored per tie);
* :class:`~repro.routing.tables.RowPatchedDist` against the equivalent
  dense matrix over its full indexing surface;
* and the headline structural guarantee: constructing the q=31 tier
  leaves no reachable array of N^2 elements wider than the int16
  distance matrix itself — no dense port matrix, no int64 candidate
  indptr, no dense congestion scratch.
"""

import gc
import tracemalloc
import types

import numpy as np
import pytest
from oracles import compact_candidate_csr, per_source_candidate_csr

from repro.experiments.registry import TOPOLOGIES
from repro.flitsim.flatcore import FlatFabric
from repro.routing.degraded import fault_epoch_tables, reroute_after_failures
from repro.routing.tables import RoutingTables, RowPatchedDist
from repro.utils.graph import Graph

SPECS = [
    "polarfly:conc=2,q=7",
    "polarfly:conc=2,q=11",
    "slimfly:conc=2,q=5",
    "fattree:k=4,n=2",
]
SPEC_IDS = [s.split(":")[0] + s.split("=")[-1] for s in SPECS]

#: PolarFly and SlimFly have no tied pair at all; these do, and the
#: three-level fat tree has irregular degree (exercises the CSR padding).
TIE_SPECS = {
    "polarstar3x5": "polarstar:conc=2,q=3,sq=5",
    "dragonfly4x2": "dragonfly:a=4,h=2,p=2",
    "dragonfly3x6": "dragonfly:a=3,h=6,p=2",
    "jellyfish57": "jellyfish:n=57,p=2,r=8,seed=7",
    "fattree3": "fattree:k=4,n=3",
}


@pytest.fixture(scope="module", params=SPECS, ids=SPEC_IDS)
def topo(request):
    return TOPOLOGIES.create(request.param)


@pytest.fixture(
    scope="module",
    params=SPECS + list(TIE_SPECS.values()),
    ids=SPEC_IDS + list(TIE_SPECS),
)
def cand_topo(request):
    return TOPOLOGIES.create(request.param)


#: tie-serving grid: the ECMP-free families (nothing to scan) next to
#: every family with ties
SERVE_SPECS = {
    "polarfly7": "polarfly:conc=2,q=7",
    "polarfly9": "polarfly:conc=2,q=9",
    "slimfly5": "slimfly:conc=2,q=5",
    **TIE_SPECS,
    "polarstar5x9": "polarstar:conc=2,q=5,sq=9",
}


def _assert_same_table(got, want):
    """The candidate table's three arrays equal in dtype and value."""
    for name in ("count", "first", "nbr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


def _dense_port_matrix(graph) -> np.ndarray:
    """The dense oracle: port_mat[u, v] = index of v among u's sorted
    neighbors, -1 for non-adjacent pairs."""
    port = np.full((graph.n, graph.n), -1, dtype=np.int64)
    for u in range(graph.n):
        nbrs = graph.neighbors(u)
        port[u, nbrs] = np.arange(nbrs.size)
    return port


class TestCsrPortMap:
    def test_ports_toward_matches_dense_oracle(self, topo):
        fab = FlatFabric(topo)
        oracle = _dense_port_matrix(topo.graph)
        src, dst = np.nonzero(oracle >= 0)
        assert np.array_equal(fab.ports_toward(src, dst), oracle[src, dst])

    def test_scalar_port_toward(self, topo):
        fab = FlatFabric(topo)
        oracle = _dense_port_matrix(topo.graph)
        src, dst = np.nonzero(oracle >= 0)
        for u, v in zip(src[::7], dst[::7]):
            assert fab.port_toward(int(u), int(v)) == oracle[u, v]

    def test_rev_mat_matches_oracle_and_is_int16(self, topo):
        fab = FlatFabric(topo)
        oracle = _dense_port_matrix(topo.graph)
        assert fab.rev_mat.dtype == np.int16
        for u in range(topo.num_routers):
            nbrs = topo.graph.neighbors(u)
            for p, v in enumerate(nbrs):
                # rev_mat[u, p]: the port of neighbor v that points back
                # at u — the upstream credit-return coordinate.
                assert fab.rev_mat[u, p] == oracle[v, u]

    def test_no_dense_port_matrix_attribute(self, topo):
        fab = FlatFabric(topo)
        assert not hasattr(fab, "port_mat")
        n = topo.num_routers
        # The CSR map is O(E), never O(N^2).
        assert fab.edge_keys.size == fab.adj_indices.size
        assert fab.edge_keys.size < n * n or n <= 2


class _Picks:
    """An rng stand-in whose one ``integers`` call returns set picks."""

    def __init__(self, picks):
        self.picks = picks

    def integers(self, high):
        assert high.shape == self.picks.shape
        assert (self.picks < high).all()
        return self.picks


def _assert_serves_every_pick(tables) -> int:
    """Every pick of every tied pair through ``next_hops`` equals the
    per-source oracle's candidate; returns the number of tied pairs."""
    tab = tables._candidate_table()
    indptr, data = per_source_candidate_csr(
        tables.topo.graph, np.asarray(tables.dist)
    )
    count = np.diff(indptr)
    assert np.array_equal(tab.count, count)
    tied = np.flatnonzero(count >= 2)
    sizes = count[tied]
    pairs = np.repeat(tied, sizes)
    pick = np.arange(pairs.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    got = tab.next_hops(pairs, _Picks(pick))
    assert np.array_equal(got, data[indptr[pairs] + pick])
    return tied.size


class TestFrontierCandidates:
    """The compact candidate table against its oracles."""

    def test_table_holds_count_first_nbr_only(self, cand_topo):
        tab = RoutingTables(cand_topo)._candidate_table()
        n = cand_topo.num_routers
        width = int(cand_topo.graph.degree().max())
        assert tab.count.dtype == np.uint8 and tab.count.shape == (n * n,)
        assert tab.first.dtype == tab.nbr.dtype == np.int16
        assert tab.nbr.shape == (n, width + 1)
        assert tab.nbytes() == 3 * n * n + 2 * n * (width + 1)

    def test_matches_per_source_oracle(self, cand_topo):
        tables = RoutingTables(cand_topo)
        indptr, data = compact_candidate_csr(tables)
        o_indptr, o_data = per_source_candidate_csr(
            cand_topo.graph, np.asarray(tables.dist)
        )
        assert np.array_equal(indptr, o_indptr)
        assert np.array_equal(data, o_data)

    def test_row_block_boundaries(self, cand_topo, monkeypatch):
        # One row per block, a prime number of rows (ragged last block)
        # and a single block must all emit the same arrays.
        want = RoutingTables(cand_topo)
        want._candidate_table()  # built lazily: build it before the patch
        for rows in (1, 7, cand_topo.num_routers + 3):
            monkeypatch.setattr(
                Graph, "_block_rows", lambda self, row_bytes: rows
            )
            got = RoutingTables(cand_topo)
            assert np.array_equal(got.dist, want.dist)
            _assert_same_table(got._candidate_table(), want._candidate_table())

    def test_next_hops_serve_matches_dense_csr(self, topo):
        tables = RoutingTables(topo)
        tab = tables._candidate_table()
        indptr, data = compact_candidate_csr(tables)
        n = topo.num_routers
        pairs = np.random.default_rng(9).integers(0, n * n, size=500)
        rng1 = np.random.default_rng(5)
        rng2 = np.random.default_rng(5)
        got = tab.next_hops(pairs, rng1)
        counts = (indptr[pairs + 1] - indptr[pairs]).astype(np.int64)
        # Replay the identical RNG stream the dense serving path used:
        # one integers() call over the tied pairs only.
        picks = np.zeros(pairs.size, dtype=np.int64)
        multi = counts > 1
        if multi.any():
            picks[multi] = rng2.integers(counts[multi])
        have = counts > 0
        assert np.array_equal(got[have], data[indptr[pairs[have]] + picks[have]])
        assert (got[~have] == -1).all()
        # Deterministic serving returns the lowest-id candidate.
        det = tab.next_hops(pairs)
        assert np.array_equal(det[have], data[indptr[pairs[have]]])

    @pytest.mark.parametrize("spec", SERVE_SPECS.values(), ids=SERVE_SPECS)
    def test_tie_scan_serves_every_pick(self, spec):
        topo = TOPOLOGIES.create(spec)
        tied = _assert_serves_every_pick(RoutingTables(topo))
        assert (tied > 0) == (not spec.startswith(("polarfly", "slimfly")))

    @pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11, 13])
    def test_polarfly_has_no_ties(self, q):
        # Any two distinct vertices of ER_q share exactly one neighbor
        # (two polar lines meet in one point), so every pair has exactly
        # one minimal next hop and serving never scans — prime or not.
        topo = TOPOLOGIES.create(f"polarfly:conc=2,q={q}")
        n = topo.num_routers
        count = RoutingTables(topo)._candidate_table().count.reshape(n, n)
        assert count.max() == 1
        assert np.array_equal(count, 1 - np.eye(n, dtype=np.uint8))


class TestRowPatchedDist:
    @pytest.fixture()
    def patched(self):
        rng = np.random.default_rng(3)
        base = rng.integers(0, 9, size=(12, 12)).astype(np.int16)
        rows = np.array([2, 5, 9])
        patch = rng.integers(0, 9, size=(3, 12)).astype(np.int16)
        dense = base.copy()
        dense[rows] = patch
        return RowPatchedDist(base, rows, patch), dense

    def test_full_indexing_surface(self, patched):
        d, dense = patched
        assert d.shape == dense.shape and d.ndim == 2
        assert d.dtype == dense.dtype
        assert np.array_equal(np.asarray(d), dense)
        assert np.array_equal(d.dense(), dense)
        assert np.array_equal(d.copy(), dense)
        assert np.array_equal(d.astype(np.int64), dense.astype(np.int64))
        assert d.max() == dense.max()
        # Rows: scalar, array, bool mask, plain [i].
        assert np.array_equal(d[2, :], dense[2, :])
        assert np.array_equal(d[3, :], dense[3, :])
        assert np.array_equal(d[np.array([0, 2, 5, 11])], dense[[0, 2, 5, 11]])
        mask = np.zeros(12, dtype=bool)
        mask[[1, 2, 9]] = True
        assert np.array_equal(d[mask], dense[mask])
        # Columns and blocks.
        assert np.array_equal(d[:, 4], dense[:, 4])
        assert np.array_equal(
            d[:, np.array([0, 5])], dense[:, np.array([0, 5])]
        )
        ix = np.ix_(np.array([1, 2, 7]), np.array([0, 9]))
        assert np.array_equal(d[ix], dense[ix])
        # Pair gathers: arrays, scalar, broadcast scalar-vs-array.
        srcs = np.array([0, 2, 5, 9, 11])
        dsts = np.array([3, 3, 1, 0, 2])
        assert np.array_equal(d[srcs, dsts], dense[srcs, dsts])
        assert d[5, 7] == dense[5, 7]
        assert d[3, 7] == dense[3, 7]
        assert np.array_equal(d[2, dsts], dense[2, dsts])
        assert np.array_equal(d[srcs, 4], dense[srcs, 4])

    def test_base_is_never_written(self, patched):
        d, _ = patched
        before = d.base.copy()
        _ = d.dense()
        _ = d[np.arange(12)]
        _ = d[np.array([2, 3]), np.array([1, 1])]
        assert np.array_equal(d.base, before)

    def test_empty_patch_degenerates_to_base(self):
        base = np.arange(16, dtype=np.int16).reshape(4, 4)
        d = RowPatchedDist(base, np.empty(0, dtype=np.int64), base[:0])
        assert np.array_equal(np.asarray(d), base)
        assert d.max() == base.max()


class TestDegradedRowSparse:
    def test_incremental_repair_uses_row_patch(self):
        topo = TOPOLOGIES.create("polarfly:conc=2,q=7")
        base = RoutingTables(topo)
        failed = [tuple(topo.graph.edges()[0])]
        inc = reroute_after_failures(topo, failed, base=base)
        fresh = reroute_after_failures(topo, failed)
        assert isinstance(inc.dist, RowPatchedDist)
        # Patch rows are a strict subset: row-sparse, not a dense copy.
        assert 0 < inc.dist.rows.size < topo.num_routers
        assert np.array_equal(np.asarray(inc.dist), np.asarray(fresh.dist))

    @pytest.mark.parametrize("dead", [(), (5,)], ids=["links", "links+router"])
    def test_fault_epoch_candidates_match_fresh_build(self, dead):
        # Two failed links on a topology with ECMP ties, without and
        # with a dead router.  Links alone hand the builder the
        # RowPatchedDist view; a dead router perturbs every BFS row (so
        # the repair is dense) and adds all -1 rows and columns.
        topo = TOPOLOGIES.create(TIE_SPECS["polarstar3x5"])
        edges = topo.graph.edges()
        links = [tuple(edges[3]), tuple(edges[len(edges) // 2])]
        base = RoutingTables(topo)
        inc = fault_epoch_tables(topo, links, failed_routers=dead, base=base)
        fresh = fault_epoch_tables(topo, links, failed_routers=dead)
        assert isinstance(inc.dist, RowPatchedDist) == (not dead)
        assert np.array_equal(np.asarray(inc.dist), fresh.dist)
        assert (inc._candidate_table().count >= 2).any()
        _assert_same_table(inc._candidate_table(), fresh._candidate_table())
        # Every tied pick is served by scanning the epoch's own view: the
        # RowPatchedDist, or the dense matrix with its dead router.
        assert _assert_serves_every_pick(inc) > 0

    def test_untouched_failure_shares_base_dist(self):
        # Removing no edges keeps the identical dist object.
        topo = TOPOLOGIES.create("polarfly:conc=2,q=7")
        base = RoutingTables(topo)
        inc = reroute_after_failures(topo, np.empty((0, 2), dtype=np.int64),
                                     base=base)
        assert inc.dist is base.dist


def _reachable_arrays(*roots):
    """Every numpy array reachable from ``roots`` via gc edges.

    Classes, modules, and functions are pruned so the walk stays inside
    the object graph under test instead of the whole interpreter.
    """
    seen, out, stack = set(), [], list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            out.append(obj)
            continue
        if isinstance(
            obj,
            (str, bytes, int, float, bool, type(None), type,
             types.ModuleType, types.FunctionType, types.MethodType),
        ):
            continue
        stack.extend(gc.get_referents(obj))
    return out


def test_build_memory_stays_near_output_at_q31():
    """Traced peak of building ``RoutingTables(topo)``'s distance matrix
    and candidate table <= 3x what they hold, and
    the candidate table is ``count`` + ``first`` + ``nbr``, nothing more.

    The streamed build's transients are one BFS block and one comparison
    block (1.6x measured at q=31, 1.27x at q=53 where the blocks are a
    smaller share); an N x N int64 stamp, candidate triples or sort keys
    would read 17x, as the one-block fused build did.  q=53 (N=2863) is
    the sparse-tier size, where such a transient would cost 65 MB.
    PolarStar (9,17) has 1.1 M tied pairs, so any per-tie array that
    comes back breaks the byte ceiling by megabytes.
    """
    for spec in (
        "polarfly:conc=2,q=31",
        "polarfly:conc=2,q=53",
        "polarstar:conc=2,q=9,sq=17",
    ):
        topo = TOPOLOGIES.create(spec)
        tracemalloc.start()
        try:
            # The constructor builds nothing; the first use builds both
            # the distance matrix and the candidate table.
            tables = RoutingTables(topo)
            tab = tables._candidate_table()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, width = topo.num_routers, int(topo.graph.degree().max())
        assert tab.nbytes() <= 3 * n * n + 2 * n * (width + 1), spec
        output = tables.dist.nbytes + tab.nbytes()
        assert peak <= 3 * output, (spec, peak, output)


def test_no_wide_dense_structures_at_q31():
    """The sparse-tier guarantee, asserted on the q=31 default path.

    After building topology, routing tables (including the candidate
    table), and the flat fabric, the only structures allowed to scale as
    N^2 are the int16 distance matrix and equally narrow companions
    (<= 2 bytes/pair: uint8/int16 candidate count/first).  A dense port matrix,
    int64 candidate indptr, or dense congestion view would all trip the
    itemsize check.
    """
    topo = TOPOLOGIES.create("polarfly:conc=2,q=31")
    n = topo.num_routers
    tables = RoutingTables(topo)
    tables._candidate_table()
    fab = FlatFabric(topo)
    assert not hasattr(fab, "port_mat")
    offenders = [
        (a.shape, a.dtype)
        for a in _reachable_arrays(topo, tables, fab)
        if a.size >= n * n and a.itemsize > 2
    ]
    assert offenders == [], offenders
