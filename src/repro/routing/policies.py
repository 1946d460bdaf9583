"""Routing policies (paper Section VII).

A policy turns ``(src_router, dst_router)`` into a concrete router path at
injection time.  Adaptive policies additionally inspect the injecting
router's local output-queue state through the
:class:`CongestionView` protocol the simulator provides — the same
information a UGAL-L router has in hardware (local buffer occupancies).

Implemented policies:

* :class:`MinimalRouting` — unique/ECMP shortest paths.
* :class:`ValiantRouting` — classic two-phase Valiant through a uniformly
  random intermediate router (up to 4 hops on a diameter-2 network).
* :class:`CompactValiantRouting` — the paper's PolarFly-specific variant:
  the intermediate is drawn from the *neighborhood* of the source (3-hop
  worst case), applied only when source and destination are not adjacent.
* :class:`UGALRouting` — UGAL-L: pick min vs Valiant by comparing
  queue-depth x hop-count products.
* :class:`UGALPFRouting` — the paper's UGAL_PF: Compact Valiant plus an
  adaptation threshold (divert only when the min-path output buffer is
  more than ``threshold`` full).
* :class:`FatTreeNCARouting` — up/down least-common-ancestor routing for
  k-ary n-trees (the FT-NCA baseline).

``select_routes`` is each policy's one route selector: both engines
call it once per cycle with the batch of injections, and it returns a
padded ``(paths, lens)`` pair.  It **defines each policy's RNG stream**:
which bounded draws are made, in which order.
The flat engine's C kernel carries a mirror of the five vectorized
bodies and of FT-NCA's packet-by-packet one (``kselect`` in
:mod:`repro.flitsim._kernel`) that a policy reaches by asking its
``congestion`` argument (:func:`_accelerated`);
the numpy bodies here stay the definition, the oracle the reference
engine runs, and the only path without a compiler.  Changing a draw
here means changing the C mirror in the same commit — the twin tests in
``tests/test_kselect.py`` compare the generator state after every call.
"""

from __future__ import annotations

import math
import operator
from typing import Protocol

import numpy as np

from repro.experiments.registry import POLICIES
from repro.routing.tables import RoutingTables
from repro.topologies.fattree import FatTree

__all__ = [
    "CongestionView",
    "RoutingPolicy",
    "MinimalRouting",
    "ValiantRouting",
    "CompactValiantRouting",
    "UGALRouting",
    "UGALPFRouting",
    "FatTreeNCARouting",
    "iter_routes",
]


class CongestionView(Protocol):
    """Local congestion info a router can legally observe (credits)."""

    def output_occupancies(self, routers, next_hops) -> np.ndarray:  # pragma: no cover - abstract
        """Flits occupying each ``routers[i]``'s output buffer toward
        ``next_hops[i]`` (parallel index arrays)."""
        ...

    def output_capacity(self) -> int:  # pragma: no cover - abstract
        """Total flit capacity of one output buffer (all VCs)."""
        ...


class _ZeroCongestion:
    """Congestion view used outside a simulation (everything idle)."""

    def output_occupancies(self, routers, next_hops) -> np.ndarray:
        return np.zeros(len(routers), dtype=np.int64)

    def output_capacity(self) -> int:
        return 1


ZERO_CONGESTION = _ZeroCongestion()


# ----------------------------------------------------------------------
# Route-batch plumbing: a batch is a padded ``(paths, lens)`` pair
# ----------------------------------------------------------------------
def iter_routes(routes):
    """Iterate a ``(paths, lens)`` route batch as per-packet router tuples."""
    paths, lens = routes
    for i in range(lens.size):
        yield tuple(paths[i, : lens[i]])


def _splice(first_mat, first_lens, second_mat, second_lens) -> tuple:
    """Join two path batches at their shared middle router, row-wise."""
    k = first_lens.size
    lens = first_lens + second_lens - 1
    width = int(lens.max())
    paths = np.zeros((k, width), dtype=np.result_type(first_mat, second_mat))
    paths[:, : first_mat.shape[1]] = first_mat
    cols = np.arange(second_mat.shape[1])[None, :]
    pos = (first_lens - 1)[:, None] + cols
    valid = cols < second_lens[:, None]
    rows = np.broadcast_to(np.arange(k)[:, None], pos.shape)
    paths[rows[valid], pos[valid]] = second_mat[valid]
    return paths, lens


def _overlay(base_mat, base_lens, rows, alt_mat, alt_lens) -> tuple:
    """Replace ``rows`` of a path batch with rows of an alternative."""
    if rows.size == 0:
        return base_mat, base_lens
    if alt_mat.shape[1] > base_mat.shape[1]:
        wide = np.zeros((base_mat.shape[0], alt_mat.shape[1]), dtype=base_mat.dtype)
        wide[:, : base_mat.shape[1]] = base_mat
        base_mat = wide
    base_mat[rows, : alt_mat.shape[1]] = alt_mat
    base_lens[rows] = alt_lens
    return base_mat, base_lens


def _accelerated(cls, policy, srcs, dsts, rng, congestion):
    """``congestion``'s compiled run of ``cls.select_routes``, or None.

    A congestion view may offer ``accelerated_select(policy, srcs, dsts,
    rng)`` (the flat engine with its C kernel does): the same batch
    protocol — same draws from ``rng``'s bit stream, same routes, as a
    ``(paths, lens)`` pair — or ``None`` to decline.  Only instances of
    exactly ``cls`` ask; a subclass may override any step the compiled
    mirror hard-codes.  The numpy body below each call site stays the
    definition (and what the reference engine runs).
    """
    if type(policy) is cls:
        select = getattr(congestion, "accelerated_select", None)
        if select is not None:
            return select(policy, srcs, dsts, rng)
    return None


class RoutingPolicy:
    """Base class: owns the tables and the path-selection entry point."""

    #: worst-case hops this policy can produce (used to size VCs)
    max_hops: int = 0

    def __init__(self, tables: RoutingTables):
        self.tables = tables
        self.topo = tables.topo

    def retable(self, tables: RoutingTables) -> None:
        """Repoint at repaired tables (the dynamic fault-repair hook).

        Swaps tables *and* topology view (so neighbor draws see the
        degraded graph) and lets :attr:`max_hops` only **ratchet up**:
        VC budgets and route buffers are sized once at simulator
        construction and must stay valid across every fault epoch.  The
        fault subsystem pre-walks all epoch tables through here before
        the run so the ceiling is known up front.
        """
        self.tables = tables
        self.topo = tables.topo

    def select_routes(  # pragma: no cover - abstract
        self, srcs, dsts, rng, congestion: CongestionView = ZERO_CONGESTION
    ) -> tuple:
        """Routes for a batch of same-cycle injections, in order.

        The simulator's per-cycle entry point (both engines call it once
        with all Bernoulli winners) and the method that *defines* a
        policy's RNG-consumption protocol.  Returns ``(paths, lens)``: a
        padded ``[k, width]`` matrix whose row ``i`` holds packet ``i``'s
        router path ``[src, ..., dst]`` in columns ``0..lens[i]-1``, and
        the ``k`` path lengths.
        """
        raise NotImplementedError


class MinimalRouting(RoutingPolicy):
    """Table-based minimal routing (unique path on PolarFly)."""

    def __init__(self, tables: RoutingTables):
        super().__init__(tables)
        self.max_hops = tables.max_distance

    def retable(self, tables: RoutingTables) -> None:
        super().retable(tables)
        self.max_hops = max(self.max_hops, tables.max_distance)

    def select_routes(self, srcs, dsts, rng, congestion=ZERO_CONGESTION):
        routes = _accelerated(MinimalRouting, self, srcs, dsts, rng, congestion)
        if routes is not None:
            return routes
        return self.tables.shortest_paths_batch(srcs, dsts, rng)


class ValiantRouting(RoutingPolicy):
    """Valiant load balancing through a uniform random intermediate."""

    def __init__(self, tables: RoutingTables):
        super().__init__(tables)
        self._require_intermediates(tables)
        self.max_hops = 2 * tables.max_distance

    def retable(self, tables: RoutingTables) -> None:
        self._require_intermediates(tables)
        RoutingPolicy.retable(self, tables)
        self.max_hops = max(self.max_hops, 2 * tables.max_distance)

    def _require_intermediates(self, tables: RoutingTables) -> None:
        """Reject tables on which the intermediate redraw cannot end.

        An intermediate must be alive and differ from both source and
        destination; with fewer than three alive routers the rejection
        loop below (and its C mirror) would spin forever.
        """
        alive = tables.alive_routers
        count = tables.topo.num_routers if alive is None else int(alive.sum())
        if count < 3:
            raise ValueError(
                f"{type(self).__name__} needs at least 3 alive routers to "
                f"draw an intermediate, got {count}"
            )

    def random_intermediates(self, srcs, dsts, rng) -> np.ndarray:
        """Batched intermediates: draw all, redraw collisions until clean.

        On fault-epoch tables, dead routers (``alive_routers`` False)
        are redrawn too — the detour must stay on the surviving fabric.
        The redraw loop consumes the RNG identically when every router
        is alive, so fault-free streams are unchanged.
        """
        n = self.topo.num_routers
        alive = self.tables.alive_routers
        mids = rng.integers(n, size=srcs.size)
        while True:
            bad = (mids == srcs) | (mids == dsts)
            if alive is not None:
                bad |= ~alive[mids]
            bad = np.flatnonzero(bad)
            if bad.size == 0:
                return mids
            mids[bad] = rng.integers(n, size=bad.size)

    def select_routes(self, srcs, dsts, rng, congestion=ZERO_CONGESTION):
        routes = _accelerated(ValiantRouting, self, srcs, dsts, rng, congestion)
        if routes is not None:
            return routes
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        if srcs.size == 0:
            return np.empty((0, 1), np.int64), np.empty(0, np.int64)
        mids = self.random_intermediates(srcs, dsts, rng)
        first = self.tables.shortest_paths_batch(srcs, mids, rng)
        second = self.tables.shortest_paths_batch(mids, dsts, rng)
        return _splice(*first, *second)


class CompactValiantRouting(ValiantRouting):
    """Compact Valiant (Section VII-B): intermediate from ``N(src)``.

    Caps the detour at 3 hops on a diameter-2 network instead of Valiant's
    4.  When source and destination are adjacent the neighbor detour could
    bounce packets back through the source, so the general Valiant
    intermediate is used instead (as the paper prescribes).

    ``max_hops`` is therefore the *general* Valiant bound ``2 * diameter``:
    the neighbor detour itself needs only ``1 + diameter``, but the
    adjacent-pair fallback can use the full Valiant worst case (on the
    paper's diameter-2 networks both bounds are 4).
    """

    def __init__(self, tables: RoutingTables):
        super().__init__(tables)
        self.max_hops = 2 * tables.max_distance

    def select_routes(self, srcs, dsts, rng, congestion=ZERO_CONGESTION):
        routes = _accelerated(CompactValiantRouting, self, srcs, dsts, rng, congestion)
        if routes is not None:
            return routes
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        k = srcs.size
        if k == 0:
            return np.empty((0, 1), np.int64), np.empty(0, np.int64)
        dist = self.tables.dist[srcs, dsts].astype(np.int64)
        far = np.flatnonzero(dist > 1)
        adj = np.flatnonzero(dist <= 1)
        lens = np.empty(k, dtype=np.int64)
        pieces = []
        if far.size:
            # Neighbor intermediate (cannot equal dst: dist > 1) + tail.
            graph = self.topo.graph
            src_far = srcs[far]
            start = graph.indptr[src_far]
            degree = graph.indptr[src_far + 1] - start
            mids = graph.indices[start + rng.integers(degree)]
            tail_mat, tail_lens = self.tables.shortest_paths_batch(
                mids, dsts[far], rng
            )
            far_mat = np.empty((far.size, tail_mat.shape[1] + 1), dtype=np.int64)
            far_mat[:, 0] = src_far
            far_mat[:, 1:] = tail_mat
            lens[far] = tail_lens + 1
            pieces.append((far, far_mat))
        if adj.size:
            # Adjacent pairs fall back to general Valiant, batched.
            adj_mat, adj_lens = ValiantRouting.select_routes(
                self, srcs[adj], dsts[adj], rng, congestion
            )
            lens[adj] = adj_lens
            pieces.append((adj, adj_mat))
        paths = np.zeros((k, int(lens.max())), dtype=np.int64)
        for rows, mat in pieces:
            paths[rows, : mat.shape[1]] = mat
        return paths, lens


class UGALRouting(RoutingPolicy):
    """UGAL-L: min vs Valiant chosen by local queue x hop products.

    The packet takes the Valiant path iff
    ``occ(min_port) * H_min > occ(val_port) * H_val + bias`` — the
    standard UGAL comparison with a small min-path bias to avoid
    needless diversion at low load.  ``bias`` must be an integer
    (anything ``operator.index`` accepts); the C route selector
    compares in integers too.
    """

    def __init__(self, tables: RoutingTables, bias: int = 1):
        try:
            bias = operator.index(bias)
        except TypeError:
            raise ValueError(f"bias must be an integer, got {bias!r}") from None
        super().__init__(tables)
        self.valiant = ValiantRouting(tables)
        self.bias = bias
        self.max_hops = self.valiant.max_hops

    def retable(self, tables: RoutingTables) -> None:
        RoutingPolicy.retable(self, tables)
        self.valiant.retable(tables)
        self.max_hops = max(self.max_hops, self.valiant.max_hops)

    def _valiant_candidates_batch(self, srcs, dsts, rng, congestion):
        return self.valiant.select_routes(srcs, dsts, rng, congestion)

    def select_routes(self, srcs, dsts, rng, congestion=ZERO_CONGESTION):
        routes = _accelerated(UGALRouting, self, srcs, dsts, rng, congestion)
        if routes is not None:
            return routes
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        if srcs.size == 0:
            return np.empty((0, 1), np.int64), np.empty(0, np.int64)
        min_mat, min_lens = self.tables.shortest_paths_batch(srcs, dsts, rng)
        cand = np.flatnonzero(min_lens > 1)
        if cand.size == 0:
            return min_mat, min_lens
        val_mat, val_lens = self._valiant_candidates_batch(
            srcs[cand], dsts[cand], rng, congestion
        )
        q_min = congestion.output_occupancies(srcs[cand], min_mat[cand, 1])
        q_val = congestion.output_occupancies(srcs[cand], val_mat[:, 1])
        divert = q_min * (min_lens[cand] - 1) > q_val * (val_lens - 1) + self.bias
        return _overlay(
            min_mat, min_lens, cand[divert], val_mat[divert], val_lens[divert]
        )


class UGALPFRouting(UGALRouting):
    """UGAL_PF (Section VII-C): Compact Valiant + adaptation threshold.

    Divert to the (compact) Valiant path only when the min-path output
    buffer is more than ``threshold`` (default 2/3) full *and* the UGAL
    queue comparison still favors the detour.  ``threshold`` must be
    finite and >= 0 (above 1 the policy never diverts).
    """

    def __init__(self, tables: RoutingTables, threshold: float = 2.0 / 3.0, bias: int = 1):
        threshold = float(threshold)
        if not (math.isfinite(threshold) and threshold >= 0):
            raise ValueError(
                f"threshold must be finite and >= 0, got {threshold!r}"
            )
        super().__init__(tables, bias=bias)
        self.compact = CompactValiantRouting(tables)
        self.threshold = threshold
        self.max_hops = self.compact.max_hops

    def retable(self, tables: RoutingTables) -> None:
        super().retable(tables)
        self.compact.retable(tables)
        self.max_hops = max(self.max_hops, self.compact.max_hops)

    def _valiant_candidates_batch(self, srcs, dsts, rng, congestion):
        return self.compact.select_routes(srcs, dsts, rng, congestion)

    def select_routes(self, srcs, dsts, rng, congestion=ZERO_CONGESTION):
        routes = _accelerated(UGALPFRouting, self, srcs, dsts, rng, congestion)
        if routes is not None:
            return routes
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        if srcs.size == 0:
            return np.empty((0, 1), np.int64), np.empty(0, np.int64)
        min_mat, min_lens = self.tables.shortest_paths_batch(srcs, dsts, rng)
        multi = np.flatnonzero(min_lens > 1)
        if multi.size == 0:
            return min_mat, min_lens
        occ = congestion.output_occupancies(srcs[multi], min_mat[multi, 1])
        over = occ > self.threshold * max(congestion.output_capacity(), 1)
        cand = multi[over]
        if cand.size == 0:
            return min_mat, min_lens
        val_mat, val_lens = self._valiant_candidates_batch(
            srcs[cand], dsts[cand], rng, congestion
        )
        q_min = occ[over]
        q_val = congestion.output_occupancies(srcs[cand], val_mat[:, 1])
        divert = q_min * (min_lens[cand] - 1) > q_val * (val_lens - 1) + self.bias
        return _overlay(
            min_mat, min_lens, cand[divert], val_mat[divert], val_lens[divert]
        )


class FatTreeNCARouting(RoutingPolicy):
    """Nearest-common-ancestor up/down routing on a k-ary n-tree.

    Up-hops pick a uniformly random parent (the tree's full path
    diversity); once at the NCA level the down path is digit-determined.
    Both endpoints must be level-0 (edge) switches.
    """

    def __init__(self, tables: RoutingTables):
        if not isinstance(tables.topo, FatTree):
            raise TypeError("FatTreeNCARouting requires a FatTree topology")
        super().__init__(tables)
        self.ft: FatTree = tables.topo
        self.max_hops = 2 * (self.ft.n_levels - 1)
        # Per-switch level and up-neighbours (ascending id, the CSR
        # order), built once: the numpy body walks packet by packet.
        graph = self.ft.graph
        self._level = np.arange(graph.n) // self.ft.switches_per_level
        self._ups = []
        for s in range(graph.n):
            nbrs = graph.neighbors(s)
            self._ups.append(
                nbrs[self._level[nbrs] == self._level[s] + 1].tolist()
            )

    def retable(self, tables: RoutingTables) -> None:
        raise NotImplementedError(
            "dynamic fault repair is not supported for FT-NCA routing"
        )

    def select_routes(self, srcs, dsts, rng, congestion=ZERO_CONGESTION):
        routes = _accelerated(FatTreeNCARouting, self, srcs, dsts, rng, congestion)
        if routes is not None:
            return routes
        # Packet by packet, in batch order: one parent draw per up-hop.
        level = self._level
        walked = []
        for src, dst in zip(map(int, srcs), map(int, dsts)):
            path = [src]
            cur = src
            # Ascend with random parent choice.
            for _ in range(self.ft.nca_level(src, dst)):
                ups = self._ups[cur]
                cur = ups[int(rng.integers(len(ups)))]
                path.append(cur)
            # Descend: at each level pick the unique child on a shortest
            # path to dst (digit-determined).
            while cur != dst:
                hops = self.tables.min_next_hops(cur, dst)
                cur = int(hops[level[hops] == level[cur] - 1][0])
                path.append(cur)
            walked.append(path)
        lens = np.fromiter(map(len, walked), count=len(walked), dtype=np.int64)
        paths = np.zeros((lens.size, int(lens.max(initial=1))), dtype=np.int64)
        for row, path in zip(paths, walked):
            row[: len(path)] = path
        return paths, lens


# ----------------------------------------------------------------------
# Spec registrations — factories take (tables, **spec kwargs)
# ----------------------------------------------------------------------
@POLICIES.register("min")
def _min_from_spec(tables) -> MinimalRouting:
    return MinimalRouting(tables)


@POLICIES.register("valiant")
def _valiant_from_spec(tables) -> ValiantRouting:
    return ValiantRouting(tables)


@POLICIES.register("compact-valiant")
def _compact_valiant_from_spec(tables) -> CompactValiantRouting:
    return CompactValiantRouting(tables)


@POLICIES.register("ugal", example="ugal:bias=1")
def _ugal_from_spec(tables, bias: int = 1) -> UGALRouting:
    return UGALRouting(tables, bias=bias)


@POLICIES.register("ugal-pf", example="ugal-pf:bias=1,threshold=0.5")
def _ugal_pf_from_spec(tables, threshold: float = 2.0 / 3.0, bias: int = 1) -> UGALPFRouting:
    return UGALPFRouting(tables, threshold=threshold, bias=bias)


@POLICIES.register("ftnca")
def _ftnca_from_spec(tables) -> FatTreeNCARouting:
    return FatTreeNCARouting(tables)
