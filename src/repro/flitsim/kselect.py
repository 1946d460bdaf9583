"""Host side of ``kselect``: route selection inside the compiled kernel.

:class:`KernelSelector` binds one policy's tables and one
:class:`~repro.flitsim.flatcore.FlatSimulator`'s occupancy state to the
``kselect`` entry of the C kernel (``_kernel.c``), which runs the batch
protocol of ``policy.select_routes`` — same draws from the same
``numpy.random.Generator`` bit stream, same routes — without the numpy
dispatch overhead that dominated small-N sweeps.

The numpy ``select_routes`` bodies in :mod:`repro.routing.policies`
*define* the stream; the C code mirrors them and this module decides,
from what it can observe, when the mirror applies.  It serves exactly
:class:`MinimalRouting`, :class:`ValiantRouting`,
:class:`CompactValiantRouting`, :class:`UGALRouting`,
:class:`UGALPFRouting` and :class:`FatTreeNCARouting` (exact types — a
subclass may override any step; FT-NCA on exactly the stock
:class:`~repro.topologies.fattree.FatTree` wiring) in one of two modes.

* *Coordinates*, when :func:`~repro.routing.algebraic.coordinates_apply`
  says the tables are an intact PolarFly's or PolarStar's: the vertex
  vectors and the field's add/sub/mul/inv tables are bound instead of
  any table, and C derives each distance (0, 1 for a zero dot product,
  else 2) and next hop (the destination, or the cross-product midpoint)
  from them.  ER_q has no tied pair, so the routes and the (absent)
  tie-break draws are the table walk's.  On PolarStar those are the
  structure graph's, and the supernode layer is bound beside them — the
  Paley adjacency, the matchings x -> eta x and x -> eta^-1 x, ER_q's
  CSR and a next-hop buffer as long as the radix — from which C derives
  each distance and lists each pair's tied next hops in ascending id
  order, the candidate table's, so the draw and the pick are the table
  walk's too.  Nothing N x N is read, so the tables are never built.
* *Tables*, for everything else, in the plain narrow layout:
  C-contiguous int16 ``dist``/``first`` and uint8 ``count``; a tied
  pair's other candidates are found by scanning the source's row of the
  graph CSR (``policy.topo`` is ``tables.topo``: ``retable`` swaps
  both), exactly as the table builder found them, so nothing else is
  bound.  A fault epoch's :class:`~repro.routing.tables.RowPatchedDist`
  binds as it is stored — the shared base matrix, the patch block and
  the row map between them — so a ``linkflap`` epoch selects in C like
  the intact network.

Anything else — table mode past the int16 layout (N >= 32768 off ER_q
and PolarStar, announced by one stderr line), a non-``Generator`` rng,
an empty batch, an FT-NCA endpoint above level 0 — declines with
``None`` and the caller's numpy body runs; no table is ever copied or
densified to fit.

The same binding serves whole-cycle spans (:mod:`repro.flitsim.kspan`):
:meth:`KernelSelector.bind` is everything :meth:`KernelSelector.select`
does short of the call, and ``kcycles`` runs the ``kselect`` body on the
struct it leaves behind.
"""

from __future__ import annotations

import numpy as np

from repro.flitsim._kernel import _diagnose, bind_struct, bitgen_of
from repro.routing.algebraic import coordinates_apply
from repro.routing.policies import (
    CompactValiantRouting,
    FatTreeNCARouting,
    MinimalRouting,
    UGALPFRouting,
    UGALRouting,
    ValiantRouting,
)
from repro.routing.tables import RowPatchedDist
from repro.topologies.fattree import FatTree
from repro.topologies.polarstar import PolarStar

__all__ = ["KernelSelector"]

#: exact policy type -> ``Selector.mode``
_MODES = {
    MinimalRouting: 0,
    ValiantRouting: 1,
    CompactValiantRouting: 2,
    UGALRouting: 3,
    UGALPFRouting: 4,
    FatTreeNCARouting: 5,
}

#: row scratch arrays behind the two path matrices (see ``scratch()`` in C)
_ROW_ARRAYS = 13


def _supernode_layer(ps: PolarStar) -> dict:
    """``Selector``'s PolarStar fields: Paley(sq), the two matchings,
    ER_q's CSR and a next-hop buffer as long as the radix."""
    f, sq = ps.supernode_field, ps.sq
    xs = f.elements()
    adj = np.zeros((sq, sq), dtype=bool)
    adj[xs[:, None], f.add(xs[:, None], f.squares()[None, :])] = True
    up = f.mul(ps.eta, xs)
    er = ps.structure.graph
    return {
        "sq": sq, "ps_adj": adj, "ps_up": up, "ps_down": np.argsort(up),
        "er_indptr": er.indptr, "er_indices": er.indices,
        "ps_hops": np.empty(int(ps.graph.degree().max()), np.int64),
    }


def _plain(arr, dtype) -> bool:
    return (
        type(arr) is np.ndarray
        and arr.dtype == dtype
        and arr.flags.c_contiguous
    )


class KernelSelector:
    """``kselect`` bound to one simulator and its policy.

    ``select(sim, srcs, dsts, rng)`` returns ``(paths, lens)`` **views
    of scratch the selector owns**, valid until the next call, or
    ``None`` to decline.  The binding follows ``policy.tables`` by
    identity, so a fault-epoch ``retable`` re-binds on the next call.
    The simulator is an argument,
    not a member: it owns the selector, and a back-reference would keep
    every finished simulator alive until a cycle collection.
    """

    @classmethod
    def for_policy(cls, sim) -> "KernelSelector | None":
        """A selector for ``sim.policy``, or None when its type has none."""
        mode = _MODES.get(type(sim.policy))
        return None if mode is None else cls(sim, mode)

    def __init__(self, sim, mode: int):
        self._kernel = sim._kernel
        self._sel = self._kernel.ffi.new("Selector *")
        # One column beyond a one-router stride: the UGAL occupancy
        # reads need each path's first hop even when it is over-long.
        self._width = max(sim.route_stride, 2)
        #: ``{field: view}`` keeping the bound arrays alive
        self._refs = {}
        self._bind(mode=mode, vc_depth=sim.config.vc_depth, width=self._width)
        self._tables = None
        self._usable = False
        self._rng = None
        self._bitgen = None
        # An open-loop cycle injects at most one packet per endpoint, so
        # only workload batches ever outgrow this.
        self._grow(max(64, sim.fab.E))

    def _grow(self, cap: int) -> None:
        """Scratch for ``cap`` packets: O(batch * stride) int32.

        Zeroed, not empty: route rows are copied out at the batch's
        longest length, so the columns past a shorter route's end reach
        the route buffer — dead there, but equal between equal runs.
        """
        self._cap = cap
        self._work = np.zeros(cap * (2 * self._width + _ROW_ARRAYS), np.int32)
        self._paths = self._work[: cap * self._width].reshape(cap, self._width)
        self._lens = self._work[2 * cap * self._width :][:cap]
        self._bind(cap=cap, work=self._work)

    def _bind(self, **fields) -> None:
        """Point ``Selector``'s ``fields`` at arrays, keeping them alive."""
        self._refs.update(bind_struct(self._kernel.ffi, self._sel, fields))

    def _bind_tables(self, policy) -> bool:
        """Point the C state at ``policy.tables``; False to decline."""
        tables = policy.tables
        n = tables.topo.num_routers
        # Adaptive policies draw detours from sub-policies; the C code
        # assumes the stock ones on the same tables.
        for name, kind in (
            ("valiant", ValiantRouting), ("compact", CompactValiantRouting),
        ):
            sub = getattr(policy, name, None)
            if sub is not None and (
                type(sub) is not kind or sub.tables is not tables
            ):
                return False
        graph = policy.topo.graph
        if not (
            _plain(graph.indptr, np.int64) and _plain(graph.indices, np.int64)
        ):
            return False
        # Every bind sets every mode's fields: a retable may switch modes.
        fields = {
            "n": n, "g_indptr": graph.indptr, "g_indices": graph.indices,
            "alive": tables.alive_routers, "dist": None, "patch": None,
            "patch_row": None, "first": None, "count": None, "q": 0,
            "pf_vec": None, "gf_add": None, "gf_sub": None, "gf_mul": None,
            "gf_inv": None, "sq": 0, "ps_adj": None, "ps_up": None,
            "ps_down": None, "er_indptr": None, "er_indices": None,
            "ps_hops": None,
        }
        if coordinates_apply(tables):
            # Distances and next hops from the vertex vectors (of a
            # PolarStar's structure graph, with its supernode layer): no
            # table is read, so none is built.
            er = tables.topo
            if type(er) is PolarStar:
                fields.update(_supernode_layer(er))
                er = er.structure
            field = er.field
            fields.update(
                q=field.q, pf_vec=er.vectors, gf_add=field._add,
                gf_sub=field._sub, gf_mul=field._mul, gf_inv=field._inv,
            )
            self._bind(**fields)
            return True
        dist = tables.dist
        if type(dist) is RowPatchedDist:
            # Bound as stored: C reads row r from the patch block when
            # patch_row[r] >= 0, else from the base.
            if dist.patch.shape != (dist.rows.size, n) or not (
                _plain(dist.patch, np.int16) and _plain(dist.row_of, np.int64)
            ):
                return False
            fields.update(patch=dist.patch, patch_row=dist.row_of)
            dist = dist.base
        if self._sel.mode == 5:
            # The C descent reads the stock k-ary n-tree wiring off the
            # switch ids.
            ft = policy.ft
            if type(ft) is not FatTree or ft is not tables.topo:
                return False
            fields.update(ft_k=ft.k, ft_spl=ft.switches_per_level)
        cands = tables._candidate_table()
        if dist.dtype != np.int16 or cands.first.dtype != np.int16:
            _diagnose(
                f"the routing tables of {n} routers hold {dist.dtype} "
                f"distances and {cands.first.dtype} next hops; kselect "
                "reads int16 tables",
                what="route-selection",
            )
            return False
        if not (
            _plain(dist, np.int16) and dist.shape == (n, n)
            and _plain(cands.first, np.int16) and _plain(cands.count, np.uint8)
        ):
            return False
        fields.update(dist=dist, first=cands.first, count=cands.count)
        self._bind(**fields)
        return True

    def bind(self, sim, rng, k: int) -> bool:
        """Ready the C state for a batch of up to ``k``; False to decline.

        Everything :meth:`select` needs before the call: the tables
        ``sim.policy`` points at now, the adaptive policies' bias and
        threshold, ``rng``'s bit stream, scratch for ``k`` packets.
        """
        policy = sim.policy
        if policy.tables is not self._tables:
            self._tables = policy.tables
            self._usable = self._bind_tables(policy)
        if not self._usable or type(rng) is not np.random.Generator:
            return False
        sel = self._sel
        if sel.mode in (3, 4):
            if type(policy.bias) is not int:
                return False
            sel.bias = policy.bias
            if sel.mode == 4:
                sel.over = policy.threshold * max(sim.output_capacity(), 1)
        if rng is not self._rng:
            self._rng = rng
            self._bitgen = bitgen_of(self._kernel.ffi, rng)
        if k > self._cap:
            self._grow(max(k, 2 * self._cap))
        return True

    def select(self, sim, srcs, dsts, rng):
        """``sim.policy.select_routes(srcs, dsts, rng, sim)`` in C, or None."""
        k = len(srcs)
        if k == 0 or len(dsts) != k or not self.bind(sim, rng, k):
            return None
        ffi = self._kernel.ffi
        srcs, dsts = np.asarray(srcs), np.asarray(dsts)
        n = self._sel.n
        if min(srcs.min(), dsts.min()) < 0 or max(srcs.max(), dsts.max()) >= n:
            raise IndexError(f"router id out of range [0, {n}) in batch")
        with rng.bit_generator.lock:
            max_len = self._kernel.lib.kselect(
                sim._st, self._sel, self._bitgen, k,
                ffi.from_buffer("int32_t[]", srcs.astype(np.int32)),
                ffi.from_buffer("int32_t[]", dsts.astype(np.int32)),
            )
        if max_len == -2:
            return None
        return self._paths[:k, : min(max_len, self._width)], self._lens[:k]
