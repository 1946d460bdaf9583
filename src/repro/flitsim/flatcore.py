"""Struct-of-arrays flit engine: the production simulator core.

Implements the cycle protocol of :mod:`repro.flitsim.engine` with flat
numpy state instead of per-flit Python objects, so a cycle is a handful
of vectorized array passes rather than an interpreter loop over every
queued flit:

* **Flit pool** — a flit is one 16-byte record of a preallocated
  structured array (next-pointer, packet id and ready cycle as int32,
  hop index and flit sequence number as int16), read through the
  ``pool_next`` / ``pool_pid`` / ``pool_ready`` / ``pool_hop`` /
  ``pool_seq`` field views.  A free list recycles rows; VOQs are
  intrusive linked lists through the ``next`` field, so
  enqueue/dequeue never allocates.  A flit takes its row only when it
  leaves its source FIFO, so the pool holds buffered flits alone.
* **Source FIFOs** — hold packets, not flits: each endpoint's FIFO is a
  chain of packet slots through ``pkt_next``, and ``src_seq`` numbers
  the head packet's next flit to feed.
* **Routes** — selected once per packet and stored in a flattened route
  buffer with per-packet offsets; per-flit state is just the hop index.
  With the C kernel, each hop's output port is resolved once per packet
  too, into the kernel-only ``route_port`` rows.  Per-packet records are
  sized to their ceilings (int32 route entries, destination, message and
  creation stamp, int8 length), each checked loudly.
* **VOQs** — one int32 record per queue, its tail's pool row plus one
  (0: empty), over a dense row-major index: VOQ (router, in_port,
  out_port) is record ``(router * O + out_port) * I + in_port``, so each
  (router, out) row's queues are contiguous (ejection is the last
  output column).  Chains are circular — the tail's ``next`` is the
  head — which gives O(1) enqueue, dequeue and emptiness checks from
  the one record.  Queue lengths live only in the per-(router, out)
  ``backlog`` sums (int32).
* **Credits** — one ``(router, out_port, vc)`` int16 array (``vc_depth``
  is held to the int16 maximum at construction); injection credits one
  array over endpoints.
* **Arbitration** — per (router, output) int32 round-robin pointers;
  each cycle the eligible VOQ heads are scored by circular distance
  from the pointer and winners fall out of one ``argmin``/``argsort``
  per cycle, the grant limits read off the fabric's port counts and
  concentrations (no per-row table).
* **Injection** — one Bernoulli draw per cycle across all endpoints and
  one batched destination draw (``TrafficPattern.dest_routers``), then
  the policy's batched ``select_routes``.
* **Congestion view** — ``output_occupancies`` is a vectorized read of
  the incrementally maintained per-output backlog counters plus credit
  debt.
* **Spans** — with the C kernel every cycle runs compiled:
  ``advance(n)`` hands each stretch between two fault epochs — open
  loop, closed loop or both, injection included — to one ``kcycles``
  call (:mod:`repro.flitsim.kspan`), and ``step()`` is ``advance(1)``.
  Without it, or once a span declines (a hooked or subclassed policy or
  traffic pattern), the vectorized numpy phases below run each cycle
  on the same arrays.

The topology-dependent port geometry (a CSR port map — O(E), not the
seed's dense O(N^2) matrix) is memoized per topology object in
:func:`fabric_for`, so sweep workers that simulate many cells on one
topology (the runner's per-process topology memo keeps the object alive)
pay its construction once.

Results are bit-identical to :class:`repro.flitsim.reference.NetworkSimulator`
for the same seed — pinned by ``tests/test_differential.py``.
"""

from __future__ import annotations

import mmap
import weakref

import numpy as np

from repro.flitsim._kernel import bind_struct, load_kernel
from repro.flitsim.engine import (
    SimConfig,
    SimResult,
    SimulatorCore,
    make_fault_state,
    make_workload_state,
    validate_sim_args,
)
from repro.flitsim.kselect import KernelSelector
from repro.flitsim.kspan import KernelSpan
from repro.flitsim.traffic import TrafficPattern
from repro.routing.policies import RoutingPolicy
from repro.topologies.base import Topology
from repro.utils.rng import make_rng

__all__ = ["FlatFabric", "FlatSimulator", "Samples", "fabric_for"]

#: initial flit-pool capacity (rows); grows by doubling
_POOL_CAP = 4096

#: most flit-pool rows a simulator may hold: VOQ records and the free
#: stack store pool row ids as int32.  A VOQ record is its tail row plus
#: one, which rows below 2**31 - 1 keep within int32 too.
_POOL_MAX = int(np.iinfo(np.int32).max)

#: initial packet-table capacity; grows by doubling
_PKT_CAP = 1024

#: most packet slots: flit records, ``pkt_next`` and the slot free stack
#: store slot ids as int32
_SLOT_MAX = int(np.iinfo(np.int32).max)

#: largest router id a route entry (``route_buf``, ``pkt_dst``) holds
_ROUTE_MAX = int(np.iinfo(np.int32).max)

#: longest route ``pkt_len`` (int8) holds, in routers
_LEN_MAX = int(np.iinfo(np.int8).max)

#: latest cycle a packet's int32 creation stamp can hold
_CREATED_MAX = int(np.iinfo(np.int32).max)

#: deepest VC buffer the int16 ``credits`` counters hold
_CREDIT_MAX = int(np.iinfo(np.int16).max)

#: one flit-pool row, field for field the kernel's ``Flit`` struct
_FLIT = np.dtype(
    [("next", np.int32), ("pid", np.int32), ("ready", np.int32),
     ("hop", np.int16), ("seq", np.int16)],
    align=True,
)

#: one grant of a kernel cycle: the kernel's ``Grant`` struct
_GRANT = np.dtype(
    [("f", np.int32), ("r", np.int32), ("in", np.int32), ("out", np.int32)],
    align=True,
)

#: largest packet_size and route stride: a flit record holds its
#: sequence number and hop index as int16
_SEQ_MAX = _HOP_MAX = int(np.iinfo(np.int16).max)

#: latest cycle a flit record's int32 ready stamp can hold
_READY_MAX = int(np.iinfo(np.int32).max)

#: the per-packet-slot arrays, declared once for allocation and growth:
#: attribute, dtype, fill (arrays start zeroed), whether a slot's row
#: is ``route_stride`` wide, and the
#: attribute that must be set for it to exist (None: always).
#: ``pkt_msg`` is the owning workload message, closed loop only — every
#: closed-loop packet is given one, so the column needs no fill;
#: ``pkt_next`` the next packet of its source FIFO (-1: the tail);
#: ``route_port`` the spans' output port per hop, which ``kinject``
#: resolves once per packet and the cycle path only reads (gone once the
#: spans decline: :meth:`FlatSimulator._decline_spans`); ``pkt_live``
#: / ``pkt_damaged`` the fault mode's outstanding flits (drops retire a
#: packet out of tail order, so slot recycling counts flits; at most
#: ``packet_size``, which int16 sequence numbers already bound) and
#: damaged flag.
_PKT_ARRAYS = (
    ("pkt_t_created", np.int32, 0, False, None),
    ("pkt_len", np.int8, 0, False, None),
    ("pkt_dst", np.int32, 0, False, None),
    ("pkt_msg", np.int32, 0, False, "_wl"),
    ("pkt_next", np.int32, 0, False, None),
    ("pkt_measured", np.bool_, False, False, None),
    ("route_buf", np.int32, 0, True, None),
    ("route_port", np.int16, 0, True, "_kernel"),
    ("pkt_live", np.int16, 0, False, "_fault"),
    ("pkt_damaged", np.bool_, False, False, "_fault"),
)


#: arrays of at least this many bytes get an anonymous mapping of their own
_MAP_BYTES = 1 << 20


def _zeros(size: int, dtype) -> np.ndarray:
    """A zeroed array; a large one in an anonymous mapping of its own.

    The pools, the packet table and the sample columns grow by copying
    into a fresh array and dropping the old one.  Freed from the heap,
    an old array's pages may stay resident (the allocator keeps blocks
    below its adaptive mmap threshold for reuse); a mapping returns them
    to the OS when the array dies, and its pages cost memory only once
    written.
    """
    dtype = np.dtype(dtype)
    nbytes = size * dtype.itemsize
    if nbytes < _MAP_BYTES:
        return np.zeros(size, dtype=dtype)
    return np.frombuffer(mmap.mmap(-1, nbytes), dtype=dtype)


def _filled(size: int, dtype, fill) -> np.ndarray:
    arr = _zeros(size, dtype)
    if fill:
        arr.fill(fill)
    return arr


class Samples:
    """A growing ``int32`` column of per-packet samples.

    The flat engine's latency and hop-count accumulator: a cycle appends
    its batch (:meth:`extend`), and a ``kcycles`` span writes straight
    into :attr:`buf` — :meth:`reserve` gives it room — then sets
    :attr:`n`.  ``len`` and slices see the first ``n`` entries.  Four
    bytes a sample while the run lasts (a latency is below the cycle
    count, which the flit records already hold as ``int32``), in memory
    sized for eight: the upper half stays untouched, so costs no
    resident memory, until :meth:`packed` widens the column in place
    into the 8-byte array a result hands out — no second copy.
    """

    __slots__ = ("buf", "n", "_mem")

    def __init__(self):
        self._mem = _zeros(0, np.int64)
        self.buf = self._mem.view(np.int32)
        self.n = 0

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, key):
        return self.buf[: self.n][key]

    def reserve(self, k: int) -> None:
        """Room for ``k`` more samples; the buffer at least doubles."""
        need = self.n + k
        if need > self.buf.size:
            mem = _zeros(max(need, 2 * self.buf.size, 1024), np.int64)
            buf = mem.view(np.int32)[: mem.size]
            buf[: self.n] = self.buf[: self.n]
            self._mem, self.buf = mem, buf

    def extend(self, values) -> None:
        k = len(values)
        self.reserve(k)
        self.buf[self.n : self.n + k] = values
        self.n += k

    def packed(self, dtype) -> np.ndarray:
        """The samples as an 8-byte ``dtype`` array, widened in place.

        Back to front, in halves: entries ``[a, b)`` with ``2a >= b``
        are read from bytes ``[4a, 4b)`` and written to ``[8a, 8b)``,
        which no entry below ``a`` occupies.  The column hands its
        memory to the array and starts over empty.
        """
        n, wide = self.n, self._mem.view(dtype)
        b = n
        while b > 1:
            a = (b + 1) // 2
            wide[a:b] = self.buf[a:b]
            b = a
        if n:
            wide[0] = self.buf[0]
        self.__init__()
        return wide[:n]


def _grown_free_stack(stack, top_arr, old: int, cap: int) -> np.ndarray:
    """``stack`` widened to ``cap`` ids with ``old .. cap - 1`` pushed."""
    top = int(top_arr[0])
    grown = _zeros(cap, np.int32)
    grown[:top] = stack[:top]
    grown[top : top + cap - old] = np.arange(old, cap)
    top_arr[0] = top + cap - old
    return grown


class FlatFabric:
    """Sparse, config-independent port geometry of one topology.

    Shared by every :class:`FlatSimulator` on the same topology object
    (see :func:`fabric_for`); everything here is read-only after build.

    The output port of ``u`` toward adjacent ``v`` is ``v``'s offset in
    ``u``'s sorted CSR neighbor slice, answered by a searchsorted over
    precomputed global edge keys (:meth:`ports_toward`) instead of the
    seed's dense O(N^2) ``port_mat`` — at q=79 (N=6321) that matrix
    alone was 320 MB; the CSR port map is O(E).  The congestion view
    (`output_occupancies`) reads ports through the same lookup, so the
    whole per-cycle state stays O(N x radix).  Each table is sized to
    its ceiling: ``nbr_mat`` holds router ids as int32, like the route
    entries (:class:`FlatSimulator` refuses a router id past them), and
    ``rev_mat`` port ids as int16 (radix << 2^15, checked here), which
    halves the gather traffic on it.
    """

    def __init__(self, topo: Topology):
        graph = topo.graph
        n = graph.n
        deg = np.diff(graph.indptr).astype(np.int64)
        conc = np.asarray(topo.concentration, dtype=np.int64)
        D = int(deg.max()) if n else 0
        C = int(conc.max()) if n else 0
        if D >= np.iinfo(np.int16).max:
            raise ValueError(f"router radix {D} exceeds int16 port ids")

        self.n = n
        self.deg = deg
        self.conc = conc
        #: max link outputs; the ejection output is column ``D``
        self.D = D
        self.OE = D
        self.O = D + 1
        #: input ports per router: links 0..deg-1, injection deg..deg+p-1
        self.P_arr = deg + conc
        self.I = max(int(self.P_arr.max()) if n else 0, 1)

        cols = max(D, 1)
        self.nbr_mat = np.full((n, cols), -1, dtype=np.int32)
        self.rev_mat = np.full((n, cols), -1, dtype=np.int16)
        # CSR port map: neighbor slices are sorted, so the port of u
        # toward v is searchsorted position of key u*n+v among the
        # directed-edge keys (strictly increasing in CSR order) minus
        # u's slice start.  The C kernel runs the same lookup as a
        # per-row binary search over the bound indptr/indices.
        self.adj_indptr = graph.indptr
        self.adj_indices = graph.indices
        indptr, indices = graph.indptr, graph.indices
        if indices.size:
            src_e = np.repeat(np.arange(n, dtype=np.int64), deg)
            self.edge_keys = src_e * n + indices
            port_e = np.arange(indices.size, dtype=np.int64) - np.repeat(
                indptr[:-1], deg
            )
            self.nbr_mat[src_e, port_e] = indices
            # Reverse port of directed edge (u -> v) = port of v toward
            # u, one searchsorted over the mirrored keys.
            rev_port = (
                np.searchsorted(self.edge_keys, indices * n + src_e)
                - indptr[indices]
            )
            self.rev_mat[src_e, port_e] = rev_port.astype(np.int16)
        else:
            self.edge_keys = np.empty(0, dtype=np.int64)

        self.E = topo.num_endpoints
        self.ep_router = np.asarray(topo.endpoint_routers, dtype=np.int64)
        self.ep_off = np.asarray(topo.endpoint_offsets, dtype=np.int64)
        self.ep_inport = deg[self.ep_router] + (
            np.arange(self.E, dtype=np.int64) - self.ep_off[self.ep_router]
        )
        #: dense VOQ count: (router, in_port, out_port) triples
        self.NV = n * self.I * self.O

    def ports_toward(self, routers, next_hops) -> np.ndarray:
        """Output ports of ``routers`` toward adjacent ``next_hops``.

        One vectorized searchsorted over the global edge keys; callers
        guarantee adjacency (non-adjacent queries return an in-range but
        meaningless port, like the old dense matrix returned -1 — no
        caller ever used a non-adjacent lookup's value).
        """
        routers = np.asarray(routers, dtype=np.int64)
        keys = routers * self.n + np.asarray(next_hops, dtype=np.int64)
        return np.searchsorted(self.edge_keys, keys) - self.adj_indptr[routers]

    def port_toward(self, router: int, next_hop: int) -> int:
        """Scalar :meth:`ports_toward` for the event-time (cold) paths."""
        return int(self.ports_toward(router, next_hop))


_FABRIC_MEMO: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def fabric_for(topo: Topology) -> FlatFabric:
    """The (memoized) :class:`FlatFabric` of ``topo``.

    Keyed weakly on the topology object: sweep workers memoize the
    topology per process, so repeated cells on it reuse one fabric.
    """
    fab = _FABRIC_MEMO.get(topo)
    if fab is None:
        fab = _FABRIC_MEMO[topo] = FlatFabric(topo)
    return fab


class FlatSimulator(SimulatorCore):
    """Struct-of-arrays engine for one (topology, routing, traffic) point.

    Drop-in replacement for the reference
    :class:`~repro.flitsim.reference.NetworkSimulator`: same constructor,
    same :meth:`~repro.flitsim.engine.SimulatorCore.run` contract, same
    :class:`~repro.routing.policies.CongestionView` surface, bit-identical
    :class:`~repro.flitsim.engine.SimResult` for the same seed.
    """

    def __init__(
        self,
        topo: Topology,
        policy: RoutingPolicy,
        traffic: "TrafficPattern | None",
        load: float,
        config: SimConfig = SimConfig(),
        seed=0,
        workload=None,
        faults=None,
    ):
        self.topo = topo
        self.policy = policy
        self.traffic = traffic
        self.load = float(load)
        self.config = config
        self.rng = make_rng(seed)
        # Fault bookkeeping first: it ratchets policy.max_hops to the
        # degraded ceiling, which sizes the route stride and VC check.
        self._fault = make_fault_state(faults, topo, policy)
        validate_sim_args(topo, policy, load, config)
        self.route_stride = policy.max_hops + 1
        if config.packet_size > _SEQ_MAX:
            raise ValueError(
                f"packet_size={config.packet_size} exceeds the int16 flit "
                f"sequence numbers of the flit records (at most {_SEQ_MAX})"
            )
        if self.route_stride > _HOP_MAX:
            raise ValueError(
                f"route stride {self.route_stride} (policy max_hops + 1) "
                f"exceeds the int16 hop index of the flit records (at most "
                f"{_HOP_MAX})"
            )
        if self.route_stride > _LEN_MAX:
            raise OverflowError(
                f"route stride {self.route_stride} (policy max_hops + 1) "
                f"exceeds the int8 route lengths of pkt_len (at most "
                f"{_LEN_MAX})"
            )
        if topo.num_routers - 1 > _ROUTE_MAX:
            raise OverflowError(
                f"router id {topo.num_routers - 1} exceeds the int32 route "
                f"entries of route_buf (at most {_ROUTE_MAX})"
            )
        if config.vc_depth > _CREDIT_MAX:
            raise OverflowError(
                f"vc_depth={config.vc_depth} exceeds the int16 counters of "
                f"credits (at most {_CREDIT_MAX})"
            )
        self._wl = make_workload_state(workload, config, topo)
        if self._wl is not None and (
            self._wl.workload.num_messages > np.iinfo(np.int32).max
        ):
            raise OverflowError(
                f"{self._wl.workload.num_messages} messages exceed the int32 "
                "message ids of pkt_msg"
            )

        fab = fabric_for(topo)
        self.fab = fab
        n, I, O = fab.n, fab.I, fab.O
        V = config.num_vcs

        # Credit state: link outputs carry vc_depth per hop class (int16:
        # vc_depth is checked above); padding columns (port >= deg) stay
        # 0 and are never addressed.
        valid = np.arange(max(fab.D, 1))[None, :] < fab.deg[:, None]
        self._link_ports = valid
        self.credits = np.zeros((fab.n, max(fab.D, 1), V), dtype=np.int16)
        self.credits[valid] = config.vc_depth
        self.ep_credit = np.full(fab.E, config.vc_depth, dtype=np.int64)

        # VOQ state: circular linked lists through the flit pool, one
        # int32 record per VOQ — its tail row plus one, 0 when empty —
        # at ``(r * O + out) * I + in``, bound to the C kernel as one
        # pointer.  The tail's ``next`` is the head.  Emptying a queue
        # zeroes its record, so the zero-initialised array
        # (``np.zeros``, no fill pass) starts all-empty and every entry
        # is protocol state.  Queue lengths are not stored: the
        # ``backlog`` row sums are all the engine reads.
        self._voq = np.zeros(fab.NV, dtype=np.int32)
        #: flits queued per (router, out) — the O(1) occupancy counters;
        #: int32, as a row holds at most the pool's int32 rows
        self.backlog = np.zeros(n * O, dtype=np.int32)
        #: round-robin pointers per (router, out): input ports, int32
        self.rr = np.zeros(n * O, dtype=np.int32)

        # Flit pool + free list: one record per flit, bound to the C
        # kernel as one pointer and read here through field views.  The
        # stack top lives in a one-element array so the C kernel can
        # mutate it in place.
        self.pool_cap = _POOL_CAP
        self._set_pool(_zeros(self.pool_cap, _FLIT))
        self.free_stack = np.arange(self.pool_cap, dtype=np.int32)
        self._free_top = np.array([self.pool_cap], dtype=np.int64)

        # Optional C kernel (same protocol, same arrays) in every mode —
        # open loop, closed loop, faults, and combined — when its draws
        # match numpy's; the numpy phases otherwise.  Epoch-boundary
        # fault deltas stay in Python.
        kernel = load_kernel()
        self._kernel = kernel if kernel is not None and kernel.select_ok else None

        # Packet table + route buffer, slot-recycled so memory stays
        # O(in-flight packets), not O(packets ever injected): each
        # packet occupies one row of the pkt_* arrays and one
        # fixed-stride row of the route buffer (stride = the policy's
        # worst-case route length), identified by a pool slot that is
        # freed when the tail flit ejects.
        self.pkt_cap = _PKT_CAP
        self._check_slots(self.pkt_cap)
        #: (attribute, dtype, fill, elements per slot) of this
        #: simulator's share of :data:`_PKT_ARRAYS`
        self._slot_arrays = [
            (name, dtype, fill, self.route_stride if wide else 1)
            for name, dtype, fill, wide, owner in _PKT_ARRAYS
            if owner is None or getattr(self, owner) is not None
        ]
        for name, dtype, fill, width in self._slot_arrays:
            setattr(self, name, _filled(self.pkt_cap * width, dtype, fill))
        self._pslot_stack = np.arange(self.pkt_cap, dtype=np.int32)
        self._pslot_top = np.array([self.pkt_cap], dtype=np.int64)
        #: monotone count of packets ever injected (slots are recycled)
        self.packets_injected = 0

        # Per-endpoint source FIFOs: head and tail packet slots of a
        # chain through pkt_next (-1: empty), and the sequence number of
        # the head packet's next flit (0 while empty).
        self.src_head = np.full(fab.E, -1, dtype=np.int64)
        self.src_tail = np.full(fab.E, -1, dtype=np.int64)
        self.src_seq = np.zeros(fab.E, dtype=np.int64)

        self.now = 0
        self._hop_latency = config.link_latency + config.router_pipeline
        self.result: "SimResult | None" = None
        self._measuring = False
        #: the sample columns, which outlive the result's packed copies
        self._lat, self._hops = Samples(), Samples()
        self._stat = SimResult(
            load, 0, fab.E, latencies=self._lat, hop_counts=self._hops
        )

        # Optional cumulative per-link flit counters, (n, Dp) like the
        # credits' first two axes (:meth:`attach_link_telemetry`).  None
        # by default: the numpy route phase pays one identity check per
        # cycle and the C kernel a NULL pointer it never follows.
        self._ltel: "np.ndarray | None" = None

        # Fault-mode state: per-(router, output-column) death mask.
        if self._fault is not None:
            self.dead_row = np.zeros(n * O, dtype=bool)

        if self._kernel is not None:
            # Grants per cycle are bounded by one per (router, link
            # output) plus the per-router ejection limit (≤ E + n), and
            # per-cycle tail drops by the feed slots (≤ E) plus the link
            # grants — so grant_cap bounds the cycle's ejected tails and
            # the retransmits it queues.
            grant_cap = n * O + fab.E
            self._grants = np.empty(grant_cap, dtype=_GRANT)
            self._tail_pids = np.empty(max(grant_cap, 1), dtype=np.int32)
            if self._fault is not None:
                self._fcnt = np.zeros(2, dtype=np.int64)
            #: kernel-only occupancy bitmask per (router, out) row: bit
            #: ``in`` of the row's ceil(I / 64) words is set exactly while
            #: VOQ (router, in, out) is non-empty.  C sets and clears it
            #: as queues fill and drain; :meth:`_drop_vq` is the one
            #: Python site that empties a VOQ on the kernel path.
            self.row_mask = np.zeros((n * O, (I + 63) // 64), dtype=np.uint64)
            #: kernel-only bit per (router, out) row, set exactly while
            #: the row's ``backlog`` is positive: the rows ``kroute``
            #: arbitrates, walked in ascending order
            self.busy_rows = np.zeros((n * O + 63) // 64, dtype=np.uint64)
            self._st = self._kernel.ffi.new("SimState *")
            self._bind_kernel_state()
        #: compiled route selection for this policy (None: numpy bodies)
        self._kselect = (
            KernelSelector.for_policy(self) if self._kernel is not None else None
        )
        #: whole-cycle spans (None: the numpy path, for good)
        self._kspan = KernelSpan(self) if self._kselect is not None else None
        if self._kernel is not None and self._kspan is None:
            self._decline_spans()
        #: cycles :meth:`advance` executed inside ``kcycles``
        self.span_cycles = 0

    # ------------------------------------------------------------------
    # CongestionView protocol
    # ------------------------------------------------------------------
    def output_occupancies(self, routers, next_hops) -> np.ndarray:
        """The UGAL-L signal per (router, next hop): credit debt plus the
        maintained VOQ backlog toward that output, vectorized.

        ``int64`` whatever the counters' widths, so the policies' queue x
        hops products cannot wrap, under numpy 1's value-based casting
        and NEP 50 alike.
        """
        fab = self.fab
        ports = fab.ports_toward(routers, next_hops)
        occ = self.backlog[np.asarray(routers) * fab.O + ports].astype(np.int64)
        occ += self.config.vc_depth
        occ -= self.credits[routers, ports, 0]
        return occ

    def accelerated_select(self, policy, srcs, dsts, rng):
        """The batch protocol of ``policy.select_routes``, run in C.

        The optional hook the vectorized policies probe on their
        ``congestion`` argument.  Returns ``(paths, lens)`` views of
        selector-owned scratch (valid until the next call) with the
        exact routes and RNG consumption of the numpy body, or ``None``
        to decline — no kernel, another policy object than the
        simulator's own, or tables outside the layout ``kselect`` reads
        (see :mod:`repro.flitsim.kselect`).
        """
        if self._kselect is None or policy is not self.policy:
            return None
        return self._kselect.select(self, srcs, dsts, rng)

    # ------------------------------------------------------------------
    # Introspection (tests, conservation checks)
    # ------------------------------------------------------------------
    @property
    def free_top(self) -> int:
        """Free-list depth (pool rows not holding a live flit)."""
        return int(self._free_top[0])

    def live_flits(self) -> int:
        """Flits currently anywhere in the system: VOQs and source FIFOs.

        A pool row in use is a flit in a VOQ; a source FIFO chains
        packets, whose flits are not made until they feed, so it holds
        ``packet_size`` unfed flits per queued packet less the
        ``src_seq`` its head has fed.  The FIFOs are walked packet by
        packet — introspection for tests and drains, not the cycle path.
        """
        queued = 0
        heads = self.src_head[self.src_head >= 0]
        while heads.size:
            queued += heads.size
            heads = self.pkt_next[heads]
            heads = heads[heads >= 0]
        unfed = queued * self.config.packet_size - int(self.src_seq.sum())
        return self.pool_cap - self.free_top + unfed

    # ------------------------------------------------------------------
    # Per-link telemetry (observability; never perturbs results)
    # ------------------------------------------------------------------
    def attach_link_telemetry(self) -> None:
        """Allocate (idempotently) the per-link flit counters.

        One ``int64`` per (router, output port), laid out as the kernel's
        credits (``router * Dp + out_port``) and shown to the kernel
        once.  Every link grant counts from then on, *before* any fault
        doom filtering — the reference engine's accounting point, so the
        two agree bit-exactly.  Attaching never changes simulation results.
        """
        if self._ltel is None:
            self._ltel = np.zeros(self._link_ports.shape, dtype=np.int64)
            if self._kernel is not None:
                self._bind({"link_flits": self._ltel})

    def link_flits(self) -> np.ndarray:
        """Flits granted per directed link (see the engine contract).

        The padded layout masked to real link ports, as in
        :meth:`link_occupancy`; all zero when never attached.
        """
        if self._ltel is None:
            return np.zeros(self.topo.graph.indices.size, dtype=np.int64)
        return self._ltel[self._link_ports]

    def link_occupancy(self) -> np.ndarray:
        """Buffered flits per directed link (see the engine contract).

        Padding credit columns (port >= deg) hold 0 credits, which would
        read as a full buffer; the mask keeps real link ports only, in
        router-major port order — the graph's CSR edge order.
        """
        occ = self.config.port_capacity - self.credits.sum(axis=2)
        return occ[self._link_ports]

    # ------------------------------------------------------------------
    # C kernel plumbing
    # ------------------------------------------------------------------
    def _bind_kernel_state(self) -> None:
        """Point the kernel's ``SimState`` at this simulator's arrays.

        The mapping is the whole binding: :func:`bind_struct` reads each
        field's C type off the ``SimState`` declaration and refuses an
        array of another dtype or layout, naming the field, so a new
        field costs one struct line and one entry here.  Fields left out
        stay NULL: the fault mode's without a fault timeline, and the
        link counters until :meth:`attach_link_telemetry` binds them.
        Called once, at construction; a grow re-points its own pool's
        fields alone (:meth:`_pool_fields`, :meth:`_pkt_fields`).
        """
        fab, cfg = self.fab, self.config
        fields = {
            "n": fab.n, "E": fab.E, "I": fab.I, "O": fab.O, "OE": fab.OE,
            "Dp": max(fab.D, 1), "V": cfg.num_vcs, "ps": cfg.packet_size,
            "hop_latency": self._hop_latency, "stride": self.route_stride,
            "fault_mode": int(self._fault is not None),
            "deg": fab.deg, "ports": fab.P_arr, "conc": fab.conc,
            "nbr": fab.nbr_mat, "rev": fab.rev_mat, "adj_indptr": fab.adj_indptr,
            "adj_indices": fab.adj_indices, "ep_router": fab.ep_router,
            "ep_inport": fab.ep_inport, "ep_off": fab.ep_off, "voq": self._voq,
            "row_mask": self.row_mask, "busy_rows": self.busy_rows,
            "backlog": self.backlog, "rr": self.rr, "credits": self.credits,
            "src_head": self.src_head, "src_tail": self.src_tail,
            "src_seq": self.src_seq,
            "ep_credit": self.ep_credit, "free_top": self._free_top,
            "pkt_free_top": self._pslot_top, "grants": self._grants,
            "tail_pids": self._tail_pids,
            **self._pool_fields(), **self._pkt_fields(),
        }
        if self._fault is not None:
            fields.update(dead_row=self.dead_row, fcnt=self._fcnt)
        self._st_refs = {}
        self._bind(fields)

    def _bind(self, fields: dict) -> None:
        """Point ``SimState``'s ``fields`` at arrays, keeping them alive."""
        self._st_refs.update(bind_struct(self._kernel.ffi, self._st, fields))

    def _pool_fields(self) -> dict:
        """The ``SimState`` fields :meth:`_grow_pool` replaces."""
        return {"pool": self._pool, "free_stack": self.free_stack}

    def _pkt_fields(self) -> dict:
        """The ``SimState`` fields :meth:`_grow_pkt_pool` replaces."""
        fields = {name: getattr(self, name) for name, *_ in self._slot_arrays}
        fields["pkt_free"] = self._pslot_stack
        return fields

    # ------------------------------------------------------------------
    # Pool + table growth
    # ------------------------------------------------------------------
    def _set_pool(self, pool: np.ndarray) -> None:
        """Install the flit records and their per-field views."""
        self._pool = pool
        self.pool_next, self.pool_pid = pool["next"], pool["pid"]
        self.pool_ready = pool["ready"]
        self.pool_hop, self.pool_seq = pool["hop"], pool["seq"]

    def _grow_pool(self, min_extra: int) -> None:
        old = self.pool_cap
        extra = max(min_extra, old)
        cap = old + extra
        if cap > _POOL_MAX:
            raise OverflowError(
                f"pool_cap={cap} flit-pool rows exceed the int32 row ids "
                f"of the VOQ records (at most {_POOL_MAX})"
            )
        pool = _zeros(cap, _FLIT)
        pool[:old] = self._pool
        self._set_pool(pool)
        self.free_stack = _grown_free_stack(
            self.free_stack, self._free_top, old, cap
        )
        self.pool_cap = cap
        if self._kernel is not None:
            self._bind(self._pool_fields())

    def _alloc(self, k: int) -> np.ndarray:
        """``k`` pool rows off the free stack (``_reserve`` made room)."""
        top = self.free_top - k
        self._free_top[0] = top
        return self.free_stack[top : top + k].copy()

    def _release(self, ids: np.ndarray) -> None:
        top = self.free_top
        self.free_stack[top : top + ids.size] = ids
        self._free_top[0] = top + ids.size

    @staticmethod
    def _check_slots(cap: int) -> None:
        if cap > _SLOT_MAX:
            raise OverflowError(
                f"pkt_cap={cap} packet slots exceed the int32 slot ids of "
                f"pkt_next and the flit records (at most {_SLOT_MAX})"
            )

    def _grow_pkt_pool(self, min_extra: int) -> None:
        old = self.pkt_cap
        extra = max(min_extra, old)
        cap = old + extra
        self._check_slots(cap)
        for name, dtype, fill, width in self._slot_arrays:
            # Live packets keep their rows, kinject's ports included.
            grown = _filled(cap * width, dtype, fill)
            grown[: old * width] = getattr(self, name)
            setattr(self, name, grown)
        self._pslot_stack = _grown_free_stack(
            self._pslot_stack, self._pslot_top, old, cap
        )
        self.pkt_cap = cap
        if self._kernel is not None:
            self._bind(self._pkt_fields())

    def _reserve(self, packets: int = 0) -> None:
        """Room for one cycle: a flit row per endpoint and ``packets``
        packet slots.

        Feed is the only phase that takes pool rows, at most one per
        endpoint, so the pool holds the network's buffered flits plus
        ``E`` — however long the source FIFOs grow.  Applied at every
        cycle start and before the cycle's packets are drawn or popped —
        one per endpoint ahead of a Bernoulli draw, the queues closed
        loop — by the numpy path and, on ``kcycles``' request, by the
        span driver, so the pools grow at the same cycle, to the same
        size, whichever way the cycle runs, and a span never has to stop
        mid-cycle for memory.
        """
        if self.free_top < self.fab.E:
            self._grow_pool(self.fab.E - self.free_top)
        slots = int(self._pslot_top[0])
        if slots < packets:
            self._grow_pkt_pool(packets - slots)

    def _alloc_pkt_slots(self, k: int) -> np.ndarray:
        if int(self._pslot_top[0]) < k:
            self._grow_pkt_pool(k - int(self._pslot_top[0]))
        top = int(self._pslot_top[0]) - k
        self._pslot_top[0] = top
        return self._pslot_stack[top : top + k].copy()

    # ------------------------------------------------------------------
    # Injection (protocol step 1)
    # ------------------------------------------------------------------
    def _fill_packet_slots(self, srcs, dsts, pkt_mid=None):
        """Select routes and populate packet slots for a same-cycle batch.

        The half of injection both modes share: one batched
        ``select_routes`` call, slot allocation, route-row/metadata
        fill, and the injected-flit accounting.  Returns the slots; the
        caller appends the packets to source FIFOs.
        """
        mat, lens = self.policy.select_routes(srcs, dsts, self.rng, congestion=self)
        k = lens.size
        max_len = int(lens.max())
        if max_len > self.route_stride:
            raise self._route_too_long(max_len)
        slots = self._alloc_pkt_slots(k)
        route_rows = self.route_buf.reshape(self.pkt_cap, self.route_stride)
        # The matrix may carry padding columns wider than any surviving
        # route; only columns within the slot stride are meaningful.
        width = min(mat.shape[1], self.route_stride)
        route_rows[slots, :width] = mat[:, :width]
        self.pkt_len[slots] = lens
        self.pkt_dst[slots] = mat[np.arange(k), lens - 1]
        self.pkt_t_created[slots] = self.now
        if pkt_mid is not None:
            self.pkt_msg[slots] = pkt_mid
        if self._fault is not None:
            self.pkt_live[slots] = self.config.packet_size
            self.pkt_damaged[slots] = False
        self.pkt_measured[slots] = self._measuring
        self.packets_injected += k
        if self._measuring:
            self._stat.injected_flits += k * self.config.packet_size
        return slots

    def _route_too_long(self, max_len: int) -> ValueError:
        return ValueError(
            f"route of {max_len - 1} hops exceeds the policy's "
            f"declared max_hops={self.policy.max_hops}"
        )

    def _append_packets(self, eps, slots) -> None:
        """Queue packets ``slots`` at the tails of endpoints ``eps``' FIFOs.

        Several packets may land on one endpoint (a workload batch);
        they queue in batch order.  Grouped by endpoint (stable), each
        group is chained through ``pkt_next`` and spliced onto its
        endpoint's tail.  No flit is made here: :meth:`_feed` makes each
        as it leaves.
        """
        k = slots.size
        order = np.argsort(eps, kind="stable")
        es, so = eps[order], slots[order]
        head = np.empty(k, dtype=bool)
        head[0] = True
        np.not_equal(es[1:], es[:-1], out=head[1:])
        tail = np.empty(k, dtype=bool)
        tail[-1] = True
        tail[:-1] = head[1:]
        self.pkt_next[so] = -1
        inner = np.flatnonzero(~head)
        self.pkt_next[so[inner - 1]] = so[inner]
        group_ep = es[head]
        group_first = so[head]
        tails_cur = self.src_tail[group_ep]
        linked = tails_cur >= 0
        self.pkt_next[tails_cur[linked]] = group_first[linked]
        self.src_head[group_ep[~linked]] = group_first[~linked]
        self.src_tail[group_ep] = so[tail]

    def _inject(self) -> None:
        ps = self.config.packet_size
        prob = self.load / ps
        if prob <= 0.0:
            return
        self._reserve(self.fab.E)
        rng = self.rng
        fab = self.fab
        winners = np.flatnonzero(rng.random(fab.E) < prob)
        if winners.size == 0:
            return
        ft = self._fault
        if ft is not None and ft.any_dead_router:
            # The Bernoulli draw above always covers every endpoint (the
            # stream is failure-independent); dead ones just can't win.
            winners = winners[ft.ep_alive[winners]]
            if winners.size == 0:
                return
        srcs = fab.ep_router[winners]
        dsts = self.traffic.dest_routers(srcs, rng)
        if ft is not None and ft.any_dead_router:
            keep = ft.router_alive[dsts]
            if not keep.all():
                ft.note_blackholed(int((~keep).sum()))
                winners, srcs, dsts = winners[keep], srcs[keep], dsts[keep]
                if winners.size == 0:
                    return
        self._append_packets(winners, self._fill_packet_slots(srcs, dsts))

    def _inject_workload(self) -> None:
        """Closed-loop protocol step 1, vectorized.

        Drains the ready queue into packets (message-major,
        packet-minor), one batched route selection for the cycle, then
        appends every packet to the FIFO of its round-robin-assigned
        endpoint — several may land on one endpoint in the same cycle,
        which Bernoulli injection never produces.
        """
        st = self._wl
        ft = self._fault
        mids = st.pop_ready()
        if ft is not None:
            if ft.any_dead_router and mids.size:
                mids = ft.filter_messages(
                    mids, st.workload.src[mids], st.workload.dst[mids],
                    st.msg_pkts[mids],
                )
            # Lost packets re-enter ahead of new messages, in drop order.
            rt = ft.pop_retransmits(st.workload)
            if rt.size == 0 and mids.size == 0:
                return
            pkt_mid = np.concatenate([rt, np.repeat(mids, st.msg_pkts[mids])])
        else:
            if mids.size == 0:
                return
            pkt_mid = np.repeat(mids, st.msg_pkts[mids])
        if pkt_mid.size == 0:
            return
        fab = self.fab
        self._reserve(pkt_mid.size)
        srcs = st.workload.src[pkt_mid]
        dsts = st.workload.dst[pkt_mid]
        slots = self._fill_packet_slots(srcs, dsts, pkt_mid=pkt_mid)
        self._append_packets(fab.ep_off[srcs] + st.next_endpoints(srcs), slots)

    # ------------------------------------------------------------------
    # Feed (protocol step 2)
    # ------------------------------------------------------------------
    def _feed(self) -> None:
        if self._fault is not None:
            self._feed_with_faults()
            return
        ids = np.flatnonzero((self.src_head >= 0) & (self.ep_credit > 0))
        if ids.size == 0:
            return
        pid, seq = self._pop_flits(ids)
        self.ep_credit[ids] -= 1
        routers = self.fab.ep_router[ids]
        self._feed_flits(ids, routers, self._first_ports(routers, pid), pid, seq)

    def _feed_with_faults(self) -> None:
        """Feed phase when a timeline is attached.

        A head flit whose first hop is dead drops without consuming the
        injection credit (it never enters the buffer, so it never takes a
        pool row), spending the endpoint's one-flit-per-cycle feed slot;
        live heads feed as usual.  Drop order is ascending endpoint id —
        the reference engine's iteration order.
        """
        fab = self.fab
        cand = np.flatnonzero(self.src_head >= 0)
        if cand.size == 0:
            return
        routers = fab.ep_router[cand]
        out = self._first_ports(routers, self.src_head[cand])
        doomed = self.dead_row[routers * fab.O + out]
        move = doomed | (self.ep_credit[cand] > 0)
        if not move.any():
            return
        ids = cand[move]
        pid, seq = self._pop_flits(ids)
        doomed = doomed[move]
        if doomed.any():
            self._drop_flits(pid[doomed], seq[doomed])
        fd = ~doomed
        if fd.any():
            ids_f = ids[fd]
            self.ep_credit[ids_f] -= 1
            self._feed_flits(
                ids_f, routers[move][fd], out[move][fd], pid[fd], seq[fd]
            )

    def _first_ports(self, routers, pid) -> np.ndarray:
        """The output ports packets ``pid`` leave their first router by."""
        fab = self.fab
        out = np.full(pid.size, fab.OE, dtype=np.int64)
        multi = self.pkt_len[pid] > 1
        out[multi] = fab.ports_toward(
            routers[multi], self.route_buf[pid[multi] * self.route_stride + 1]
        )
        return out

    def _pop_flits(self, ids):
        """Take the next flit off the FIFOs of endpoints ``ids``.

        Returns each flit's packet slot and sequence number; a packet's
        last flit pops the packet.
        """
        pid = self.src_head[ids]
        seq = self.src_seq[ids]
        last = seq == self.config.packet_size - 1
        self.src_seq[ids] = np.where(last, 0, seq + 1)
        done = ids[last]
        nxt = self.pkt_next[pid[last]]
        self.src_head[done] = nxt
        self.src_tail[done[nxt < 0]] = -1
        return pid, seq

    def _feed_flits(self, ids, routers, out, pid, seq) -> None:
        """Make the flits ``(pid, seq)`` endpoints ``ids`` feed — a pool
        row each — and queue them at their injection VOQs."""
        flits = self._alloc(ids.size)
        self.pool_pid[flits] = pid
        self.pool_seq[flits] = seq
        self.pool_hop[flits] = 0
        self.pool_ready[flits] = self.now
        self._enqueue(routers * self.fab.O + out, self.fab.ep_inport[ids], flits)

    # ------------------------------------------------------------------
    # Queue plumbing
    # ------------------------------------------------------------------
    def _enqueue(self, rows, ins, flits) -> None:
        """Append ``flits`` to the VOQs of (router, out) ``rows`` and
        inputs ``ins`` (distinct per call, by design).

        A flit entering an empty queue links to itself; any other goes
        between its queue's tail and head and becomes the tail.
        """
        vq = rows * self.fab.I + ins
        tails = self._voq[vq] - 1
        old = tails >= 0
        t = tails[old]
        heads = flits.copy()
        heads[old] = self.pool_next[t]
        self.pool_next[flits] = heads
        self.pool_next[t] = flits[old]
        self._voq[vq] = flits + 1
        np.add.at(self.backlog, rows, 1)

    # ------------------------------------------------------------------
    # Router phase (protocol step 3): decide synchronously, apply at once
    # ------------------------------------------------------------------
    def _route_phase(self) -> None:
        # Through a bool mask: nonzero over int32 scans ~8x slower.
        occ = np.flatnonzero(self._voq != 0)
        if occ.size == 0:
            return
        fab = self.fab
        now = self.now
        O, I, OE = fab.O, fab.I, fab.OE
        V = self.config.num_vcs

        # Eligibility of every nonempty VOQ head: its tail's successor.
        tails = self._voq[occ] - 1
        heads = self.pool_next[tails]
        row_c = occ // I
        out_c = row_c % O
        ok = self.pool_ready[heads] <= now
        lnk = ok & (out_c != OE)
        dvc = np.minimum(self.pool_hop[heads[lnk]], V - 1)
        ok[lnk] = self.credits[row_c[lnk] // O, out_c[lnk], dvc] > 0
        if not ok.any():
            return
        vq_e = occ[ok]
        head_e = heads[ok]
        tail_e = tails[ok]
        in_e = vq_e % I
        rows = row_c[ok]

        # One sort decides every grant: candidates ordered by
        # (router, output, circular distance from the rr pointer).  The
        # first candidate of each (router, output) group wins; ejection
        # groups take up to max(1, concentration).  Ejection is the
        # highest output column, so group order == the reference
        # engine's decision order (routers ascending, links before
        # eject) — which is also the latency-recording order.  The
        # circle is the router's input ports, P_arr.
        score = (in_e - self.rr[rows]) % fab.P_arr[rows // O]
        order = np.lexsort((score, rows))
        row_s = rows[order]
        in_s = in_e[order]
        first = np.empty(row_s.size, dtype=bool)
        first[0] = True
        np.not_equal(row_s[1:], row_s[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        group = np.cumsum(first) - 1
        rank = np.arange(row_s.size, dtype=np.int64) - starts[group]
        # Grant limit: 1 per link output, max(1, concentration) to eject.
        limit = np.where(row_s % O == OE, np.maximum(fab.conc[row_s // O], 1), 1)
        take = rank < limit

        row_w = row_s[take]
        in_w = in_s[take]
        win = order[take]
        vq_w = vq_e[win]
        flit = head_e[win]
        tail_w = tail_e[win]
        r_w = row_w // O
        out_w = row_w % O

        # Advance each granted group's pointer past its last grant.
        wg = group[take]
        last = np.empty(wg.size, dtype=bool)
        last[-1] = True
        np.not_equal(wg[1:], wg[:-1], out=last[:-1])
        row_last = row_w[last]
        self.rr[row_last] = (in_w[last] + 1) % fab.P_arr[row_last // O]

        # ---- Apply: pop winners, return credits, forward/eject. ----
        # A head that is its queue's tail empties the queue; any other
        # is unlinked from behind the tail.
        only = flit == tail_w
        self._voq[vq_w[only]] = 0
        rest = ~only
        self.pool_next[tail_w[rest]] = self.pool_next[flit[rest]]
        np.add.at(self.backlog, row_w, -1)

        pid_w = self.pool_pid[flit].astype(np.int64)
        hop_w = self.pool_hop[flit]
        off_w = pid_w * self.route_stride
        deg_w = fab.deg[r_w]

        # Upstream credit returns (link inputs) / injection credits.
        from_link = in_w < deg_w
        li = np.flatnonzero(from_link)
        if li.size:
            upstream = self.route_buf[off_w[li] + hop_w[li] - 1]
            up_port = fab.ports_toward(upstream, r_w[li])
            vc = np.minimum(hop_w[li] - 1, V - 1)
            np.add.at(self.credits, (upstream, up_port, vc), 1)
        ii = np.flatnonzero(~from_link)
        if ii.size:
            endpoint = fab.ep_off[r_w[ii]] + in_w[ii] - deg_w[ii]
            np.add.at(self.ep_credit, endpoint, 1)

        # Forward the link winners one hop.
        is_ej = out_w == OE
        fwd = np.flatnonzero(~is_ej)
        if fwd.size:
            fl = flit[fwd]
            r_f, out_f = r_w[fwd], out_w[fwd]
            if self._ltel is not None:
                # Count at grant time, before fault doom filtering — the
                # reference telemetry hook's accounting point.
                np.add.at(self._ltel, (r_f, out_f), 1)
            hop_f = hop_w[fwd]
            # int64, so the row indices below cannot wrap
            nxt_r = fab.nbr_mat[r_f, out_f].astype(np.int64)
            in_next = fab.rev_mat[r_f, out_f]
            hop2 = hop_f + 1
            pid_f = pid_w[fwd]
            pos = off_w[fwd] + np.minimum(hop2 + 1, self.pkt_len[pid_f] - 1)
            # The non-destination branch is evaluated for every row (as
            # np.where always did); destination rows get an in-range but
            # meaningless port that the OE branch discards.
            out_next = np.where(
                nxt_r == self.pkt_dst[pid_f],
                OE,
                fab.ports_toward(nxt_r, self.route_buf[pos]),
            )
            if self._fault is not None:
                doomed = self.dead_row[nxt_r * O + out_next]
                if doomed.any():
                    # Dead output at the next router: drop on the wire,
                    # in grant order, without consuming the credit.
                    self._drop_flit_rows(fl[doomed])
                    keep = np.flatnonzero(~doomed)
                    fl, r_f, out_f = fl[keep], r_f[keep], out_f[keep]
                    hop_f, hop2 = hop_f[keep], hop2[keep]
                    nxt_r, in_next = nxt_r[keep], in_next[keep]
                    out_next = out_next[keep]
            if fl.size:
                np.add.at(
                    self.credits, (r_f, out_f, np.minimum(hop_f, V - 1)), -1
                )
                self.pool_hop[fl] = hop2
                self.pool_ready[fl] = now + self._hop_latency
                self._enqueue(nxt_r * O + out_next, in_next, fl)

        # Eject the rest (already in recording order); tail flits
        # complete their packet.
        ejs = np.flatnonzero(is_ej)
        if ejs.size:
            fe = flit[ejs]
            if self._measuring:
                self._stat.ejected_flits += fe.size
            tails = self.pool_seq[fe] == self.config.packet_size - 1
            done = pid_w[ejs[tails]]
            self._sample(done)
            self._release(fe)
            if done.size and self._wl is not None:
                # Closed loop: report completed packets' messages and
                # their wire flit-hops before recycling slots.
                self._wl.note_tails(
                    self.pkt_msg[done],
                    int((self.pkt_len[done] - 1).sum())
                    * self.config.packet_size,
                )
            if self._fault is not None:
                # A tail that ejects from a damaged packet means body
                # flits were lost to a since-revived link: delivered,
                # but incomplete.
                dmg = int(self.pkt_damaged[done].sum())
                if dmg:
                    self._fault.note_damaged_deliveries(dmg)
                # Drops can retire a packet out of tail order, so slot
                # recycling counts outstanding flits instead.
                self._retire_packets(pid_w[ejs])
            elif done.size:
                # The tail flit is the last of its packet out of the
                # network: recycle the packet slot.
                top = int(self._pslot_top[0])
                self._pslot_stack[top : top + done.size] = done
                self._pslot_top[0] = top + done.size

    # ------------------------------------------------------------------
    # Fault phase (protocol step 0): masks, drops, and route repair
    # ------------------------------------------------------------------
    def _drop_flits(self, pids, seqs, rows=None) -> None:
        """Account dropped flits (array order = drop order) and release
        their pool ``rows`` (None: flits that never left their FIFO)."""
        ft = self._fault
        ft.note_flit_drops(pids.size)
        self.pkt_damaged[pids] = True
        tails = seqs == self.config.packet_size - 1
        if tails.any():
            ft.note_tail_drops(self._messages(pids[tails]))
        if rows is not None:
            self._release(rows)
        self._retire_packets(pids)

    def _messages(self, pids: np.ndarray) -> np.ndarray:
        """The workload messages of packets ``pids``; -1 open loop, which
        keeps no ``pkt_msg`` (a lost packet there is not retransmitted)."""
        if self._wl is None:
            return np.full(pids.size, -1)
        return self.pkt_msg[pids]

    def _drop_flit_rows(self, rows: np.ndarray) -> None:
        """:meth:`_drop_flits` of queued flits, by pool row."""
        self._drop_flits(self.pool_pid[rows], self.pool_seq[rows], rows)

    def _retire_packets(self, pids: np.ndarray) -> None:
        """Decrement outstanding-flit counts; recycle exhausted slots."""
        np.subtract.at(self.pkt_live, pids, 1)
        u = np.unique(pids)
        done = u[self.pkt_live[u] == 0]
        if done.size:
            top = int(self._pslot_top[0])
            self._pslot_stack[top : top + done.size] = done
            self._pslot_top[0] = top + done.size

    def _drop_vq(self, r: int, in_port: int, out: int, return_credit: bool) -> None:
        """Drop one VOQ wholesale, front to back (event-time drops).

        Same rule-1/rule-2 credit semantics as the reference engine's
        ``_drop_queue`` — the canonical order both engines share.
        """
        fab = self.fab
        row = r * fab.O + out
        vq = row * fab.I + in_port
        tail = int(self._voq[vq]) - 1
        if tail < 0:
            return
        # The circular chain, head (the tail's successor) to tail.
        chain = [int(self.pool_next[tail])]
        while chain[-1] != tail:
            chain.append(int(self.pool_next[chain[-1]]))
        rows = np.asarray(chain, dtype=np.int64)
        self._voq[vq] = 0
        self.backlog[row] -= rows.size
        if self._kspan is not None:
            self.row_mask[row, in_port >> 6] &= ~np.uint64(1 << (in_port & 63))
            if self.backlog[row] == 0:
                self.busy_rows[row >> 6] &= ~np.uint64(1 << (row & 63))
        if return_credit:
            deg = int(fab.deg[r])
            if in_port < deg:
                upstream = int(fab.nbr_mat[r, in_port])
                up_port = fab.port_toward(upstream, r)
                vcs = np.minimum(
                    self.pool_hop[rows] - 1, self.config.num_vcs - 1
                )
                np.add.at(self.credits, (upstream, up_port, vcs), 1)
            else:
                self.ep_credit[int(fab.ep_off[r]) + in_port - deg] += rows.size
        self._drop_flit_rows(rows)

    def _drop_fifo(self, e: int) -> None:
        """Drop endpoint ``e``'s source FIFO, flit by flit, front to back."""
        ps = self.config.packet_size
        p, first = int(self.src_head[e]), int(self.src_seq[e])
        if p < 0:
            return
        pids, seqs = [], []
        while p >= 0:
            pids += [p] * (ps - first)
            seqs += range(first, ps)
            p, first = int(self.pkt_next[p]), 0
        self.src_head[e] = self.src_tail[e] = -1
        self.src_seq[e] = 0
        self._drop_flits(np.asarray(pids), np.asarray(seqs))

    def _apply_fault_delta(self, delta) -> None:
        """Apply one epoch transition in the canonical order."""
        fab = self.fab
        depth = self.config.vc_depth
        self.policy.retable(delta.tables)
        self._fault.note_mark(self.now, len(self._stat.latencies))
        for u, v in delta.down_links:
            for r, nbr in ((u, v), (v, u)):
                p = fab.port_toward(r, nbr)
                # Rule 1: nothing may travel toward the dead link.
                for in_port in range(int(fab.P_arr[r])):
                    self._drop_vq(r, in_port, p, return_credit=True)
                # Rule 2: the link's wire and input buffer are lost.
                for out in list(range(int(fab.deg[r]))) + [fab.OE]:
                    self._drop_vq(r, p, out, return_credit=False)
                self.dead_row[r * fab.O + p] = True
        for r in delta.down_routers:
            # Incident links died above; drop the residue (injection
            # inputs) and the endpoints' source FIFOs.
            for in_port in range(int(fab.P_arr[r])):
                for out in list(range(int(fab.deg[r]))) + [fab.OE]:
                    self._drop_vq(r, in_port, out, return_credit=False)
            for e in range(int(fab.ep_off[r]), int(fab.ep_off[r + 1])):
                self._drop_fifo(e)
            self.dead_row[r * fab.O + fab.OE] = True
        for u, v in delta.up_links:
            for r, nbr in ((u, v), (v, u)):
                p = fab.port_toward(r, nbr)
                # Death emptied the downstream input buffer, so full
                # depth is exact — credit conservation holds.
                self.credits[r, p, :] = depth
                self.dead_row[r * fab.O + p] = False
        for r in delta.up_routers:
            self.ep_credit[int(fab.ep_off[r]) : int(fab.ep_off[r + 1])] = depth
            self.dead_row[r * fab.O + fab.OE] = False

    def _sample(self, done) -> None:
        """Latency and hop-count samples of the measured packets among
        ``done``, this cycle's completions in recording order."""
        measured = done[self.pkt_measured[done]]
        if measured.size:
            self._lat.extend(self.now - self.pkt_t_created[measured])
            self._hops.extend(self.pkt_len[measured] - 1)

    def advance(self, n: int) -> None:
        """Run ``n`` cycles: as ``kcycles`` spans, or on the numpy path.

        The stretch is split at every fault epoch start, and each epoch
        is applied on its first cycle, in Python, ahead of that cycle's
        span.  Spans run while :class:`~repro.flitsim.kspan.KernelSpan`
        binds the cell; from the cycle it declines the simulator runs
        the numpy path — the same arrays, the same results — and never
        switches back.  A closed loop stops the cycle after its workload
        completes.  Cycles whose ready or creation stamps would pass
        their int32 ceilings are never started: the stretch runs up to
        them, then raises.
        """
        room = max(self._cycles_left(), 0)
        if n > room:
            self.advance(room)
            if self._wl is None or not self._wl.done:
                raise self._clock_overflow()
            return
        end = self.now + n
        state, fault = self._wl, self._fault
        while self.now < end and not (state is not None and state.done):
            self._fault_phase()
            if self._kspan is not None and not self._kspan.bind(self):
                self._decline_spans()
            if self._kspan is None:
                self._numpy_cycle()
                continue
            stop = end
            epoch = fault.next_epoch_start(self.now) if fault is not None else None
            if epoch is not None:
                stop = min(stop, epoch)
            self._kspan.run(self, stop - self.now)

    def _decline_spans(self) -> None:
        """Run the numpy path from now on, without the spans' own state.

        ``kselect`` may still serve :meth:`accelerated_select`; it reads
        the credits, the backlog and the port map alone.  So the output
        ports per packet hop, the occupancy bits and the grant and tail
        records go, their ``SimState`` fields bound to NULL, and no grow
        copies or drop maintains them again.
        """
        self._kspan = None
        self._slot_arrays = [a for a in self._slot_arrays if a[0] != "route_port"]
        for attr in ("route_port", "row_mask", "busy_rows", "_grants", "_tail_pids"):
            delattr(self, attr)
            self._bind({attr.lstrip("_"): None})

    def _fault_phase(self) -> None:
        """Protocol step 0: apply the epoch taking effect this cycle."""
        if self._fault is not None:
            delta = self._fault.advance(self.now)
            if delta is not None:
                self._apply_fault_delta(delta)

    def _cycles_left(self) -> int:
        """Cycles from ``now`` whose flits' ready stamps and packets'
        creation stamps fit in int32."""
        last = min(_READY_MAX - self._hop_latency, _CREATED_MAX)
        return last - self.now + 1

    def _clock_overflow(self) -> OverflowError:
        if self.now > _CREATED_MAX:
            return OverflowError(
                f"now={self.now}: a packet created this cycle would pass the "
                f"int32 creation stamps of pkt_t_created (at most "
                f"{_CREATED_MAX})"
            )
        return OverflowError(
            f"now={self.now}: a flit forwarded this cycle would be ready at "
            f"cycle {self.now + self._hop_latency}, past the int32 ready "
            f"stamps of the flit records (at most {_READY_MAX})"
        )

    def step(self) -> None:
        """Advance the simulation by one cycle: ``advance(1)``."""
        self.advance(1)

    def _numpy_cycle(self) -> None:
        """Protocol steps 1-3 of one cycle in numpy, after the fault phase."""
        self._reserve()
        if self._wl is not None:
            self._inject_workload()
        else:
            self._inject()
        self._feed()
        self._route_phase()
        if self._wl is not None:
            self._wl.commit(self.now)
        self.now += 1
