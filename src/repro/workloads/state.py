"""Closed-loop bookkeeping shared verbatim by both simulation engines.

The golden rule of the simulator pair — flat and reference produce
**bit-identical** results per seed — extends to workloads by pushing
every semantic decision of the closed-loop protocol into this one class,
which both engines drive at the same points of the cycle:

1. **Injection** (cycle start): :meth:`pop_ready` drains the ready
   queue — messages whose prerequisites have all completed, in FIFO
   (eligibility cycle, then ascending id) order.  Each message expands
   into ``ceil(size / packet_size)`` packets of exactly ``packet_size``
   flits (wire size rounds up to whole packets); the engine then makes
   *one* batched ``select_routes`` call over all packets of the cycle in
   message-major, packet-minor order — so both engines consume the RNG
   stream identically, and no Bernoulli draw happens at all in workload
   mode.
2. **Endpoint choice**: packets enter the source FIFO of an endpoint of
   the message's source router picked by a per-router round-robin
   counter (:meth:`next_endpoints`), spreading concurrent messages over
   the router's full injection bandwidth deterministically.
3. **Completion** (router phase): when a packet's tail flit ejects the
   engine reports it via :meth:`note_tails`; a message completes when
   its last packet ejects.
4. **Commit** (cycle end, before ``now`` advances): :meth:`commit`
   processes this cycle's completions in ascending message id order,
   decrements dependents' pending counts, and appends newly eligible
   messages to the ready queue (ascending id) — injectable from the
   *next* cycle, mirroring hardware's one-cycle dependency turnaround.

Everything that moves during a run is an int64 array — the ready queue
is a buffer with its length in :attr:`WorkloadState._tally`, beside the
completed-message and flit-hop tallies — so the flat engine's compiled
spans (``kcycles``, :mod:`repro.flitsim.kspan`) walk and write this very
object in place, between the same Python calls the numpy path and the
reference engine make.  There is one state, not a C mirror.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.message import Workload

__all__ = ["WorkloadState"]

#: cells of ``WorkloadState._tally`` (``WL_*`` in the kernel source)
_READY_LEN, _COMPLETED, _FLIT_HOPS = range(3)


class WorkloadState:
    """Mutable per-run workload progress (one instance per simulator)."""

    def __init__(self, workload: Workload, packet_size: int, topo):
        workload.validate_topology(topo)
        self.workload = workload
        self.packet_size = int(packet_size)
        m = workload.num_messages
        #: wire packets per message (payload rounded up to whole packets)
        self.msg_pkts = -(-workload.size // self.packet_size)
        self.rem_pkts = self.msg_pkts.copy()
        self.pending = workload.dep_counts.copy()
        self.eligible_cycle = np.full(m, -1, dtype=np.int64)
        self.complete_cycle = np.full(m, -1, dtype=np.int64)
        roots = workload.roots
        self.eligible_cycle[roots] = 0
        #: FIFO of eligible-but-not-yet-injected message ids: the first
        #: ``_tally[_READY_LEN]`` entries.  A message turns eligible
        #: once, so one slot each is room for any queue.
        self.ready = np.empty(m, dtype=np.int64)
        self.ready[: roots.size] = roots
        #: queue length, completed messages, flit hops (see properties)
        self._tally = np.zeros(3, dtype=np.int64)
        self._tally[_READY_LEN] = roots.size
        #: per-router round-robin injection counters (raw, mod at use)
        self._inj_rr = np.zeros(topo.num_routers, dtype=np.int64)
        self._conc = np.asarray(topo.concentration, dtype=np.int64)
        self._fin_now: list = []

    # ------------------------------------------------------------------
    # Progress
    # ------------------------------------------------------------------
    @property
    def completed(self) -> int:
        """Messages whose last packet's tail flit has ejected."""
        return int(self._tally[_COMPLETED])

    @property
    def flit_hops(self) -> int:
        """Total link traversals weighted by flits (wire flits x hops)."""
        return int(self._tally[_FLIT_HOPS])

    @property
    def done(self) -> bool:
        """True once every message's tail flit has ejected."""
        return self.completed == self.workload.num_messages

    @property
    def wire_flits(self) -> int:
        """Total flits the workload puts on the wire (packet-rounded)."""
        return int(self.msg_pkts.sum()) * self.packet_size

    # ------------------------------------------------------------------
    # Injection side
    # ------------------------------------------------------------------
    def pop_ready(self) -> np.ndarray:
        """Drain the ready queue (FIFO order) as an id array."""
        k = int(self._tally[_READY_LEN])
        self._tally[_READY_LEN] = 0
        return self.ready[:k].copy()

    def next_endpoint(self, router: int) -> int:
        """Scalar round-robin endpoint (local index) at ``router``."""
        local = int(self._inj_rr[router] % self._conc[router])
        self._inj_rr[router] += 1
        return local

    def next_endpoints(self, routers: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`next_endpoint` over a packet batch, in order.

        Equivalent to calling the scalar form once per packet in array
        order: within a batch, packets at the same router take
        consecutive round-robin slots.
        """
        routers = np.asarray(routers, dtype=np.int64)
        k = routers.size
        if k == 0:
            return np.empty(0, dtype=np.int64)
        if k <= 8:
            # Small batches dominate steady-state collectives; the
            # scalar loop beats eight-op vectorization well past k=8
            # and is the definitional order, so trivially identical.
            local = np.empty(k, dtype=np.int64)
            rr, conc = self._inj_rr, self._conc
            for i in range(k):
                r = routers[i]
                local[i] = rr[r] % conc[r]
                rr[r] += 1
            return local
        order = np.argsort(routers, kind="stable")
        rs = routers[order]
        first = np.empty(k, dtype=bool)
        first[0] = True
        np.not_equal(rs[1:], rs[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        rank = np.arange(k, dtype=np.int64) - starts[np.cumsum(first) - 1]
        local = np.empty(k, dtype=np.int64)
        local[order] = (self._inj_rr[rs] + rank) % self._conc[rs]
        np.add.at(self._inj_rr, rs, 1)
        return local

    # ------------------------------------------------------------------
    # Completion side
    # ------------------------------------------------------------------
    def note_tails(self, mids: np.ndarray, flit_hops: int) -> None:
        """Record this cycle's ejected tail flits (any order, batched).

        ``mids`` carries one entry per tail flit; ``flit_hops`` the
        summed (route hops x packet flits) of those packets.
        """
        mids = np.asarray(mids, dtype=np.int64)
        if mids.size == 0:
            return
        self._tally[_FLIT_HOPS] += int(flit_hops)
        if mids.size == 1:
            # The common steady-state case: one tail this cycle.
            m = int(mids[0])
            self.rem_pkts[m] -= 1
            if self.rem_pkts[m] == 0:
                self._fin_now.append(mids)
            return
        np.subtract.at(self.rem_pkts, mids, 1)
        u = np.unique(mids)
        fin = u[self.rem_pkts[u] == 0]
        if fin.size:
            self._fin_now.append(fin)

    def commit(self, now: int) -> None:
        """Process completions recorded this cycle (call once per cycle,
        after the router phase, before ``now`` advances)."""
        if not self._fin_now:
            return
        fin = (
            self._fin_now[0]
            if len(self._fin_now) == 1
            else np.unique(np.concatenate(self._fin_now))
        )
        self._fin_now = []
        self.complete_cycle[fin] = now
        self._tally[_COMPLETED] += fin.size
        indptr = self.workload.dependents_indptr
        indices = self.workload.dependents_indices
        if fin.size == 1:
            # One completion: its dependents are distinct by
            # construction, so the dedup passes collapse away; sorting
            # ``newly`` keeps the ready-queue order identical to the
            # unique-based path below.
            m = int(fin[0])
            deps = indices[indptr[m] : indptr[m + 1]]
            if deps.size == 0:
                return
            self.pending[deps] -= 1
            newly = deps[self.pending[deps] == 0]
            if newly.size > 1:
                newly = np.sort(newly)
        else:
            spans = [indices[indptr[m] : indptr[m + 1]] for m in fin]
            deps = (
                np.concatenate(spans) if spans else np.empty(0, dtype=np.int64)
            )
            if deps.size == 0:
                return
            np.subtract.at(self.pending, deps, 1)
            touched = np.unique(deps)
            newly = touched[self.pending[touched] == 0]
        if newly.size:
            self.eligible_cycle[newly] = now
            k = int(self._tally[_READY_LEN])
            self.ready[k : k + newly.size] = newly
            self._tally[_READY_LEN] = k + newly.size
