"""Engine-shared dynamic-fault bookkeeping.

The golden rule of the simulator pair — flat and reference produce
**bit-identical** results per seed — extends to faults the same way it
does to workloads: every semantic decision lives in this one class, and
both engines drive it at the same points of the cycle.

At construction the timeline is compiled into **epochs**: every distinct
event cycle starts one, with the effective dead-link set (explicit link
failures plus all links incident to dead routers), the dead-router set,
and *repaired routing tables* precomputed per epoch (incrementally from
the previous tables, memoized per topology across cells).  A timeline
whose surviving routers ever disconnect raises here, at attach time —
deterministically, before a single cycle runs.

Precomputing the epochs also solves buffer sizing: degraded paths can be
longer than the intact worst case, so :meth:`pin_policy` walks the
policy through every epoch's tables once, ratcheting ``max_hops`` to the
global ceiling before VC counts and route buffers are derived from it.

During the run, engines call :meth:`advance` at the top of a cycle; on
an event cycle it returns the epoch's :class:`FaultDelta` (sorted
newly-dead/newly-alive links and routers plus the repaired tables) and
the engine applies the masks and drops in the canonical order documented
in :mod:`repro.flitsim.engine`.  The reference engine asks every
cycle; the run loop makes :meth:`next_epoch_start` one of its deadlines,
and the flat engine splits any stretch there, so its whole spans of
cycles ask only at their start.  Drop/blackhole/retransmit accounting
flows back through the ``note_*`` methods, keeping the counters — and
the retransmit queue order, which feeds route selection and therefore
the RNG stream — identical across engines.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass

import numpy as np

from repro.faults.timeline import ROUTER_KINDS, FaultTimeline
from repro.obs import counter as _obs_counter
from repro.routing.degraded import fault_epoch_tables

__all__ = ["FaultDelta", "FaultState", "prepare_fault_policy"]

#: per-topology memo of fault-epoch tables keyed by (dead links, dead
#: routers); sweeps running many cells on one topology repair each
#: distinct failure state once
_EPOCH_TABLES_MEMO: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

#: distinct failure states cached per topology (epoch sets are small;
#: the cap only guards against unbounded many-spec sweeps)
_EPOCH_MEMO_CAP = 32


@dataclass(frozen=True)
class FaultDelta:
    """State change at one epoch boundary (all tuples sorted)."""

    cycle: int
    down_links: tuple
    up_links: tuple
    down_routers: tuple
    up_routers: tuple
    tables: object


@dataclass(frozen=True)
class _Epoch:
    start: int
    dead_links: frozenset
    dead_routers: frozenset
    tables: object


def _tables_for(topo, dead_links: frozenset, dead_routers: frozenset, base):
    """Memoized repaired tables for one failure state of ``topo``."""
    if not dead_links and not dead_routers:
        return base
    memo = _EPOCH_TABLES_MEMO.get(topo)
    if memo is None:
        memo = _EPOCH_TABLES_MEMO[topo] = {}
    key = (dead_links, dead_routers)
    tables = memo.get(key)
    if tables is None:
        while len(memo) >= _EPOCH_MEMO_CAP:
            memo.pop(next(iter(memo)))
        tables = memo[key] = fault_epoch_tables(
            topo, sorted(dead_links), sorted(dead_routers), base=base
        )
    return tables


def prepare_fault_policy(policy, timeline: FaultTimeline, topo):
    """Ratchet ``policy.max_hops`` over every epoch of ``timeline``.

    Call before deriving VC counts (``auto_sim_config``) for a faulted
    cell: degraded shortest paths can exceed the intact worst case, and
    the simulator sizes buffers from ``max_hops`` once.  Compiles a
    throwaway :class:`FaultState` — one epoch fold, one pinning code
    path — whose repaired tables are memoized, so the engine's own state
    construction reuses them.  Returns the policy.
    """
    FaultState(timeline, topo, policy)
    return policy


class FaultState:
    """Mutable per-run fault progress (one instance per simulator).

    Single-run by design: counters, the retransmit queue, and the epoch
    cursor all advance monotonically.  Construct a fresh simulator (and
    with it a fresh state) per run.
    """

    def __init__(self, timeline: FaultTimeline, topo, policy):
        self.timeline = timeline
        self.topo = topo
        graph = topo.graph
        n = graph.n
        # Validate events against the topology once, up front.
        for e in timeline.events:
            if e.kind in ("link_down", "link_up"):
                u, v = e.link
                if not (0 <= u < n and 0 <= v < n) or not graph.has_edge(u, v):
                    raise ValueError(
                        f"fault event references non-edge ({e.u}, {e.v})"
                    )
            elif not 0 <= e.u < n:
                raise ValueError(f"fault event references router {e.u} >= {n}")

        base = policy.tables
        # Per-router incident links, one O(E) pass — and only when some
        # router event actually needs the map.
        incident: dict = {}
        if any(e.kind in ROUTER_KINDS for e in timeline.events):
            incident = {r: set() for r in range(n)}
            for u, v in graph.edges():
                link = (int(min(u, v)), int(max(u, v)))
                incident[link[0]].add(link)
                incident[link[1]].add(link)
            incident = {r: frozenset(s) for r, s in incident.items()}

        # Compile epochs: one per distinct event cycle, each carrying
        # the effective dead sets and repaired tables; epoch 0 is the
        # pristine network.  Raises here if survivors ever disconnect.
        dead_links: set = set()
        dead_routers: set = set()
        self.epochs = [_Epoch(0, frozenset(), frozenset(), base)]
        self.deltas: list = [None]
        # timeline.events is cycle-sorted (stable), so one groupby pass
        # yields each epoch's event batch in order.
        for cycle, batch in itertools.groupby(
            timeline.events, key=lambda e: e.cycle
        ):
            for e in batch:
                if e.kind == "link_down":
                    dead_links.add(e.link)
                elif e.kind == "link_up":
                    dead_links.discard(e.link)
                elif e.kind == "router_down":
                    dead_routers.add(int(e.u))
                else:
                    dead_routers.discard(int(e.u))
            fl, fr = frozenset(dead_links), frozenset(dead_routers)
            eff = fl | frozenset().union(*(incident[r] for r in fr)) if fr else fl
            prev = self.epochs[-1]
            prev_eff = self._effective(prev, incident)
            tables = _tables_for(topo, fl, fr, base)
            self.epochs.append(_Epoch(int(cycle), fl, fr, tables))
            self.deltas.append(
                FaultDelta(
                    cycle=int(cycle),
                    down_links=tuple(sorted(eff - prev_eff)),
                    up_links=tuple(sorted(prev_eff - eff)),
                    down_routers=tuple(sorted(fr - prev.dead_routers)),
                    up_routers=tuple(sorted(prev.dead_routers - fr)),
                    tables=tables,
                )
            )

        # Pin the policy's hop ceiling across every epoch, then park it
        # back on the pristine tables for cycle 0.
        for ep in self.epochs[1:]:
            policy.retable(ep.tables)
        policy.retable(base)

        #: router/endpoint survival masks (engines read these directly)
        self.router_alive = np.ones(n, dtype=bool)
        self.ep_alive = np.ones(topo.num_endpoints, dtype=bool)
        #: fast-path flag: True once any router is currently dead
        self.any_dead_router = False
        self.retransmit_enabled = bool(timeline.retransmit)

        self._next = 1
        self._started = False
        #: the retransmit queue, lost packets' message ids in drop order:
        #: the first ``_rt_len[0]`` entries, a buffer the flat engine's
        #: spans push onto and pop in C
        self._rt_queue = np.empty(64, dtype=np.int64)
        self._rt_len = np.zeros(1, dtype=np.int64)
        #: (cycle, latency-sample index) at each applied event
        self.marks: list = []
        self.dropped_flits = 0
        self.dropped_packets = 0
        self.damaged_packets = 0
        self.blackholed_packets = 0
        self.retransmitted_packets = 0

    @staticmethod
    def _effective(epoch: _Epoch, incident) -> frozenset:
        if not epoch.dead_routers:
            return epoch.dead_links
        return epoch.dead_links | frozenset().union(
            *(incident[r] for r in epoch.dead_routers)
        )

    # ------------------------------------------------------------------
    # Run lifecycle
    # ------------------------------------------------------------------
    def begin_run(self, policy) -> None:
        """Park the policy on epoch-0 tables; rejects a second run."""
        if self._started:
            raise RuntimeError(
                "FaultState is single-run; construct a fresh simulator"
            )
        self._started = True
        policy.retable(self.epochs[0].tables)

    def next_epoch_start(self, now: int) -> "int | None":
        """First cycle after ``now`` an unapplied epoch starts (None: never).

        The run loop's fault deadline: an epoch due *at* ``now`` belongs
        to the coming cycle, whose :meth:`advance` call applies it.
        """
        for epoch in self.epochs[self._next :]:
            if epoch.start > now:
                return epoch.start
        return None

    def advance(self, now: int) -> "FaultDelta | None":
        """The epoch delta taking effect at cycle ``now`` (None if any).

        Engines call this at the top of a cycle, before injection, and
        apply the returned delta (masks, drops, policy retable) in the
        canonical order.  Survival masks update here so injection
        filters and the applying engine agree within the cycle.
        """
        if self._next >= len(self.epochs) or now < self.epochs[self._next].start:
            return None
        delta = self.deltas[self._next]
        self._next += 1
        for r in delta.down_routers:
            self.router_alive[r] = False
            lo, hi = self.topo.endpoint_offsets[r], self.topo.endpoint_offsets[r + 1]
            self.ep_alive[lo:hi] = False
        for r in delta.up_routers:
            self.router_alive[r] = True
            lo, hi = self.topo.endpoint_offsets[r], self.topo.endpoint_offsets[r + 1]
            self.ep_alive[lo:hi] = True
        self.any_dead_router = not bool(self.router_alive.all())
        return delta

    def note_mark(self, now: int, sample_index: int) -> None:
        """Record where in the latency-sample stream an event landed."""
        self.marks.append((int(now), int(sample_index)))

    # ------------------------------------------------------------------
    # Drop accounting (both engines call in identical order).  The obs
    # counters shadow the per-run fields into the process-global metric
    # registry — pure bookkeeping, never consulted by either engine, so
    # the bit-identity contract is untouched.
    # ------------------------------------------------------------------
    def note_flit_drops(self, count: int) -> None:
        self.dropped_flits += int(count)
        _obs_counter("faults.flit_drops").inc(int(count))

    def note_tail_drop(self, mid: int) -> None:
        """A packet's tail flit was lost: the packet is gone."""
        self.note_tail_drops((mid,))

    def note_tail_drops(self, mids) -> None:
        """Packets whose tail flits were lost, in drop order (-1: open loop).

        Workload packets (``mid >= 0``) re-enter the retransmit queue
        when the timeline enables it; queue order is drop order, which
        both engines produce identically.
        """
        mids = np.asarray(mids, dtype=np.int64)
        self.count_tail_drops(mids.size)
        if self.retransmit_enabled:
            lost = mids[mids >= 0]
            self.reserve_retransmits(lost.size)
            n = int(self._rt_len[0])
            self._rt_queue[n : n + lost.size] = lost
            self._rt_len[0] = n + lost.size

    def count_tail_drops(self, packets: int) -> None:
        """:meth:`note_tail_drops` of packets whose messages, if any, are
        queued already (a ``kcycles`` span pushes them itself)."""
        self.dropped_packets += int(packets)
        _obs_counter("faults.tail_drops").inc(int(packets))

    def reserve_retransmits(self, k: int) -> None:
        """Room for ``k`` more queued retransmits; the buffer at least
        doubles."""
        n = int(self._rt_len[0])
        if n + k > self._rt_queue.size:
            grown = np.empty(max(n + k, 2 * self._rt_queue.size), dtype=np.int64)
            grown[:n] = self._rt_queue[:n]
            self._rt_queue = grown

    def note_blackholed(self, packets: int) -> None:
        """Packets that could never inject (dead source or destination)."""
        self.blackholed_packets += int(packets)
        _obs_counter("faults.blackholed_packets").inc(int(packets))

    def note_damaged_deliveries(self, packets: int) -> None:
        """Packets whose tail ejected after losing body flits.

        Possible only when a link revives mid-packet: flits ahead of the
        tail were dropped at the dead link, the stalled tail crossed
        after repair.  The packet still counts as delivered (its tail
        ejection records the latency sample and credits its workload
        message), but the payload is incomplete — this counter keeps
        that data loss visible.
        """
        self.damaged_packets += int(packets)

    # ------------------------------------------------------------------
    # Injection-side filters
    # ------------------------------------------------------------------
    def filter_messages(self, mids, srcs, dsts, pkts) -> np.ndarray:
        """Drop ready messages whose endpoints are dead (blackholed)."""
        ok = self.router_alive[srcs] & self.router_alive[dsts]
        if not ok.all():
            self.note_blackholed(int(pkts[~ok].sum()))
        return mids[ok]

    def pop_retransmits(self, workload) -> np.ndarray:
        """Drain the retransmit queue (FIFO) as a message-id array.

        Entries whose source or destination router is dead *now* are
        permanently blackholed instead of re-queued.
        """
        q = self._rt_queue[: int(self._rt_len[0])].copy()
        self._rt_len[0] = 0
        if not q.size:
            return q
        ok = self.router_alive[workload.src[q]] & self.router_alive[workload.dst[q]]
        if not ok.all():
            self.note_blackholed(int((~ok).sum()))
        kept = q[ok]
        self.retransmitted_packets += int(kept.size)
        return kept

    # ------------------------------------------------------------------
    # Result assembly
    # ------------------------------------------------------------------
    @property
    def applied_events(self) -> int:
        """Epoch transitions that actually fired during the run."""
        return self._next - 1

    def build_result(self, stat, series=None):
        from repro.faults.result import build_fault_result

        return build_fault_result(self, stat, series=series)
