"""Reference engine: the readable dict-of-deques simulator.

Microarchitectural model, matching the paper's Section VIII-A setup:

* **Input-queued routers**, with each input port organized as virtual
  output queues (VOQs) — the standard idealization of a VC-allocated
  input-queued router that avoids spurious head-of-line blocking across
  outputs.  Downstream buffer space remains partitioned per *hop class*
  (virtual channel) with credit-based flow control.
* **Virtual channels as hop classes**: a flit that has taken ``h`` hops
  occupies class ``min(h-1, V-1)`` downstream.  Class indices are
  non-decreasing along any route, so routing is deadlock-free for paths of
  up to ``V + 1`` routers — the paper's 4 VCs cover Valiant's 4-hop worst
  case.
* **Source routing**: the full path is chosen at injection by a
  :class:`~repro.routing.policies.RoutingPolicy`, which may inspect local
  output-buffer occupancy through credits — the UGAL-L information model.
* **Bernoulli injection** of fixed-size packets (4 flits by default), one
  injection FIFO per endpoint; ejection bandwidth is one flit per cycle
  per endpoint of the destination router.
* **Warmup + measurement window** methodology, with an optional drain so
  measured packets finishing late still contribute latency samples.

This implementation follows the shared cycle protocol documented in
:mod:`repro.flitsim.engine` and is kept deliberately simple: it is the
behavioural oracle the struct-of-arrays engine
(:class:`~repro.flitsim.flatcore.FlatSimulator`) is pinned against, and
the engine of choice when single-stepping a credit or arbitration bug.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.flitsim.engine import (
    EJECT,
    SimConfig,
    SimResult,
    SimulatorCore,
    make_fault_state,
    make_workload_state,
    validate_sim_args,
)
from repro.flitsim.packet import Packet
from repro.flitsim.traffic import TrafficPattern
from repro.routing.policies import RoutingPolicy, iter_routes
from repro.topologies.base import Topology
from repro.utils.rng import make_rng

__all__ = ["NetworkSimulator"]


class NetworkSimulator(SimulatorCore):
    """Cycle-accurate simulation of one (topology, routing, traffic) point.

    Also implements the :class:`~repro.routing.policies.CongestionView`
    protocol so adaptive policies can read local output occupancy.
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
        # degraded ceiling, which the VC validation below checks against.
        self._fault = make_fault_state(faults, topo, policy)
        validate_sim_args(topo, policy, load, config)
        # Closed-loop bookkeeping (None in open-loop Bernoulli mode);
        # this cycle's ejected-tail message ids and their flit-hops.
        self._wl = make_workload_state(workload, config, topo)
        self._wl_tails: list = []
        self._wl_hops = 0

        graph = topo.graph
        n = graph.n
        self.now = 0
        self._pid = 0

        # Port maps: output i of router r leads to neighbor nbrs[r][i]; the
        # reverse (input port index at that neighbor) is precomputed.
        self.nbrs = [graph.neighbors(r) for r in range(n)]
        self.port_of = [
            {int(v): i for i, v in enumerate(self.nbrs[r])} for r in range(n)
        ]
        self.rev_port = [
            [self.port_of[int(v)][r] for v in self.nbrs[r]] for r in range(n)
        ]
        # Input ports 0..deg-1 are link inputs; deg..deg+p-1 injection ports.
        self.num_in_ports = [
            len(self.nbrs[r]) + int(topo.concentration[r]) for r in range(n)
        ]

        V = config.num_vcs
        # Virtual output queues: voq[r][(in_port, out_port)] -> deque of
        # flits (packet, seq, hop_idx, ready_cycle).
        self.voq: list[dict] = [dict() for _ in range(n)]
        # by_out[r][out_port] -> set of voq keys with content for that out.
        self.by_out: list[dict] = [dict() for _ in range(n)]
        # credits[r][out_port][vc]: free downstream slots per hop class.
        self.credits = [
            [[config.vc_depth] * V for _ in self.nbrs[r]] for r in range(n)
        ]
        # Incrementally-maintained flit backlog per link output: the
        # number of flits queued in this router's VOQs for that output.
        # Makes each output_occupancies read O(1) instead of a per-decision
        # re-sum over the by_out key sets.
        self.out_backlog = [[0] * len(self.nbrs[r]) for r in range(n)]
        # Unbounded per-endpoint source FIFOs plus per-endpoint injection
        # port credits (free slots in the injection input buffer).
        self.src_q = [
            [deque() for _ in range(int(topo.concentration[r]))] for r in range(n)
        ]
        self.inj_credit = [
            [config.vc_depth] * int(topo.concentration[r]) for r in range(n)
        ]
        # Round-robin pointers per (router, out_port): the input port the
        # next scan starts from.
        self.rr: list[dict] = [dict() for _ in range(n)]
        # Dead output ports per router (EJECT joins when the router is
        # down); maintained by _apply_fault_delta, empty without faults.
        self.dead_out: list[set] = [set() for _ in range(n)]
        # Routers that may have movable flits / non-empty source FIFOs.
        self.active: set[int] = set()
        self.src_active: set[int] = set()

        self.result: "SimResult | None" = None
        self._measuring = False
        self._stat = SimResult(load, 0, topo.num_endpoints)
        # Optional cumulative per-link grant counts, indexed
        # ``indptr[r] + out`` (:meth:`attach_link_telemetry`): a router's
        # ports are its sorted neighbors, so this is the CSR edge order.
        self._ltel: "np.ndarray | None" = None

    # ------------------------------------------------------------------
    # CongestionView protocol
    # ------------------------------------------------------------------
    def output_occupancies(self, routers, next_hops) -> np.ndarray:
        """Output-queue length estimates toward each ``next_hops[i]``.

        The UGAL-L signal: downstream first-hop-class occupancy (from
        credits) plus the flits queued in this router's own VOQs waiting
        for that output — together, the backlog a newly injected packet
        would sit behind.  Read pair by pair (this is the oracle), each
        O(1): the VOQ share is the incrementally maintained
        ``out_backlog`` counter.
        """
        depth = self.config.vc_depth
        occ = np.empty(len(routers), dtype=np.int64)
        for i, (r, v) in enumerate(zip(routers, next_hops)):
            r = int(r)
            port = self.port_of[r][int(v)]
            occ[i] = depth - self.credits[r][port][0] + self.out_backlog[r][port]
        return occ

    # ------------------------------------------------------------------
    # Injection
    # ------------------------------------------------------------------
    def _inject(self) -> None:
        cfg = self.config
        prob = self.load / cfg.packet_size
        if prob <= 0.0:
            return
        rng = self.rng
        topo = self.topo
        # Protocol step 1: one Bernoulli draw across all endpoints, then
        # batched destination and route selection for the winners.
        winners = np.flatnonzero(rng.random(topo.num_endpoints) < prob)
        if winners.size == 0:
            return
        ft = self._fault
        if ft is not None and ft.any_dead_router:
            # The Bernoulli draw above always covers every endpoint (the
            # stream is failure-independent); dead ones just can't win.
            winners = winners[ft.ep_alive[winners]]
            if winners.size == 0:
                return
        srcs = topo.endpoint_routers[winners]
        dsts = self.traffic.dest_routers(srcs, rng)
        if ft is not None and ft.any_dead_router:
            keep = ft.router_alive[dsts]
            if not keep.all():
                ft.note_blackholed(int((~keep).sum()))
                winners, srcs, dsts = winners[keep], srcs[keep], dsts[keep]
                if winners.size == 0:
                    return
        routes = self.policy.select_routes(srcs, dsts, rng, congestion=self)
        offsets = topo.endpoint_offsets
        for endpoint, src, route in zip(winners, srcs, iter_routes(routes)):
            src = int(src)
            pkt = Packet(self._pid, route, cfg.packet_size, self.now)
            self._pid += 1
            pkt.measured = self._measuring
            if pkt.measured:
                self._stat.injected_flits += cfg.packet_size
            q = self.src_q[src][int(endpoint) - int(offsets[src])]
            for seq in range(cfg.packet_size):
                q.append((pkt, seq, 0, self.now))
            self.src_active.add(src)

    def _inject_workload(self) -> None:
        """Closed-loop protocol step 1: drain the ready queue.

        Every eligible message expands into fixed-size packets; one
        batched route selection covers the whole cycle (message-major,
        packet-minor — the RNG-consumption order both engines share),
        and each packet enters the source FIFO of a round-robin-chosen
        endpoint at the message's source router.
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
            pkt_mid = np.concatenate([rt, np.repeat(mids, st.msg_pkts[mids])])
        else:
            pkt_mid = np.repeat(mids, st.msg_pkts[mids])
        if pkt_mid.size == 0:
            return
        cfg = self.config
        ps = cfg.packet_size
        srcs = st.workload.src[pkt_mid]
        dsts = st.workload.dst[pkt_mid]
        routes = self.policy.select_routes(srcs, dsts, self.rng, congestion=self)
        for mid, src, route in zip(pkt_mid, srcs, iter_routes(routes)):
            src = int(src)
            pkt = Packet(self._pid, route, ps, self.now)
            self._pid += 1
            pkt.mid = int(mid)
            pkt.measured = self._measuring
            if pkt.measured:
                self._stat.injected_flits += ps
            q = self.src_q[src][st.next_endpoint(src)]
            for seq in range(ps):
                q.append((pkt, seq, 0, self.now))
            self.src_active.add(src)

    def _feed_injection_ports(self) -> None:
        """Move flits from source FIFOs into injection-port VOQs.

        One flit per endpoint per cycle (the injection channel rate),
        subject to injection-buffer credits.
        """
        done: list[int] = []
        fault = self._fault is not None
        for r in sorted(self.src_active):
            any_left = False
            deg = len(self.nbrs[r])
            credits = self.inj_credit[r]
            for e, q in enumerate(self.src_q[r]):
                if not q:
                    continue
                if fault:
                    out, _vc = self._desired_output(r, q[0])
                    if out in self.dead_out[r]:
                        # Dead first hop: the flit drops before entering
                        # the injection buffer — no credit is consumed,
                        # and the endpoint's feed slot is spent.
                        self._record_drop(q.popleft())
                        if q:
                            any_left = True
                        continue
                if credits[e] > 0:
                    credits[e] -= 1
                    self._enqueue_voq(r, deg + e, q.popleft())
                if q:
                    any_left = True
            if not any_left:
                done.append(r)
        self.src_active.difference_update(done)

    # ------------------------------------------------------------------
    # Queue plumbing
    # ------------------------------------------------------------------
    def _desired_output(self, r: int, flit) -> tuple[int, int]:
        """(out_port, downstream hop class) for a flit at router ``r``."""
        pkt, _seq, hop_idx, _ready = flit
        if r == pkt.route[-1]:
            return EJECT, 0
        nxt = pkt.route[hop_idx + 1]
        out_port = self.port_of[r][nxt]
        vc = min(hop_idx, self.config.num_vcs - 1)
        return out_port, vc

    def _enqueue_voq(self, r: int, in_port: int, flit) -> None:
        out, _vc = self._desired_output(r, flit)
        key = (in_port, out)
        q = self.voq[r].get(key)
        if q is None:
            q = self.voq[r][key] = deque()
        q.append(flit)
        self.by_out[r].setdefault(out, set()).add(key)
        if out != EJECT:
            self.out_backlog[r][out] += 1
        self.active.add(r)

    # ------------------------------------------------------------------
    # Fault phase (protocol step 0): masks, drops, and route repair
    # ------------------------------------------------------------------
    def _record_drop(self, flit) -> None:
        """Account one dropped flit (tail flits lose their packet)."""
        pkt, seq, _hop, _ready = flit
        pkt.damaged = True
        self._fault.note_flit_drops(1)
        if seq == self.config.packet_size - 1:
            self._fault.note_tail_drop(pkt.mid)

    def _drop_queue(self, r: int, in_port: int, out: int, return_credit: bool) -> None:
        """Drop one VOQ wholesale, front to back (event-time drops).

        ``return_credit`` distinguishes rule 1 (flits queued *for* a dead
        output: their input-side slot credit goes back upstream) from
        rule 2 (flits *at* a dead link's input: the owning credits are
        the dead link's own and reset at revival).
        """
        key = (in_port, out)
        q = self.voq[r].pop(key, None)
        if not q:
            if q is not None:  # pragma: no cover - defensive
                self.voq[r][key] = q
            return
        for flit in q:
            if return_credit:
                self._return_credit(r, key, flit)
            self._record_drop(flit)
        if out != EJECT:
            self.out_backlog[r][out] -= len(q)
        keys = self.by_out[r].get(out)
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self.by_out[r][out]

    def _apply_fault_delta(self, delta) -> None:
        """Apply one epoch transition in the canonical order."""
        cfg = self.config
        self.policy.retable(delta.tables)
        self._fault.note_mark(self.now, len(self._stat.latencies))
        for u, v in delta.down_links:
            for r, nbr in ((u, v), (v, u)):
                p = self.port_of[r][nbr]
                # Rule 1: nothing may travel toward the dead link.
                for in_port in range(self.num_in_ports[r]):
                    self._drop_queue(r, in_port, p, return_credit=True)
                # Rule 2: the link's wire and input buffer are lost.
                for out in list(range(len(self.nbrs[r]))) + [EJECT]:
                    self._drop_queue(r, p, out, return_credit=False)
                self.dead_out[r].add(p)
        for r in delta.down_routers:
            # Incident links died above; drop the residue (injection
            # inputs) and the endpoints' source FIFOs.
            for in_port in range(self.num_in_ports[r]):
                for out in list(range(len(self.nbrs[r]))) + [EJECT]:
                    self._drop_queue(r, in_port, out, return_credit=False)
            for q in self.src_q[r]:
                while q:
                    self._record_drop(q.popleft())
            self.src_active.discard(r)
            self.dead_out[r].add(EJECT)
        for u, v in delta.up_links:
            for r, nbr in ((u, v), (v, u)):
                p = self.port_of[r][nbr]
                # Death emptied the downstream input buffer, so full
                # depth is exact — credit conservation holds.
                self.credits[r][p] = [cfg.vc_depth] * cfg.num_vcs
                self.dead_out[r].discard(p)
        for r in delta.up_routers:
            self.inj_credit[r] = [cfg.vc_depth] * len(self.inj_credit[r])
            self.dead_out[r].discard(EJECT)

    # ------------------------------------------------------------------
    # Router phase: decide every grant from cycle-start state, then apply
    # ------------------------------------------------------------------
    def _decide_router(self, r: int, grants: list) -> None:
        """Append this router's grants (chosen from current state)."""
        now = self.now
        voq = self.voq[r]
        by_out = self.by_out[r]
        deg = len(self.nbrs[r])
        num_in = self.num_in_ports[r]
        V = self.config.num_vcs
        # Link outputs in ascending port order, ejection last (the order
        # latency samples are recorded in).
        outs = [out for out in range(deg) if by_out.get(out)]
        if by_out.get(EJECT):
            outs.append(EJECT)
        for out in outs:
            max_grants = max(1, len(self.src_q[r])) if out == EJECT else 1
            ptr = self.rr[r].get(out, 0)
            last_granted = -1
            granted = 0
            for offset in range(num_in):
                in_port = (ptr + offset) % num_in
                q = voq.get((in_port, out))
                if not q:
                    continue
                flit = q[0]
                if flit[3] > now:
                    continue
                if out == EJECT:
                    dvc = 0
                else:
                    dvc = min(flit[2], V - 1)
                    if self.credits[r][out][dvc] <= 0:
                        continue
                grants.append((r, (in_port, out), out, dvc, flit))
                last_granted = in_port
                granted += 1
                if granted >= max_grants:
                    break
            if last_granted >= 0:
                self.rr[r][out] = (last_granted + 1) % num_in

    def _apply_grants(self, grants: list) -> None:
        for r, key, out, dvc, flit in grants:
            q = self.voq[r][key]
            q.popleft()
            if out != EJECT:
                self.out_backlog[r][out] -= 1
            if not q:
                keys = self.by_out[r][out]
                keys.discard(key)
                del self.voq[r][key]
                if not keys:
                    del self.by_out[r][out]
            self._return_credit(r, key, flit)
            self._forward(r, flit, out, dvc)

    def _return_credit(self, r: int, key, flit) -> None:
        in_port, _out = key
        deg = len(self.nbrs[r])
        if in_port >= deg:
            # Injection-port buffer slot freed.
            self.inj_credit[r][in_port - deg] += 1
            if self.src_q[r][in_port - deg]:
                self.src_active.add(r)
            return
        pkt, _seq, hop_idx, _ready = flit
        upstream = pkt.route[hop_idx - 1]
        up_out_port = self.port_of[upstream][r]
        vc = min(hop_idx - 1, self.config.num_vcs - 1)
        self.credits[upstream][up_out_port][vc] += 1

    def _forward(self, r: int, flit, out: int, dvc: int) -> None:
        cfg = self.config
        pkt, seq, hop_idx, _ready = flit
        if out == EJECT:
            if seq == cfg.packet_size - 1:
                pkt.t_ejected = self.now
                if pkt.damaged:
                    # A mid-packet link revival let the tail through
                    # after body flits were lost: delivered, incomplete.
                    self._fault.note_damaged_deliveries(1)
                if pkt.measured:
                    # Count even if completion lands in the drain phase —
                    # avoids survivor bias near saturation.
                    self._stat.latencies.append(pkt.latency)
                    self._stat.hop_counts.append(pkt.hops)
                if pkt.mid >= 0:
                    self._wl_tails.append(pkt.mid)
                    self._wl_hops += pkt.hops * cfg.packet_size
            if self._measuring:
                self._stat.ejected_flits += 1
            return
        nxt = int(self.nbrs[r][out])
        if self._ltel is not None:
            # Count at grant time, before fault doom filtering — the
            # flat engine's accounting point.
            self._ltel[self.topo.graph.indptr[r] + out] += 1
        in_port = self.rev_port[r][out]
        ready = self.now + cfg.link_latency + cfg.router_pipeline
        nxt_flit = (pkt, seq, hop_idx + 1, ready)
        if self._fault is not None:
            nxt_out, _vc = self._desired_output(nxt, nxt_flit)
            if nxt_out in self.dead_out[nxt]:
                # Dead output at the next router: the flit evaporates on
                # the wire — the credit toward nxt is never consumed.
                self._record_drop(nxt_flit)
                return
        self.credits[r][out][dvc] -= 1
        self._enqueue_voq(nxt, in_port, nxt_flit)

    # ------------------------------------------------------------------
    # Per-link telemetry (the surface run observers read; same names and
    # accounting points as the flat engine's)
    # ------------------------------------------------------------------
    def attach_link_telemetry(self) -> None:
        """Start (idempotently) counting every link grant."""
        if self._ltel is None:
            self._ltel = np.zeros(self.topo.graph.indices.size, dtype=np.int64)

    def link_flits(self) -> np.ndarray:
        """Flits granted per directed link (see the engine contract)."""
        if self._ltel is None:
            return np.zeros(self.topo.graph.indices.size, dtype=np.int64)
        return self._ltel.copy()

    def link_occupancy(self) -> np.ndarray:
        """Buffered flits per directed link (see the engine contract)."""
        cap = self.config.port_capacity
        return np.array(
            [cap - sum(vcs) for ports in self.credits for vcs in ports],
            dtype=np.int64,
        )

    def step(self) -> None:
        """Advance the simulation by one cycle."""
        if self._fault is not None:
            delta = self._fault.advance(self.now)
            if delta is not None:
                self._apply_fault_delta(delta)
        if self._wl is not None:
            self._inject_workload()
        else:
            self._inject()
        self._feed_injection_ports()
        grants: list = []
        for r in sorted(self.active):
            self._decide_router(r, grants)
        self._apply_grants(grants)
        self.active = {r for r in self.active if self.voq[r]}
        if self._wl is not None and self._wl_tails:
            self._wl.note_tails(
                np.asarray(self._wl_tails, dtype=np.int64), self._wl_hops
            )
            self._wl_tails = []
            self._wl_hops = 0
            self._wl.commit(self.now)
        self.now += 1
