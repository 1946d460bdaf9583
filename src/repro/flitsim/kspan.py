"""Host side of ``kcycles``: every cycle of a kernel-backed simulator in C.

:class:`KernelSpan` lets :meth:`FlatSimulator.advance
<repro.flitsim.flatcore.FlatSimulator.advance>` hand ``n`` cycles to one
``kcycles`` call (``_kernel.c``) — injection (the
Bernoulli draw and destination pick, or the closed loop's retransmit and
ready queues), route selection, packet-slot fill, feed, router phase,
latency capture, fault accounting and the workload's completion commit;
``step()`` is a one-cycle span.  The numpy path and the reference engine
define the result: a span must leave the generator, the
:class:`~repro.flitsim.engine.SimResult`, the workload and fault states
and every state array where they would, so this module only decides,
from what it can observe, when that holds:

* the C kernel is loaded and its draw self-test passed, and
  :class:`~repro.flitsim.kselect.KernelSelector` binds the policy (exact
  stock type — every registered policy has a compiled selector —
  PolarFly or PolarStar coordinates or narrow tables, a
  ``numpy.random.Generator``);
* ``policy.select_routes`` is not shadowed on the *instance*: a tracer or
  test spy bound there must keep seeing every call;
* **open loop**: the traffic is exactly
  :class:`~repro.flitsim.traffic.UniformTraffic` or
  :class:`~repro.flitsim.patterns_extra.HotspotTraffic` over at least
  two terminals, or a :class:`~repro.flitsim.traffic.PermutationTraffic`
  whose class keeps the stock ``dest_routers``, and ``dest_routers`` is
  not shadowed on the instance either;
* **closed loop**: the :class:`~repro.workloads.state.WorkloadState`'s
  arrays are plain int64 — C walks the ready queue, the remaining-packet
  and pending counts and the dependents CSR of that very object, so the
  Python methods see every write.

So every registered cell spans; a decline is for good — the simulator
runs the numpy path from that cycle on.  Fault epochs are applied in
Python between spans (``advance`` splits its stretch at each epoch
start); within one, C applies the survival masks, pushes a lost tail's
message onto :class:`~repro.faults.state.FaultState`'s retransmit buffer
and counts drops for one fault-state update per call.  ``kcycles`` comes
back early, at a cycle boundary, to grow the flit or packet pools (the
numpy path's :meth:`~repro.flitsim.flatcore.FlatSimulator._reserve`
rule, so both grow at the same cycle), the batch scratch or the sample
columns it writes in place, or when the workload completes.
"""

from __future__ import annotations

import numpy as np

from repro.flitsim._kernel import bind_struct
from repro.flitsim.kselect import _plain
from repro.flitsim.patterns_extra import HotspotTraffic
from repro.flitsim.traffic import PermutationTraffic, UniformTraffic

__all__ = ["KernelSpan"]

#: per-packet scratch rows of the injector (``Injector`` in ``_kernel.h``)
_SCRATCH = ("winners", "srcs", "dsts", "slots", "mids")


def _shadowed(obj, method: str) -> bool:
    """Whether ``obj`` carries its own ``method`` over its class's."""
    return method in getattr(obj, "__dict__", ())


class KernelSpan:
    """``kcycles`` bound to one simulator.

    Like the selector it builds on, the span is owned by its simulator
    and takes it as an argument rather than holding a back-reference.
    Workload and fault state are bound at the first ``advance``, not
    here.
    """

    def __init__(self, sim):
        self._kernel = sim._kernel
        ffi = self._kernel.ffi
        E = sim.fab.E
        self._inj = ffi.new("Injector *")
        self._out = ffi.new("SpanOut *")
        #: ``{field: view}`` keeping the injector's arrays alive
        self._refs = {}
        # An open-loop cycle injects at most one packet per endpoint;
        # only a workload's queues outgrow this.
        self._grow_scratch(E)
        self._bind_samples(sim)
        #: the ``Workload *`` over ``sim._wl`` and what keeps it alive
        self._wl = ffi.NULL
        self._wl_refs = ()

    def _bind(self, **fields) -> None:
        """Point ``Injector``'s ``fields`` at arrays, keeping them alive."""
        self._refs.update(bind_struct(self._kernel.ffi, self._inj, fields))

    def _grow_scratch(self, cap: int) -> None:
        """Per-packet scratch for a cycle of up to ``cap`` packets."""
        self._scratch = np.empty((len(_SCRATCH), cap), dtype=np.int32)
        self._bind(cap=cap, **dict(zip(_SCRATCH, self._scratch)))

    def _bind_traffic(self, sim) -> bool:
        """Point the injector at ``sim.traffic``'s arrays; False to decline."""
        lib, traffic = self._kernel.lib, sim.traffic
        kind = type(traffic)
        fields = {}
        if kind is UniformTraffic:
            table, pattern = traffic.terminals, lib.DEST_UNIFORM
        elif kind is HotspotTraffic:
            table, pattern = traffic.terminals, lib.DEST_HOTSPOT
            fields = dict(hot_fraction=traffic.fraction, hotspot=traffic.hotspot)
        elif (
            isinstance(traffic, PermutationTraffic)
            and kind.dest_routers is PermutationTraffic.dest_routers
        ):
            table, pattern = traffic.mapping, lib.DEST_PERMUTATION
        else:
            return False
        pos = traffic._pos_arr
        n = sim.fab.n
        # A drawn destination needs a terminal besides the source.
        least = 1 if pattern == lib.DEST_PERMUTATION else 2
        if not (
            _plain(pos, np.int64) and pos.shape == (n,)
            and _plain(table, np.int64) and table.ndim == 1
            and table.size >= least
        ):
            return False
        # Every injecting router is a terminal of the pattern and every
        # destination a router of this fabric: C indexes with both.
        at = pos[sim.fab.ep_router]
        if at.min() < 0 or at.max() >= table.size:
            return False
        if table.min() < 0 or table.max() >= n:
            return False
        self._bind(pos=pos, table=table, pattern=pattern, n_term=table.size, **fields)
        return True

    def _bind_workload(self, sim) -> bool:
        """Point a ``Workload`` at ``sim._wl``'s own arrays; False to decline.

        Bound once: the state never replaces an array.  Its constructor
        validated every message endpoint as a terminal router of this
        topology and every dependency id, which is all C indexes with.
        """
        if self._wl_refs:
            return True
        state, work = sim._wl, sim._wl.workload
        m = work.num_messages
        sized = {  # C field: (the state's own array, its length)
            "src": (work.src, m), "dst": (work.dst, m),
            "pkts": (state.msg_pkts, m),
            "dep_indptr": (work.dependents_indptr, m + 1),
            "dep_indices": (work.dependents_indices, int(work.dep_counts.sum())),
            "ready": (state.ready, m), "tally": (state._tally, 3),
            "rem_pkts": (state.rem_pkts, m), "pending": (state.pending, m),
            "eligible_cycle": (state.eligible_cycle, m),
            "complete_cycle": (state.complete_cycle, m),
            "inj_rr": (state._inj_rr, sim.fab.n),
        }
        if not all(
            _plain(arr, np.int64) and arr.shape == (size,)
            for arr, size in sized.values()
        ):
            return False
        fields = {name: arr for name, (arr, _) in sized.items()}
        # A cycle completes no more messages than it ejects tails.
        fields["fin"] = np.empty(sim._tail_pids.size, dtype=np.int64)
        self._wl = self._kernel.ffi.new("Workload *")
        self._wl_refs = bind_struct(self._kernel.ffi, self._wl, {"n_msgs": m, **fields})
        return True

    def bind(self, sim) -> bool:
        """Whether ``sim``'s cycles may run as spans (and ready them)."""
        if _shadowed(sim.policy, "select_routes"):
            return False
        if sim._wl is not None:
            if not self._bind_workload(sim):
                return False
        elif _shadowed(sim.traffic, "dest_routers") or not self._bind_traffic(sim):
            return False
        return sim._kselect.bind(sim, sim.rng, sim.fab.E)

    def _bind_samples(self, sim) -> None:
        """Room in the simulator's sample columns for one more cycle.

        Every cycle ejects at most one tail per endpoint, so room for E
        more samples at a cycle boundary is room for the cycle.
        """
        lat, hops = sim._lat, sim._hops
        lat.n = hops.n = self._out.samples
        for col in (lat, hops):
            col.reserve(sim.fab.E)
        self._bind(lat=lat.buf, hops=hops.buf, sample_cap=lat.buf.size)

    def _make_room(self, sim, packets: int) -> None:
        """Pools, batch scratch and sample room for a cycle of ``packets``
        packets."""
        sim._reserve(packets)
        # The selector's own growth rule, at the cycle select() applies
        # it; the injector's rows follow its capacity.
        sim._kselect.bind(sim, sim.rng, packets)
        if packets > self._inj.cap:
            self._grow_scratch(sim._kselect._cap)
        self._bind_samples(sim)

    def run(self, sim, n: int) -> None:
        """``n`` cycles of ``sim`` inside ``kcycles`` (after :meth:`bind`)."""
        lib = self._kernel.lib
        inj, out, st = self._inj, self._out, sim._st
        state, fault = sim._wl, sim._fault
        # Constant over the span, masks too: epochs only start at its head.
        dead = fault is not None and fault.any_dead_router
        self._bind(
            prob=sim.load / sim.config.packet_size, measuring=sim._measuring,
            ep_alive=fault.ep_alive if dead else None,
            router_alive=fault.router_alive if dead else None,
        )
        if state is not None and fault is not None and fault.retransmit_enabled:
            # C pushes a cycle's tail drops, at most the grant records.
            fault.reserve_retransmits(sim._grants.size)
            sim._bind({"rt_queue": fault._rt_queue, "rt_len": fault._rt_len})
        out.packets = out.injected_flits = out.ejected_flits = 0
        out.dropped_flits = out.tail_drops = out.damaged = out.blackholed = 0
        out.retransmitted = 0
        out.samples = len(sim._lat)
        self._bind_samples(sim)
        selector = sim._kselect
        until = sim.now + n
        try:
            with sim.rng.bit_generator.lock:
                while sim.now < until and not (state is not None and state.done):
                    reason = lib.kcycles(
                        st, selector._sel, selector._bitgen, inj, self._wl,
                        sim.now, until, out,
                    )
                    sim.span_cycles += out.now - sim.now
                    sim.now = out.now
                    if reason == lib.SPAN_GROW:
                        self._make_room(sim, out.need)
                    elif reason == lib.SPAN_TOO_LONG:
                        # bind() checked every id kselect would refuse.
                        assert out.max_len > 0, out.max_len
                        raise sim._route_too_long(out.max_len)
        finally:
            sim._lat.n = sim._hops.n = out.samples
            sim.packets_injected += out.packets
            sim._stat.injected_flits += out.injected_flits
            sim._stat.ejected_flits += out.ejected_flits
            if fault is not None:
                if out.dropped_flits:
                    fault.note_flit_drops(out.dropped_flits)
                if out.tail_drops:
                    # C queued the lost tails' messages itself.
                    fault.count_tail_drops(out.tail_drops)
                if out.blackholed:
                    fault.note_blackholed(out.blackholed)
                if out.damaged:
                    fault.note_damaged_deliveries(out.damaged)
                fault.retransmitted_packets += out.retransmitted
