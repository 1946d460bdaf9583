"""Host side of ``kcycles``: whole spans of cycles in C.

:class:`KernelSpan` lets :meth:`FlatSimulator.advance
<repro.flitsim.flatcore.FlatSimulator.advance>` hand ``n`` cycles to one
``kcycles`` call (:mod:`repro.flitsim._kernel`) — injection (the
Bernoulli draw and destination pick, or the closed loop's ready queue),
route selection, packet-slot fill, feed, router phase, latency capture,
fault accounting and the workload's completion commit — instead of ``n``
trips through ``step()``.  The per-cycle path **defines** the result: a
span must leave the generator, the
:class:`~repro.flitsim.engine.SimResult`, the workload and fault states
and every state array exactly where ``step()`` that many times would, so
this module only decides, from what it can observe, when that holds:

* the C kernel is loaded and its draw self-test passed, and
  :class:`~repro.flitsim.kselect.KernelSelector` binds the policy (exact
  stock type — every registered policy has a compiled selector —
  PolarFly or PolarStar coordinates or narrow tables, a
  ``numpy.random.Generator``);
* ``policy.select_routes`` is not shadowed on the *instance*: a tracer or
  test spy bound there must keep seeing every call;
* **open loop**: the traffic is exactly
  :class:`~repro.flitsim.traffic.UniformTraffic` over at least two
  terminals, or a :class:`~repro.flitsim.traffic.PermutationTraffic`
  whose class keeps the stock ``dest_routers``, and ``dest_routers`` is
  not shadowed on the instance either;
* **closed loop**: the :class:`~repro.workloads.state.WorkloadState`'s
  arrays are plain int64 — C walks the ready queue, the remaining-packet
  and pending counts and the dependents CSR of that very object, so the
  Python methods see every write;
* **fault timeline**: no epoch starts inside the stretch after its first
  cycle.  :meth:`SimulatorCore._run_to
  <repro.flitsim.engine.SimulatorCore._run_to>` makes epoch starts
  deadlines, so a run never asks for such a stretch; ``advance`` applies
  the epoch due *at* the first cycle in Python, as ``step()`` does, and
  the span covers the cycles between two boundaries: survival masks on
  the Bernoulli winners and their destinations, per-packet live / damaged
  state, drops counted for one
  :class:`~repro.faults.state.FaultState` update per call;
* not a workload *and* a fault timeline: the retransmit queue of a
  combined cell lives in Python.

Anything else declines and ``advance`` steps cycle by cycle, unchanged.
``kcycles`` comes back early, at a cycle boundary, when Python is needed:
to grow the flit or packet pools (the same
:meth:`~repro.flitsim.flatcore.FlatSimulator._reserve` rule the per-cycle
path applies, so both grow at the same cycle), the batch scratch or the
simulator's sample columns, which it writes in place, or because the
workload completed.
"""

from __future__ import annotations

import numpy as np

from repro.flitsim._kernel import bind_struct
from repro.flitsim.kselect import _plain
from repro.flitsim.traffic import PermutationTraffic, UniformTraffic

__all__ = ["KernelSpan"]

#: per-packet scratch rows of the injector (``Injector`` in the C source)
_SCRATCH = ("winners", "srcs", "dsts", "slots", "mids")


def _shadowed(obj, method: str) -> bool:
    """Whether ``obj`` carries its own ``method`` over its class's."""
    return method in getattr(obj, "__dict__", ())


class KernelSpan:
    """``kcycles`` bound to one simulator.

    Like the selector it builds on, the span is owned by its simulator
    and takes it as an argument rather than holding a back-reference.
    Workload and fault state are bound at the first eligible
    ``advance``, not here.
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
        # only a workload's ready queue outgrows this.
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
        traffic = sim.traffic
        kind = type(traffic)
        if kind is UniformTraffic:
            table, permutation = traffic.terminals, 0
        elif (
            isinstance(traffic, PermutationTraffic)
            and kind.dest_routers is PermutationTraffic.dest_routers
        ):
            table, permutation = traffic.mapping, 1
        else:
            return False
        pos = traffic._pos_arr
        n = sim.fab.n
        if not (
            _plain(pos, np.int64) and pos.shape == (n,)
            and _plain(table, np.int64) and table.ndim == 1
            and table.size >= 2 - permutation
        ):
            return False
        # Every injecting router is a terminal of the pattern and every
        # destination a router of this fabric: C indexes with both.
        at = pos[sim.fab.ep_router]
        if at.min() < 0 or at.max() >= table.size:
            return False
        if table.min() < 0 or table.max() >= n:
            return False
        self._bind(pos=pos, table=table, permutation=permutation, n_term=table.size)
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
            # A cycle completes no more messages than it ejects tails.
            "fin": (np.empty_like(sim._tail_pids), sim._tail_pids.size),
        }
        if not all(
            _plain(arr, np.int64) and arr.shape == (size,)
            for arr, size in sized.values()
        ):
            return False
        self._wl = self._kernel.ffi.new("Workload *")
        self._wl_refs = bind_struct(
            self._kernel.ffi, self._wl,
            {"n_msgs": m, **{name: arr for name, (arr, _) in sized.items()}},
        )
        return True

    def bind(self, sim, n: int) -> bool:
        """Whether the next ``n`` cycles may run as a span (and ready it)."""
        if _shadowed(sim.policy, "select_routes"):
            return False
        fault = sim._fault
        if sim._wl is not None:
            if fault is not None or not self._bind_workload(sim):
                return False
        else:
            if _shadowed(sim.traffic, "dest_routers") or not self._bind_traffic(sim):
                return False
            if fault is not None:
                epoch = fault.next_epoch_start(sim.now)
                if epoch is not None and epoch < sim.now + n:
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
        """``sim.step()`` ``n`` times, inside ``kcycles`` (after :meth:`bind`)."""
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
        out.packets = out.injected_flits = out.ejected_flits = 0
        out.dropped_flits = out.tail_drops = out.damaged = out.blackholed = 0
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
                    # Open loop: a lost tail has no message to retransmit.
                    fault.note_tail_drops(np.full(out.tail_drops, -1))
                if out.blackholed:
                    fault.note_blackholed(out.blackholed)
                if out.damaged:
                    fault.note_damaged_deliveries(out.damaged)
