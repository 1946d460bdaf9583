"""Host side of ``kcycles``: whole spans of open-loop cycles in C.

:class:`KernelSpan` lets :meth:`FlatSimulator.advance
<repro.flitsim.flatcore.FlatSimulator.advance>` hand ``n`` cycles to one
``kcycles`` call (:mod:`repro.flitsim._kernel`) — Bernoulli draw,
destination pick, route selection, packet-slot fill, injection, feed,
router phase and latency capture — instead of ``n`` trips through
``step()``.  The per-cycle path **defines** the result: a span must leave
the generator, the :class:`~repro.flitsim.engine.SimResult` and every
state array exactly where ``step()`` that many times would, so this
module only decides, from what it can observe, when that holds:

* the simulator is open loop — no workload, no fault timeline — with the
  C kernel loaded and its draw self-test passed;
* :class:`~repro.flitsim.kselect.KernelSelector` binds the policy (exact
  stock type, plain narrow tables, a ``numpy.random.Generator``);
* the traffic is exactly :class:`~repro.flitsim.traffic.UniformTraffic`
  over at least two terminals, or a
  :class:`~repro.flitsim.traffic.PermutationTraffic` whose class keeps
  the stock ``dest_routers``;
* neither ``policy.select_routes`` nor ``traffic.dest_routers`` is
  shadowed on the *instance*: a tracer or test spy bound there must keep
  seeing every call.

Anything else declines and ``advance`` steps cycle by cycle, unchanged.
``kcycles`` comes back early, at a cycle boundary, when Python is needed:
to grow the flit or packet pools (the same
:meth:`~repro.flitsim.flatcore.FlatSimulator._reserve_cycle` rule the
per-cycle path applies, so both grow at the same cycle) or to flush the
O(E) sample buffers into the result.
"""

from __future__ import annotations

import numpy as np

from repro.flitsim.kselect import _plain
from repro.flitsim.traffic import PermutationTraffic, UniformTraffic

__all__ = ["KernelSpan"]


def _shadowed(obj, method: str) -> bool:
    """Whether ``obj`` carries its own ``method`` over its class's."""
    return method in getattr(obj, "__dict__", ())


class KernelSpan:
    """``kcycles`` bound to one open-loop simulator.

    Like the selector it builds on, the span is owned by its simulator
    and takes it as an argument rather than holding a back-reference.
    """

    def __init__(self, sim):
        self._kernel = sim._kernel
        ffi = self._kernel.ffi
        E = sim.fab.E
        self._inj = inj = ffi.new("Injector *")
        self._out = ffi.new("SpanOut *")
        # Every cycle ejects at most one tail per endpoint, so room for E
        # more samples at a cycle boundary is room for the cycle.
        self._samples = np.empty((2, max(4 * E, 1024)), dtype=np.int64)
        self._scratch = np.empty((4, E), dtype=np.int64)
        self._refs = [
            ffi.from_buffer("int64_t[]", row)
            for row in (*self._scratch, *self._samples)
        ]
        inj.winners, inj.srcs, inj.dsts, inj.slots, inj.lat, inj.hops = self._refs
        inj.sample_cap = self._samples.shape[1]
        self._traffic_refs = ()

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
        ffi, inj = self._kernel.ffi, self._inj
        self._traffic_refs = (
            ffi.from_buffer("int64_t[]", pos), ffi.from_buffer("int64_t[]", table),
        )
        inj.pos, inj.table = self._traffic_refs
        inj.permutation, inj.n_term = permutation, table.size
        return True

    def bind(self, sim) -> bool:
        """Whether the next ``advance`` may run as a span (and ready it)."""
        if _shadowed(sim.policy, "select_routes") or _shadowed(
            sim.traffic, "dest_routers"
        ):
            return False
        return self._bind_traffic(sim) and sim._kselect.bind(
            sim, sim.rng, sim.fab.E
        )

    def _flush(self, sim) -> None:
        """Move the captured samples into the result's lists."""
        k = self._out.samples
        if k:
            lat, hops = self._samples
            sim._stat.latencies.extend(lat[:k].tolist())
            sim._stat.hop_counts.extend(hops[:k].tolist())
            self._out.samples = 0

    def run(self, sim, n: int) -> None:
        """``sim.step()`` ``n`` times, inside ``kcycles`` (after :meth:`bind`)."""
        lib = self._kernel.lib
        inj, out, st = self._inj, self._out, sim._st
        inj.prob = sim.load / sim.config.packet_size
        inj.measuring = sim._measuring
        out.packets = out.injected_flits = out.ejected_flits = out.samples = 0
        selector = sim._kselect
        until = sim.now + n
        try:
            with sim.rng.bit_generator.lock:
                while True:
                    # Per call, not per span: growing the pools rebinds
                    # the kernel state, which drops the link counters.
                    sim._bind_link_counters()
                    reason = lib.kcycles(
                        st, selector._sel, selector._bitgen, inj,
                        sim.now, until, out,
                    )
                    sim.span_cycles += out.now - sim.now
                    sim.now = out.now
                    if reason == lib.SPAN_DONE:
                        break
                    if reason == lib.SPAN_GROW:
                        sim._reserve_cycle()
                    elif reason == lib.SPAN_FLUSH:
                        self._flush(sim)
                    else:
                        # bind() checked every id kselect would refuse.
                        assert out.max_len > 0, out.max_len
                        raise sim._route_too_long(out.max_len)
        finally:
            self._flush(sim)
            sim.packets_injected += out.packets
            sim._stat.injected_flits += out.injected_flits
            sim._stat.ejected_flits += out.ejected_flits
