"""The flit pool holds buffered flits only, however long the backlog.

Source FIFOs hold packets, chained through ``pkt_next``; a flit takes its
pool row as it feeds into its injection VOQ.  So however far the offered
load outruns the network, the pool never holds more than the network's
buffers (every link input's VCs plus every injection queue) plus the one
row per endpoint a cycle's feed may take, and its capacity passes that
by at most the growth step that crossed it.  Both are checked at every
cycle boundary, on whole-cycle spans (one cycle per ``advance``) and on
the numpy path, which must also agree there on the pools and the packet
table: a closed-loop all-to-all that readies
16 380 packets in its first cycle, and an open-loop cell past saturation.
A simulator whose spans declined keeps none of their arrays on the way.
"""

import contextlib

import numpy as np
import pytest

from repro.flitsim import NetworkSimulator, flatcore
from repro.flitsim._kernel import load_kernel, numpy_fallback
from repro.flitsim.flatcore import _POOL_CAP

from oracles import (
    assert_same_result,
    assert_same_state,
    buffer_capacity,
    build,
    walk_fifos,
)

pytestmark = pytest.mark.skipif(
    load_kernel() is None or not load_kernel().select_ok,
    reason="C kernel (or its draw self-test) unavailable",
)

#: cell -> (build args, build keywords, cycles; None: to completion)
CELLS = {
    "alltoall-closed": (
        ("polarfly:conc=2,q=9", "ugal-pf", None, 0.0),
        {"workload": "alltoall:size=8"},
        None,
    ),
    "tornado-saturated": (("polarfly:conc=2,q=7", "min", "tornado", 1.0), {}, 600),
}

#: the packet table's columns that must agree, live slot by live slot
#: (message ids closed loop only)
COLUMNS = ("pkt_t_created", "pkt_len", "pkt_dst", "pkt_measured")


class PoolWatch:
    """One path's simulator and the capacity its pool last grew by."""

    def __init__(self, sim):
        self.sim = sim
        self.cap, self.step = sim.pool_cap, sim.pool_cap
        self.grows = 0

    def advance(self):
        self.sim.advance(1)
        cap = self.sim.pool_cap
        if cap != self.cap:
            self.step, self.cap = cap - self.cap, cap
            self.grows += 1


def packet_table(sim):
    """The live packets' columns, one sorted row per packet."""
    live = np.ones(sim.pkt_cap, dtype=bool)
    live[sim._pslot_stack[: int(sim._pslot_top[0])]] = False
    names = COLUMNS + (("pkt_msg",) if sim._wl is not None else ())
    table = np.stack([getattr(sim, name)[live].astype(np.int64) for name in names])
    return table[:, np.lexsort(table[::-1])]


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_pool_stays_bounded_and_paths_agree_every_cycle(cell):
    args, kwargs, cycles = CELLS[cell]
    watches = []
    for context in (contextlib.nullcontext, numpy_fallback):
        with context():
            sim = build(*args, **kwargs)
        sim._measuring = True
        watches.append(PoolWatch(sim))
    first, other = (watch.sim for watch in watches)
    assert first._kernel is not None and other._kernel is None
    closed = first._wl is not None
    ceiling = buffer_capacity(first) + first.fab.E
    backlog = 0
    while not (first._wl.done if closed else first.now == cycles):
        assert first.now < 20_000
        for watch in watches:
            watch.advance()
            sim = watch.sim
            assert sim.pool_cap - sim.free_top <= buffer_capacity(sim)
            assert sim.pool_cap <= ceiling + watch.step, (sim.now, watch.step)
        assert (other.now, other.packets_injected) == (first.now, first.packets_injected)
        assert (other.pool_cap, other.free_top) == (first.pool_cap, first.free_top)
        assert (other.pkt_cap, int(other._pslot_top[0])) == (
            first.pkt_cap, int(first._pslot_top[0]),
        )
        assert np.array_equal(other.src_seq, first.src_seq)
        assert np.array_equal(packet_table(other), packet_table(first)), other.now
        if first.now % 50 == 1:
            backlog = max(backlog, int(walk_fifos(first)[0].sum()))
    assert first.span_cycles == first.now
    assert_same_state(first, other, rows=False)
    # The backlog waited as packets: more unfed flits than the pool ever
    # had rows, which grew at most once past its first allocation.
    assert backlog > first.pool_cap
    assert first.pool_cap <= max(_POOL_CAP, 2 * ceiling)
    assert all(watch.grows <= 1 for watch in watches)


LINKFLAP = "linkflap:count=3,cycle=30,duration=60,seed=1"

#: cell -> (build args, build keywords); every one outgrows a 64-slot
#: packet table, and the faulted ones drop tails
MESSAGE_CELLS = {
    "open": (("polarfly:conc=2,q=7", "min", "tornado", 1.0), {}),
    "open-faulted": (
        ("polarfly:conc=2,q=7", "ugal-pf", "uniform", 0.9), {"faults": LINKFLAP},
    ),
    "closed": (
        ("polarfly:conc=2,q=5", "ugal-pf", None, 0.0), {"workload": "alltoall:size=8"},
    ),
    "closed-faulted": (
        ("polarfly:conc=2,q=5", "min", None, 0.0),
        {"workload": "alltoall:size=8", "faults": LINKFLAP},
    ),
}


@pytest.mark.parametrize("numpy_path", [False, True], ids=["kernel", "numpy"])
@pytest.mark.parametrize("cell", sorted(MESSAGE_CELLS))
def test_message_ids_are_kept_closed_loop_only(monkeypatch, cell, numpy_path):
    """``pkt_msg`` exists, grows and is bound only where it is read.

    An open-loop simulator — faulted too, whose lost tails have no
    message to retransmit — keeps no message column, so a packet-table
    growth writes none; closed loop keeps one slot for slot.  Either way
    the results equal the reference engine's, retransmits included.
    """
    monkeypatch.setattr(flatcore, "_PKT_CAP", 64)
    args, kwargs = MESSAGE_CELLS[cell]
    with numpy_fallback() if numpy_path else contextlib.nullcontext():
        sim = build(*args, **kwargs)
    ref = build(*args, **kwargs, engine=NetworkSimulator)
    closed = "workload" in kwargs
    results = [
        s.run_workload() if closed else s.run(20, 100, 20) for s in (sim, ref)
    ]
    assert sim.pkt_cap > 64
    if closed:
        assert sim.pkt_msg.dtype == np.int32 and sim.pkt_msg.size == sim.pkt_cap
    else:
        assert not hasattr(sim, "pkt_msg")
    if sim._kernel is not None:
        ffi = sim._kernel.ffi
        assert (sim._st.pkt_msg == ffi.NULL) != closed
    if sim._fault is not None:
        assert sim._fault.dropped_packets == ref._fault.dropped_packets > 0
        assert (sim._fault.retransmitted_packets > 0) == closed
        assert sim._fault.retransmitted_packets == ref._fault.retransmitted_packets
    assert_same_result(*results, what=cell)


def test_a_declined_simulator_sheds_the_span_state():
    """A hooked ``select_routes`` declines the spans for good.  The
    simulator then keeps no per-hop output ports, occupancy bits or
    grant and tail records, their ``SimState`` fields are NULL, and
    ``kselect`` still serves the policy's batches.  600 saturated cycles,
    packet-table grows included, equal the reference engine's."""
    args = ("polarfly:conc=2,q=7", "min", "tornado", 1.0)
    sim, ref = build(*args), build(*args, engine=NetworkSimulator)
    calls, served = [], []
    select, kselect = sim.policy.select_routes, sim._kselect.select

    def hooked(*a, **kw):
        calls.append(1)
        return select(*a, **kw)

    def spied(*a, **kw):
        served.append(1)
        return kselect(*a, **kw)

    sim.policy.select_routes = hooked
    sim._kselect.select = spied
    cap = sim.pkt_cap
    got, want = sim.run(100, 400, 100), ref.run(100, 400, 100)
    assert sim._kspan is None and sim.span_cycles == 0
    assert len(served) == len(calls) > 0
    assert sim.pkt_cap > cap
    assert "route_port" not in {name for name, *_ in sim._slot_arrays}
    for attr in ("route_port", "row_mask", "busy_rows", "_grants", "_tail_pids"):
        assert not hasattr(sim, attr), attr
        assert getattr(sim._st, attr.lstrip("_")) == sim._kernel.ffi.NULL, attr
    assert_same_result(got, want)
