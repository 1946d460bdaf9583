"""Shared simulator core: config, results, and the engine contract.

Two interchangeable engines implement the same cycle-level protocol:

* :class:`~repro.flitsim.reference.NetworkSimulator` — the readable
  dict-of-deques reference implementation;
* :class:`~repro.flitsim.flatcore.FlatSimulator` — the struct-of-arrays
  production engine (preallocated numpy flit pool, flat ring/linked VOQs,
  dense credit arrays, vectorized injection).

The protocol is defined precisely enough that both engines produce
**bit-identical** :class:`SimResult`\\ s for the same seed (the golden
equivalence tests pin this):

1. *Injection*: with ``prob = load / packet_size > 0``, one
   ``rng.random(num_endpoints)`` Bernoulli draw across all endpoints in
   router-major order; then one batched
   :meth:`~repro.flitsim.traffic.TrafficPattern.dest_routers` call for
   the winners, then one batched
   :meth:`~repro.routing.policies.RoutingPolicy.select_routes` call.
   Packets enter unbounded per-endpoint source FIFOs.
2. *Feed*: one flit per endpoint per cycle moves from its source FIFO
   into the router's injection-port VOQ, subject to injection credits.
3. *Router phase* (synchronous): all grants are decided from the state
   left by step 2, then applied together — credits freed and flits
   forwarded this cycle become visible next cycle.  Per (router, output)
   a single round-robin pointer scans input ports circularly; a grant
   advances the pointer just past the granted port.  Link outputs grant
   one flit; the ejection output grants up to ``max(1, concentration)``.
   Routers are processed in ascending index order, outputs in ascending
   port order with ejection last — the order latency samples are
   recorded in.
4. ``output_occupancies`` (the congestion view ``select_routes`` reads)
   is, per (router, next hop), an O(1) read of incrementally-maintained
   per-output backlog counters plus first-hop-class credit debt.

**Workload mode** (closed loop): constructing a simulator with a
:class:`~repro.workloads.Workload` replaces protocol step 1 — there is
no Bernoulli draw at all.  Instead the cycle starts by draining the
workload's ready queue (messages whose dependencies' tail flits have all
ejected) into fixed-size packets, with one batched ``select_routes``
call per cycle and per-router round-robin endpoint assignment; message
completions commit at the end of the cycle (see
:mod:`repro.workloads.state` for the precise eligibility semantics,
shared verbatim by both engines).  Steps 2-4 are unchanged, and the
golden rule still holds: flat and reference produce bit-identical
:class:`~repro.workloads.WorkloadResult`\\ s per seed.  Closed-loop runs
use :meth:`SimulatorCore.run_workload` instead of
:meth:`SimulatorCore.run`.

**Fault mode**: constructing a simulator with a
:class:`~repro.faults.FaultTimeline` prepends a *fault phase* to every
cycle, shared semantics living in :class:`~repro.faults.state.FaultState`:

0. *Events* (cycle start, before injection): on an event cycle the state
   returns the epoch delta and the engine applies it in canonical order —
   retable the policy to the epoch's repaired tables, record a
   latency-sample mark, then per newly dead link (sorted ``(u, v)``, the
   ``u`` end first): (rule 1) drop every flit queued for the dead output
   at either end, input ports ascending, each queue front to back,
   returning the input-side credit (upstream link or injection buffer);
   (rule 2) drop every flit at the dead link's input port — buffered or
   still on the wire — outputs ascending with ejection last, *without*
   credit return (the owning credits are the dead link's own, reset at
   revival).  Newly dead routers (sorted) then drop any remaining VOQ
   content (same canonical order) and their endpoints' source FIFOs
   (endpoint ascending), and their endpoints stop injecting/ejecting.
   Newly alive links/routers (sorted) restore credits to full depth —
   exact, because death emptied the downstream buffers.
1. *Injection*: the Bernoulli draw always covers all endpoints (the RNG
   stream is failure-independent); winners on dead routers are masked,
   and packets whose drawn destination router is dead are blackholed
   (counted, never routed).  Closed-loop: ready messages with a dead
   endpoint are blackholed whole; the retransmit queue drains *ahead of*
   new messages, in drop order.
2. *Feed*: an endpoint head flit whose desired output is dead is dropped
   (endpoint order) without consuming the injection credit.
3. *Router phase*: a granted flit whose desired output at the next
   router is dead evaporates on the wire — the upstream credit is never
   consumed — in grant order (routers ascending, outputs ascending with
   ejection last, round-robin rank).  A packet whose tail flit drops is
   lost (counted; in workload mode with ``retransmit`` it re-enters the
   source's queue next cycle with a freshly selected route).

The golden rule extends: flat and reference engines produce bit-identical
results per seed for every fault timeline, including drop counts,
retransmit order, and post-repair routes.

**C cycle kernel**: when cffi and a C compiler are available the flat
engine executes every cycle — steps 1-3 and the workload commit, in
every mode (open loop, workload, fault, and combined) — in a compiled
kernel, with Python keeping only the epoch deltas of step 0.  Results
stay bit-identical either way; see :mod:`repro.flitsim._kernel`.

**One run loop**: :meth:`SimulatorCore.run` and
:meth:`SimulatorCore.run_workload` are :meth:`SimulatorCore._drive`,
which owns the protocol (window validation, fault ``begin_run``, the
measure flag, the zero-load drain, finalization) and hands the measure
phase to the ``observers=`` list of :class:`RunObserver`\\ s.  A run with
no observers is the plain run; link counters, occupancy sampling and
window records (:mod:`repro.flitsim.telemetry`) are observers.

**Spans**: the driver moves time only through
:meth:`SimulatorCore.advance`, whose default is ``step()`` ``n`` times,
and asks for the whole stretch up to the next deadline (phase end, an
observer's wake-up or a fault epoch) at once.  The flat engine overrides
``advance`` and, with the C kernel, executes all ``n`` cycles inside one
compiled call (``kcycles``) on the simulator's own bit stream — its
``step()`` is ``advance(1)``: the Bernoulli draw, the destination pick,
route selection, packet-slot fill, injection, feed, router phase, link
counters, the latency samples of measured tails and, closed loop, the
message state machine over the workload state's own arrays.  A span
leaves the generator, the :class:`SimResult` and every state array
where the numpy path and the reference engine leave them
(``tests/test_differential.py``), so observers sample between spans and
see what they would between cycles — an observed run keeps its spans,
cut at its wake-ups.  Fault epochs are deadlines of the run loop, and
``advance`` splits any other stretch at them, so an epoch delta is
applied in Python at the head of a span.  A cell the kernel cannot
stand in for (a hooked or subclassed policy or traffic pattern) runs
the numpy path from then on; the conditions are listed in
:mod:`repro.flitsim.kspan`, and ``sim.span_cycles`` counts the cycles
that ran in C.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.utils.validation import check_sim_windows

__all__ = [
    "SimConfig",
    "SimResult",
    "RunObserver",
    "SimulatorCore",
    "make_fault_state",
    "EJECT",
    "ENGINE_ENV",
    "DEFAULT_ENGINE",
    "available_engines",
    "make_simulator",
]

EJECT = -1  # sentinel output port

#: environment override for the default simulation engine
ENGINE_ENV = "REPRO_SIM_ENGINE"

#: engine used when neither the caller nor the environment picks one
DEFAULT_ENGINE = "flat"


#: (field, smallest legal value) of every SimConfig knob
_CONFIG_FLOORS = (
    ("packet_size", 1), ("num_vcs", 1), ("vc_depth", 1),
    ("link_latency", 0), ("router_pipeline", 0),
)


@dataclass(frozen=True)
class SimConfig:
    """Simulator knobs (defaults are the paper's, scaled where noted)."""

    #: flits per packet (paper: 4)
    packet_size: int = 4
    #: virtual channels (hop classes) per port (paper: 4)
    num_vcs: int = 4
    #: flit slots per (port, VC) buffer; the paper's 128-flit ports with 4
    #: VCs give 32 — the scaled default keeps queueing dynamics visible at
    #: reduced network sizes
    vc_depth: int = 8
    #: cycles a flit spends on a link
    link_latency: int = 1
    #: router pipeline latency applied on arrival before a flit may compete
    router_pipeline: int = 2

    def __post_init__(self) -> None:
        for name, least in _CONFIG_FLOORS:
            if getattr(self, name) < least:
                raise ValueError(
                    f"SimConfig.{name} must be >= {least}, got {getattr(self, name)!r}"
                )

    @property
    def port_capacity(self) -> int:
        """Total flit capacity of one input port (all VCs)."""
        return self.num_vcs * self.vc_depth


@dataclass
class SimResult:
    """Steady-state measurements of one simulation run.

    ``latencies``/``hop_counts`` accumulate during the run — plain lists
    on the reference engine, growing columns with a ``packed(dtype)``
    method on the flat one (:class:`~repro.flitsim.flatcore.Samples`) —
    and are packed into numpy arrays by :meth:`finalize` when the run
    ends, so every statistic below is a single vectorized reduction.
    """

    offered_load: float
    cycles: int
    num_endpoints: int
    injected_flits: int = 0
    ejected_flits: int = 0
    latencies: "list | np.ndarray" = field(default_factory=list)
    hop_counts: "list | np.ndarray" = field(default_factory=list)

    def finalize(self) -> "SimResult":
        """Pack the samples into arrays (idempotent)."""
        self.latencies = _packed(self.latencies, np.float64)
        self.hop_counts = _packed(self.hop_counts, np.int64)
        return self

    @property
    def finalized(self) -> bool:
        """Whether :meth:`finalize` ran: the samples no longer accumulate."""
        return isinstance(self.latencies, np.ndarray)

    @property
    def accepted_load(self) -> float:
        """Ejected flits per endpoint per cycle (throughput)."""
        return self.ejected_flits / (self.cycles * self.num_endpoints)

    @property
    def avg_latency(self) -> float:
        """Mean packet latency (cycles) over measured, delivered packets."""
        lat = self.latencies
        return float(np.mean(lat)) if len(lat) else float("nan")

    def latency_percentile(self, pct: float) -> float:
        """``pct``-th percentile packet latency (NaN with no samples)."""
        lat = self.latencies
        return float(np.percentile(lat, pct)) if len(lat) else float("nan")

    @property
    def p50_latency(self) -> float:
        """Median packet latency."""
        return self.latency_percentile(50)

    @property
    def p99_latency(self) -> float:
        """99th-percentile packet latency."""
        return self.latency_percentile(99)

    @property
    def avg_hops(self) -> float:
        """Mean route length of measured packets."""
        hops = self.hop_counts
        return float(np.mean(hops)) if len(hops) else float("nan")

    @property
    def saturated(self) -> bool:
        """Heuristic: accepted below 95% of offered indicates saturation."""
        return self.accepted_load < 0.95 * self.offered_load


def _packed(samples, dtype) -> np.ndarray:
    packed = getattr(samples, "packed", None)
    return np.asarray(samples, dtype=dtype) if packed is None else packed(dtype)


def validate_sim_args(topo, policy, load: float, config: SimConfig) -> None:
    """Common constructor validation shared by both engines."""
    if topo.num_endpoints == 0:
        raise ValueError("simulation requires endpoints (concentration > 0)")
    if not 0.0 <= load <= 1.0:
        raise ValueError("load must be in [0, 1] (fraction of injection bw)")
    if policy.max_hops > config.num_vcs + 1:
        raise ValueError(
            f"policy worst case {policy.max_hops} hops needs at least "
            f"{policy.max_hops - 1} VCs for deadlock freedom, have "
            f"{config.num_vcs}"
        )


def make_workload_state(workload, config: SimConfig, topo):
    """Attach-time construction of the shared closed-loop bookkeeping.

    ``None`` passes through, so engine constructors can accept
    ``workload=None`` uniformly.  Imported lazily: the workloads package
    sits above the engine layer.
    """
    if workload is None:
        return None
    from repro.workloads.state import WorkloadState

    return WorkloadState(workload, config.packet_size, topo)


def make_fault_state(faults, topo, policy):
    """Attach-time construction of the shared fault bookkeeping.

    ``None`` passes through.  Construction compiles the timeline into
    epochs, builds every repaired routing table (raising immediately if
    survivors ever disconnect), and ratchets ``policy.max_hops`` to the
    across-epoch ceiling — so call this *before* validating VC counts or
    sizing route buffers.  Imported lazily: the faults package sits
    above the engine layer.
    """
    if faults is None:
        return None
    from repro.faults.state import FaultState

    return FaultState(faults, topo, policy)


class RunObserver:
    """A watcher of the measure phase, driven by :meth:`SimulatorCore._drive`.

    The driver calls :meth:`start` once the measure window is open (no
    measured cycle has run yet), :meth:`wake` whenever ``sim.now`` reaches
    ``wake_at`` (cycles are absolute; the observer moves ``wake_at`` on),
    and :meth:`end` when the window has closed, before the drain.
    Observers read the simulator between cycles through the surface both
    engines implement — ``attach_link_telemetry``, ``link_flits``,
    ``link_occupancy`` — and never write it; an observer that counts
    over a window differences snapshots of the cumulative ``link_flits``.
    """

    #: absolute cycle of the next :meth:`wake` (None: no wake-ups)
    wake_at = None
    #: a :class:`~repro.obs.timeseries.WindowSeries` for the fault
    #: result's recovery analytics (None: this observer collects none)
    series = None

    def start(self, sim, start: int) -> None:
        """The measure window opened at cycle ``start``."""

    def wake(self, sim) -> None:
        """``sim.now == wake_at``: sample, then set the next ``wake_at``."""

    def end(self, sim) -> None:
        """The measure window closed at ``sim.now``."""


class SimulatorCore:
    """Run protocol and congestion-view surface shared by both engines.

    Subclasses provide ``step()`` plus the state the protocol requires
    (``now``, ``load``, ``_measuring``, ``_stat``).  :meth:`_drive` moves
    time through :meth:`advance`, which an engine may override to cover
    a whole span of cycles at once as long as the state it leaves is the
    state ``step()`` that many times would.
    """

    #: closed-loop workload state; engine constructors set per instance
    _wl = None
    #: dynamic fault state; engine constructors set per instance
    _fault = None
    #: fault accounting of the last run (None without a timeline)
    fault_result = None

    def output_capacity(self) -> int:
        """Normalization for threshold-style adaptive decisions."""
        return self.config.vc_depth

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def link_occupancy(self) -> np.ndarray:  # pragma: no cover - abstract
        """Buffered flits per directed link, in the graph's CSR edge order.

        Credit-derived: port capacity minus the free downstream slots
        of every hop class.  Both engines return bit-equal arrays.
        """
        raise NotImplementedError

    def link_flits(self) -> np.ndarray:  # pragma: no cover - abstract
        """Flits granted per directed link, in the graph's CSR edge order.

        One cumulative counter per link from :meth:`attach_link_telemetry`
        on (all zero before), ticking at grant time, before any fault
        doom check, in every phase of the run.  Both engines return
        bit-equal arrays.
        """
        raise NotImplementedError

    def sampled_occupancy_total(self) -> int:
        """Total buffered flits across all links, as one int."""
        return int(self.link_occupancy().sum())

    def advance(self, n: int) -> None:
        """Simulate ``n`` cycles with the window flags as they stand.

        A closed-loop run stops early, the cycle after the last
        message's tail flit ejects.
        """
        state = self._wl
        for _ in range(n):
            if state is not None and state.done:
                return
            self.step()

    def _require_unfinished(self) -> None:
        """A simulator produces one result; its samples are packed then."""
        if self._stat.finalized:
            raise RuntimeError(
                "this simulator has already produced its result; build a "
                "new one to run again"
            )

    def _drive(self, warmup=0, measure=0, drain=0, observers=(), max_cycles=None):
        """The run protocol: warm up, measure under ``observers``, drain.

        :meth:`run` and :meth:`run_workload` end here, and time moves
        deadline to deadline (:meth:`_run_to`), so a run keeps whatever
        spans the engine offers.  Open loop, the measure phase is ``measure``
        cycles long.  With ``max_cycles`` the run is closed loop:
        measured from the first cycle, no warmup or drain, and over when
        the workload completes — :meth:`advance` returns early there —
        or at cycle ``max_cycles``, whichever comes first.  Returns the
        :class:`SimResult`, or the
        :class:`~repro.workloads.WorkloadResult` of a closed-loop run.
        """
        state = self._wl
        closed = max_cycles is not None
        if closed:
            if state is None:
                raise RuntimeError(
                    "no workload attached; pass workload= at construction"
                )
        else:
            check_sim_windows(warmup, measure, drain)
            if state is not None:
                raise RuntimeError(
                    "this simulator drives a workload; use run_workload()"
                )
        if self._fault is not None:
            self._fault.begin_run(self.policy)
        self._require_unfinished()
        self._run_to(self.now + warmup)
        self._measuring = True
        start = self.now
        for ob in observers:
            ob.start(self, start)
        self._run_to(max_cycles if closed else start + measure, observers)
        self._stat.cycles = self.now - start
        self._measuring = False
        series = None
        for ob in observers:
            ob.end(self)
            if ob.series is not None:
                series = ob.series
        self._drain(drain)
        self.result = self._stat.finalize()
        if self._fault is not None:
            self.fault_result = self._fault.build_result(self._stat, series=series)
        if not closed:
            return self._stat
        from repro.workloads.result import build_workload_result

        self.workload_result = build_workload_result(state, self._stat, self.topo)
        return self.workload_result

    def _run_to(self, end: int, observers=()) -> None:
        """Move time to cycle ``end``, one :meth:`advance` per deadline.

        The deadlines are ``end``, every observer's ``wake_at`` and the
        start of the next fault epoch, so an engine that runs a whole
        ``advance`` at once meets an epoch only as the first cycle of
        one — where ``step()`` applies it.  Stops short when a workload
        completes.
        """
        state, fault = self._wl, self._fault
        while self.now < end and not (state is not None and state.done):
            stops = [end] + [ob.wake_at for ob in observers if ob.wake_at is not None]
            if fault is not None:
                epoch = fault.next_epoch_start(self.now)
                if epoch is not None:
                    stops.append(epoch)
            self.advance(min(stops) - self.now)
            for ob in observers:
                if ob.wake_at == self.now:
                    ob.wake(self)

    def _drain(self, drain: int) -> None:
        """Advance ``drain`` cycles at zero offered load (post-measure).

        Measured packets still in flight keep recording latency samples
        while they eject.
        """
        if drain:
            saved_load, self.load = self.load, 0.0
            self._run_to(self.now + drain)
            self.load = saved_load

    def run(
        self, warmup: int = 600, measure: int = 1200, drain: int = 300,
        observers=(),
    ) -> SimResult:
        """Warm up, measure under ``observers``, optionally drain; returns
        the window's stats, bit-identical with or without observers."""
        return self._drive(warmup, measure, drain, observers)

    def run_workload(self, max_cycles: int = 200_000, observers=()):
        """Run the attached workload to completion (or ``max_cycles``).

        Closed-loop counterpart of :meth:`run`: the whole run is
        measured (every packet contributes samples) under ``observers``,
        and the loop exits the cycle after the last message's tail flit
        ejects — so ``cycles`` equals the collective's completion time
        when the run finishes.  Returns a
        :class:`~repro.workloads.WorkloadResult`.
        """
        return self._drive(observers=observers, max_cycles=max_cycles)


def _engine_classes() -> dict:
    # Imported lazily: the engine modules import this one.
    from repro.flitsim.flatcore import FlatSimulator
    from repro.flitsim.reference import NetworkSimulator

    return {"flat": FlatSimulator, "reference": NetworkSimulator}


def available_engines() -> tuple:
    """Names accepted by :func:`make_simulator` and ``$REPRO_SIM_ENGINE``."""
    return tuple(sorted(_engine_classes()))


def make_simulator(
    topo,
    policy,
    traffic,
    load: float,
    config: "SimConfig | None" = None,
    seed=0,
    engine: "str | None" = None,
    workload=None,
    faults=None,
):
    """Construct a simulator for one cell with the selected engine.

    ``engine`` of ``None`` reads ``$REPRO_SIM_ENGINE`` (default
    ``"flat"``); set ``REPRO_SIM_ENGINE=reference`` to fall back to the
    readable engine for debugging.  Passing a
    :class:`~repro.workloads.Workload` switches the simulator to the
    closed-loop protocol (``traffic`` may then be ``None`` and ``load``
    is ignored — drive it with :meth:`SimulatorCore.run_workload`).
    Passing a :class:`~repro.faults.FaultTimeline` as ``faults`` enables
    in-simulation failures with deterministic route repair (composes
    with either mode); VC counts must cover the *degraded* worst case —
    ``prepare_fault_policy`` + ``auto_sim_config`` handle the sizing.
    """
    name = engine or os.environ.get(ENGINE_ENV, DEFAULT_ENGINE)
    classes = _engine_classes()
    if name not in classes:
        raise ValueError(
            f"unknown simulation engine {name!r}; choose from "
            + ", ".join(sorted(classes))
        )
    if config is None:
        config = SimConfig()
    return classes[name](
        topo, policy, traffic, load, config=config, seed=seed,
        workload=workload, faults=faults,
    )
