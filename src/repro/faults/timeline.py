"""Fault timelines: deterministic, seed-derived failure schedules.

A :class:`FaultTimeline` is an ordered list of :class:`FaultEvent`\\ s —
link down/up and router down/up at integer cycles — that both simulation
engines consume (see :mod:`repro.flitsim.engine` for the in-simulation
semantics).  Timelines are plain data: building one never touches the
simulator, and the same spec string always produces the same events, so
a fault scenario can be hashed into an experiment cell exactly like a
traffic pattern or a workload.

Generators registered in :data:`~repro.experiments.registry.FAULTS`
(factories take ``(topo, **kwargs)`` and return a timeline):

* ``linkflap`` — ``count`` random links fail together at ``cycle`` and
  (with ``duration > 0``) recover together: the minimal transient.
* ``mtbf`` — a random-link failure/repair process: network-wide
  failure inter-arrival times are exponential with mean ``mtbf``
  cycles, each failed link repairs after an exponential ``mttr`` draw
  (``mttr=0`` leaves failures permanent).
* ``routerdown`` — correlated router-radix failure: ``count`` random
  routers lose their whole radix at ``cycle`` (all incident links at
  once), optionally recovering after ``duration`` cycles.
* ``progressive`` — the paper's Figure-14 methodology made dynamic:
  remove a fixed fraction of links in equal batches at a fixed period,
  in seeded random order, never repairing.

Every generator is *connectivity-safe* by construction: candidate
victims whose removal would disconnect the surviving routers are
redrawn (and the failure skipped if no safe victim exists), so a
generated timeline never aborts the run the way an explicit
disconnecting timeline does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.registry import FAULTS
from repro.utils.rng import make_rng

__all__ = ["FaultEvent", "FaultTimeline", "LINK_KINDS", "ROUTER_KINDS"]

LINK_KINDS = ("link_down", "link_up")
ROUTER_KINDS = ("router_down", "router_up")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled failure or repair.

    ``u``/``v`` are the link's endpoints for link events; router events
    put the router id in ``u`` and leave ``v`` at -1.
    """

    cycle: int
    kind: str
    u: int
    v: int = -1

    def __post_init__(self):
        if self.kind not in LINK_KINDS + ROUTER_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.cycle < 0:
            raise ValueError("fault events need cycle >= 0")
        if self.kind in LINK_KINDS and (self.u < 0 or self.v < 0):
            raise ValueError("link events need both endpoints")
        if self.kind in ROUTER_KINDS and self.v != -1:
            raise ValueError("router events take a single router id in u")

    @property
    def link(self) -> tuple:
        """The event's link as a canonical ``(min, max)`` pair."""
        return (min(self.u, self.v), max(self.u, self.v))


class FaultTimeline:
    """An immutable, cycle-sorted schedule of fault events.

    ``retransmit`` selects the closed-loop drop semantics: when True
    (default), a workload packet whose tail flit is lost re-enters the
    network at its source on the next cycle; open-loop runs ignore it.
    The sort is stable, so same-cycle events keep their given order.
    """

    def __init__(self, events, name: str = "faults", retransmit: bool = True):
        events = tuple(
            e if isinstance(e, FaultEvent) else FaultEvent(*e) for e in events
        )
        self.events = tuple(sorted(events, key=lambda e: e.cycle))
        self.name = str(name)
        self.retransmit = bool(retransmit)

    @property
    def num_events(self) -> int:
        return len(self.events)

    @property
    def event_cycles(self) -> tuple:
        """Distinct event cycles, ascending (the epoch boundaries)."""
        return tuple(sorted({e.cycle for e in self.events}))

    @property
    def first_event_cycle(self) -> int:
        """Cycle of the earliest event (-1 for an empty timeline)."""
        return self.events[0].cycle if self.events else -1

    def __iter__(self):
        return iter(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultTimeline({self.name!r}, events={len(self.events)}, "
            f"retransmit={self.retransmit})"
        )


# ----------------------------------------------------------------------
# Connectivity-safe victim selection
# ----------------------------------------------------------------------
def _alive_connected(graph, dead_links, dead_routers) -> bool:
    """True iff the surviving routers still form one component."""
    g = graph
    if dead_links:
        g = g.remove_edges(np.asarray(sorted(dead_links), dtype=np.int64))
    if dead_routers:
        mask = np.ones(g.n, dtype=bool)
        mask[np.asarray(sorted(dead_routers), dtype=np.int64)] = False
        g = g.subgraph_mask(mask)
    return g.n == 0 or g.is_connected()


def _draw_safe_link(rng, graph, dead_links, dead_routers, tries: int = 24):
    """A random alive link whose removal keeps survivors connected.

    Returns ``None`` when ``tries`` draws find no safe victim (the
    generator then skips that failure rather than disconnecting).
    """
    alive = [
        (int(u), int(v))
        for u, v in graph.edges()
        if (int(u), int(v)) not in dead_links
        and int(u) not in dead_routers
        and int(v) not in dead_routers
    ]
    for _ in range(tries):
        if not alive:
            return None
        pick = alive[int(rng.integers(len(alive)))]
        if _alive_connected(graph, dead_links | {pick}, dead_routers):
            return pick
        alive.remove(pick)
    return None


def _draw_safe_router(rng, graph, dead_links, dead_routers, tries: int = 24):
    """A random alive router whose loss keeps survivors connected."""
    alive = sorted(set(range(graph.n)) - set(dead_routers))
    for _ in range(tries):
        if not alive:
            return None
        pick = alive[int(rng.integers(len(alive)))]
        if _alive_connected(graph, dead_links, dead_routers | {pick}):
            return pick
        alive.remove(pick)
    return None


# ----------------------------------------------------------------------
# Registered generators — factories take (topo, **kwargs)
# ----------------------------------------------------------------------
@FAULTS.register("linkflap", example="linkflap:count=2,cycle=300,duration=300,seed=1")
def linkflap(
    topo,
    cycle: int = 300,
    count: int = 1,
    duration: int = 0,
    seed: int = 0,
    retransmit: bool = True,
) -> FaultTimeline:
    """``count`` random links down at ``cycle``, back up after ``duration``."""
    if cycle < 0 or count < 0 or duration < 0:
        raise ValueError("linkflap needs cycle, count, duration >= 0")
    rng = make_rng(int(seed))
    dead: set = set()
    events = []
    for _ in range(int(count)):
        pick = _draw_safe_link(rng, topo.graph, dead, set())
        if pick is None:
            break
        dead.add(pick)
        events.append(FaultEvent(int(cycle), "link_down", *pick))
        if duration > 0:
            events.append(FaultEvent(int(cycle + duration), "link_up", *pick))
    return FaultTimeline(events, name="linkflap", retransmit=retransmit)


@FAULTS.register("mtbf", example="mtbf:count=3,mtbf=300,mttr=250,seed=2,start=150")
def mtbf_process(
    topo,
    mtbf: float = 500.0,
    mttr: float = 0.0,
    count: int = 3,
    start: int = 100,
    seed: int = 0,
    retransmit: bool = True,
) -> FaultTimeline:
    """Random-link MTBF failure process with optional exponential repair."""
    if mtbf <= 0 or mttr < 0 or count < 0 or start < 0:
        raise ValueError("mtbf needs mtbf > 0 and mttr, count, start >= 0")
    rng = make_rng(int(seed))
    graph = topo.graph
    events = []
    dead: set = set()
    repairs: list = []  # (cycle, link) pending, kept sorted
    t = int(start)
    for i in range(int(count)):
        t += max(1, int(round(rng.exponential(float(mtbf))))) if i else 0
        # Apply repairs that land before this failure.
        repairs.sort()
        while repairs and repairs[0][0] <= t:
            r_cycle, link = repairs.pop(0)
            dead.discard(link)
            events.append(FaultEvent(r_cycle, "link_up", *link))
        pick = _draw_safe_link(rng, graph, dead, set())
        if pick is None:
            continue
        dead.add(pick)
        events.append(FaultEvent(t, "link_down", *pick))
        if mttr > 0:
            repairs.append(
                (t + max(1, int(round(rng.exponential(float(mttr))))), pick)
            )
    for r_cycle, link in sorted(repairs):
        events.append(FaultEvent(r_cycle, "link_up", *link))
    return FaultTimeline(events, name="mtbf", retransmit=retransmit)


@FAULTS.register("routerdown", example="routerdown:cycle=350,count=1,duration=400,seed=3")
def routerdown(
    topo,
    cycle: int = 300,
    count: int = 1,
    duration: int = 0,
    seed: int = 0,
    retransmit: bool = True,
) -> FaultTimeline:
    """Correlated radix loss: ``count`` random routers fail together."""
    if cycle < 0 or count < 0 or duration < 0:
        raise ValueError("routerdown needs cycle, count, duration >= 0")
    rng = make_rng(int(seed))
    dead: set = set()
    events = []
    for _ in range(int(count)):
        pick = _draw_safe_router(rng, topo.graph, set(), dead)
        if pick is None:
            break
        dead.add(pick)
        events.append(FaultEvent(int(cycle), "router_down", pick))
        if duration > 0:
            events.append(FaultEvent(int(cycle + duration), "router_up", pick))
    return FaultTimeline(events, name="routerdown", retransmit=retransmit)


@FAULTS.register(
    "progressive", example="progressive:frac=0.08,steps=3,period=200,start=200,seed=4"
)
def progressive(
    topo,
    frac: float = 0.1,
    steps: int = 4,
    period: int = 250,
    start: int = 250,
    seed: int = 0,
    retransmit: bool = True,
) -> FaultTimeline:
    """Figure-14 progressive link removal as a live schedule.

    ``floor(frac * links)`` links die in ``steps`` equal batches, one
    batch every ``period`` cycles starting at ``start``; no repairs.
    """
    if not 0.0 <= frac <= 1.0:
        raise ValueError("progressive needs frac in [0, 1]")
    if steps < 1 or period < 1 or start < 0:
        raise ValueError("progressive needs steps, period >= 1 and start >= 0")
    rng = make_rng(int(seed))
    graph = topo.graph
    total = int(frac * graph.num_edges)
    per_step = -(-total // int(steps)) if total else 0
    dead: set = set()
    events = []
    killed = 0
    for s in range(int(steps)):
        t = int(start + s * period)
        for _ in range(min(per_step, total - killed)):
            pick = _draw_safe_link(rng, graph, dead, set())
            if pick is None:
                break
            dead.add(pick)
            events.append(FaultEvent(t, "link_down", *pick))
            killed += 1
    return FaultTimeline(events, name="progressive", retransmit=retransmit)
