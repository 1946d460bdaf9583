"""Telemetry: run observers for link utilization, queue depth, windows.

Counters a network operator would scrape — flits carried per directed
link, buffer occupancy samples, per-window time series — collected by
:class:`~repro.flitsim.engine.RunObserver`\\ s riding the one run loop
(:meth:`SimulatorCore._drive <repro.flitsim.engine.SimulatorCore._drive>`).
Used by the adversarial-traffic analyses to show *where* min-path
routing concentrates load (the mechanistic story behind Figure 9).

An observer never steps the simulator: the driver advances straight to
the next wake-up, so an observed open-loop run on the flat engine stays
inside ``kcycles`` spans (cut every ``sample_every`` cycles and at window
boundaries) and its :class:`~repro.flitsim.engine.SimResult` *is* the
plain ``run()``'s.  Observers read either engine through one surface —
``attach_link_telemetry(windowed=)``, ``link_flit_counts()``,
``flush_window_link_counts()``, ``link_occupancy()`` — and both engines
count a link grant at the same point (grant time, before any fault doom
filtering, during the measure window only), so link counts, occupancy
maps and window records agree bit-exactly across the reference engine,
the numpy flat path and the C kernel (``tests/test_differential.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.flitsim.engine import RunObserver, SimulatorCore
from repro.obs.timeseries import TimeSeriesCollector
from repro.utils.validation import check_cycle_count

__all__ = [
    "LinkTelemetry",
    "LinkCounts",
    "OccupancySampler",
    "WindowCloser",
    "run_with_telemetry",
    "run_with_timeseries",
    "run_workload_with_timeseries",
]


@dataclass
class LinkTelemetry:
    """Per-directed-link flit counts and occupancy statistics."""

    cycles: int
    #: total directed links in the topology (idle ones count in stats)
    num_directed_links: int = 0
    #: {(u, v): flits sent u->v}
    link_flits: dict = field(default_factory=dict)
    #: sampled mean occupancy per directed link
    mean_occupancy: dict = field(default_factory=dict)

    def utilization(self, u: int, v: int) -> float:
        """Fraction of cycles link ``u -> v`` carried a flit."""
        return self.link_flits.get((u, v), 0) / max(self.cycles, 1)

    def max_utilization(self) -> tuple[tuple[int, int], float]:
        """The hottest directed link and its utilization."""
        if not self.link_flits:
            return ((-1, -1), 0.0)
        link = max(self.link_flits, key=self.link_flits.get)
        return link, self.utilization(*link)

    def _all_link_loads(self) -> np.ndarray:
        """Flit loads over the full directed-link universe (idle = 0).

        The single universe both :meth:`utilization_histogram` and
        :meth:`gini` compute over: every directed link of the topology
        when ``num_directed_links`` is set, falling back to the observed
        links (floor 1) when it was left 0.
        """
        n = max(self.num_directed_links, len(self.link_flits), 1)
        loads = np.zeros(n, dtype=float)
        vals = np.fromiter(self.link_flits.values(), dtype=float,
                           count=len(self.link_flits))
        loads[: vals.size] = vals
        return loads

    def utilization_histogram(self, bins=10) -> tuple[np.ndarray, np.ndarray]:
        """Histogram over all directed links' utilizations.

        Covers *every* directed link of the topology — idle links land
        in the zero bin — so the counts sum to ``num_directed_links``
        (or to the number of observed links if that field was left 0).
        """
        utils = self._all_link_loads() / max(self.cycles, 1)
        return np.histogram(utils, bins=bins, range=(0, 1))

    def gini(self) -> float:
        """Gini coefficient of link load — 0 is perfectly balanced.

        Computed over *all* directed links of the topology, including the
        idle ones (the same universe as :meth:`utilization_histogram`):
        adversarial patterns under minimal routing leave most links dark
        while saturating a few, which is exactly the imbalance this
        measures — scoring only the observed links would miss it.
        """
        loads = self._all_link_loads()
        loads.sort()
        if loads.sum() == 0:
            return 0.0
        n = loads.size
        cum = np.cumsum(loads)
        return float((n + 1 - 2 * (cum / cum[-1]).sum()) / n)


class LinkCounts(RunObserver):
    """Flits carried per directed link over the measure window."""

    def __init__(self):
        #: ``{(u, v): flits}``, nonzero links only (set at window end)
        self.counts: dict = {}

    def start(self, sim, start: int) -> None:
        sim.attach_link_telemetry()

    def end(self, sim) -> None:
        self.counts = sim.link_flit_counts()


class OccupancySampler(RunObserver):
    """Per-link buffer occupancy, sampled every ``sample_every`` cycles.

    The first sample follows the first measured cycle.
    """

    def __init__(self, sample_every: int = 8):
        check_cycle_count(sample_every, "sample_every")
        self.sample_every = sample_every
        self.samples = 0
        #: ``{(u, v): mean sampled occupancy}``, nonzero links only (set
        #: at window end)
        self.mean: dict = {}

    def start(self, sim, start: int) -> None:
        self.wake_at = start + 1
        self._sum = np.zeros(sim.topo.graph.indices.size, dtype=np.int64)

    def wake(self, sim) -> None:
        self._sum += sim.link_occupancy()
        self.samples += 1
        self.wake_at += self.sample_every

    def end(self, sim) -> None:
        graph = sim.topo.graph
        src = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
        hot = np.flatnonzero(self._sum)
        self.mean = {
            (u, v): total / self.samples
            for u, v, total in zip(
                src[hot].tolist(), graph.indices[hot].tolist(), self._sum[hot].tolist()
            )
        }


class WindowCloser(RunObserver):
    """Feeds a :class:`~repro.obs.timeseries.TimeSeriesCollector`.

    Samples total occupancy every ``sample_every`` cycles and closes a
    record every ``window`` cycles — sample first when both fall on one
    cycle — plus a last, shorter one for whatever the measure phase
    leaves open.  Fault events are attributed to the window they were
    applied in through a cursor into the fault state's marks.
    """

    def __init__(self, window: int = 64, sample_every: int = 8, top_links: int = 8):
        check_cycle_count(window, "window")
        check_cycle_count(sample_every, "sample_every")
        self.window = window
        self.sample_every = sample_every
        self.top_links = top_links

    def start(self, sim, start: int) -> None:
        sim.attach_link_telemetry(windowed=True)
        self._start = start
        self._next_sample = start + 1
        self._next_close = start + self.window
        self.wake_at = self._next_sample
        self._marks_seen = len(sim._fault.marks) if sim._fault is not None else 0
        self._col = TimeSeriesCollector(
            self.window, top_links=self.top_links, start_cycle=start
        )
        self.series = self._col.series
        self._col.prime(
            sim._stat.injected_flits,
            sim._stat.ejected_flits,
            self._dropped(sim),
            len(sim._stat.latencies),
        )

    @staticmethod
    def _dropped(sim) -> int:
        return sim._fault.dropped_flits if sim._fault is not None else 0

    def wake(self, sim) -> None:
        if sim.now == self._next_sample:
            self._col.occupancy_sample(sim.sampled_occupancy_total())
            self._next_sample += self.sample_every
        if sim.now == self._next_close:
            self._close(sim)
            self._next_close += self.window
        self.wake_at = min(self._next_sample, self._next_close)

    def end(self, sim) -> None:
        if sim.now > self._next_close - self.window:
            self._close(sim)

    def _close(self, sim) -> None:
        faults = []
        if sim._fault is not None:
            new = sim._fault.marks[self._marks_seen :]
            self._marks_seen = len(sim._fault.marks)
            faults = [c - self._start for c, _ in new]
        self._col.close_window(
            sim.now - self._start,
            sim._stat.injected_flits,
            sim._stat.ejected_flits,
            self._dropped(sim),
            sim._stat.latencies,
            sim.flush_window_link_counts(),
            faults,
        )


def _observe(sim, observers, **phases):
    """``sim._drive`` under ``observers``, for a ``sim`` of unchecked type."""
    if not isinstance(sim, SimulatorCore):
        raise TypeError(
            f"telemetry instruments a flitsim simulator; got {type(sim).__name__}"
        )
    return sim._drive(observers=observers, **phases)


def run_with_telemetry(
    sim, warmup: int = 300, measure: int = 600, sample_every: int = 8
):
    """Run ``sim`` collecting link telemetry during the measurement window.

    Returns ``(SimResult, LinkTelemetry)``: :meth:`SimulatorCore.run
    <repro.flitsim.engine.SimulatorCore.run>` without a drain, under a
    :class:`LinkCounts` and an :class:`OccupancySampler`.  Accepts
    either engine; per-link flit counts and occupancies are
    bit-identical across them for the same seed.
    """
    links, occupancy = LinkCounts(), OccupancySampler(sample_every)
    res = _observe(sim, (links, occupancy), warmup=warmup, measure=measure)
    return res, LinkTelemetry(
        cycles=measure,
        num_directed_links=2 * sim.topo.num_links,
        link_flits=links.counts,
        mean_occupancy=occupancy.mean,
    )


def run_with_timeseries(
    sim,
    warmup: int = 300,
    measure: int = 600,
    window: int = 64,
    sample_every: int = 8,
    top_links: int = 8,
    drain: int = 300,
):
    """Run ``sim`` open-loop, collecting a windowed time series.

    Returns ``(SimResult, WindowSeries)``.  The run is
    :meth:`~repro.flitsim.engine.SimulatorCore.run` under a
    :class:`WindowCloser`, so the returned :class:`SimResult` is
    bit-identical to an uninstrumented ``run()`` with the same phases.
    On top, the measure phase is split into ``window``-cycle windows
    (the last may be shorter): per-window injected/ejected/dropped
    deltas, latency percentiles, occupancy samples every
    ``sample_every`` cycles, per-link flit counts (top ``top_links`` by
    heat plus the total), and fault-event markers.  Window records are
    bit-identical across the reference engine, the numpy flat path, and
    the C kernel.  Latencies recorded during the drain (measured packets
    still in flight) intentionally fall outside all windows.  When
    faults are attached, the simulator's ``fault_result`` gains
    series-derived recovery analytics.
    """
    windows = WindowCloser(window, sample_every, top_links)
    res = _observe(sim, (windows,), warmup=warmup, measure=measure, drain=drain)
    return res, windows.series


def run_workload_with_timeseries(
    sim,
    window: int = 64,
    sample_every: int = 8,
    top_links: int = 8,
    max_cycles: int = 200_000,
):
    """Run the attached workload, collecting a windowed time series.

    Returns ``(WorkloadResult, WindowSeries)``:
    :meth:`~repro.flitsim.engine.SimulatorCore.run_workload` (measured
    from cycle 0, exits when the collective completes or at
    ``max_cycles``) under a :class:`WindowCloser` — a window every
    ``window`` cycles plus a final partial one at completion.
    """
    windows = WindowCloser(window, sample_every, top_links)
    res = _observe(sim, (windows,), max_cycles=max_cycles)
    return res, windows.series
