"""Telemetry: run observers for link utilization, queue depth, windows.

Counters a network operator would scrape — flits carried per directed
link, buffer occupancy samples, per-window time series — collected by
:class:`~repro.flitsim.engine.RunObserver`\\ s handed to the one run
loop: ``sim.run(warmup, measure, drain, observers=[LinkCounts(), ...])``
or ``sim.run_workload(max_cycles, observers=[...])``, each observer then
holding what it gathered.  Used by the adversarial-traffic analyses to
show *where* min-path routing concentrates load (the mechanistic story
behind Figure 9): :class:`LinkCounts` carries the window's utilization,
hottest link, utilization histogram and Gini coefficient.

An observer never steps the simulator: the driver advances straight to
the next wake-up, so an observed open-loop run on the flat engine stays
inside ``kcycles`` spans (cut every ``sample_every`` cycles and at window
boundaries) and its :class:`~repro.flitsim.engine.SimResult` *is* the
plain ``run()``'s.  Observers read either engine through one surface —
``attach_link_telemetry()``, ``link_flits()``, ``link_occupancy()``,
both arrays in the graph's CSR edge order.  ``link_flits()`` is one
cumulative counter per directed link, ticking at every grant (before any
fault doom filtering) from attachment on; an observer owns its window by
differencing snapshots of it, as the collector differences the
injected, ejected and dropped counters.  Both engines count at the same
point, so link counts — in CSR order — occupancy maps and window
records agree bit-exactly across the reference engine, the numpy flat
path and the C kernel (``tests/test_differential.py``).
"""

from __future__ import annotations

import numpy as np

from repro.flitsim.engine import RunObserver
from repro.obs.timeseries import TimeSeriesCollector
from repro.utils.validation import check_cycle_count

__all__ = ["LinkCounts", "OccupancySampler", "WindowCloser"]


def link_map(graph, per_link: np.ndarray) -> dict:
    """``{(u, v): value}`` of a CSR-ordered per-directed-link array: its
    nonzero links, in CSR edge order."""
    src = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
    hot = np.flatnonzero(per_link)
    return dict(zip(
        zip(src[hot].tolist(), graph.indices[hot].tolist()),
        per_link[hot].tolist(),
    ))


class LinkCounts(RunObserver):
    """Flits carried per directed link over the measure window, and the
    window's link-load statistics (all set at window end)."""

    def __init__(self):
        #: ``{(u, v): flits}``, nonzero links in CSR edge order
        self.counts: dict = {}
        #: flits per directed link in CSR edge order, idle links included
        self.loads = np.zeros(0, dtype=np.int64)
        #: cycles in the window
        self.cycles = 0

    def start(self, sim, start: int) -> None:
        sim.attach_link_telemetry()
        self._base = sim.link_flits()
        self._start = start

    def end(self, sim) -> None:
        self.loads = sim.link_flits() - self._base
        self.cycles = sim.now - self._start
        self.counts = link_map(sim.topo.graph, self.loads)

    def utilization(self, u: int, v: int) -> float:
        """Fraction of cycles link ``u -> v`` carried a flit."""
        return self.counts.get((u, v), 0) / max(self.cycles, 1)

    def max_utilization(self) -> tuple[tuple[int, int], float]:
        """The hottest directed link (the first in CSR order on a tie) and
        its utilization."""
        if not self.counts:
            return ((-1, -1), 0.0)
        link = max(self.counts, key=self.counts.get)
        return link, self.utilization(*link)

    def utilization_histogram(self, bins=10) -> tuple[np.ndarray, np.ndarray]:
        """Histogram of every directed link's utilization — idle links
        land in the zero bin, so the counts sum to the link count."""
        return np.histogram(self.loads / max(self.cycles, 1), bins=bins, range=(0, 1))

    def gini(self) -> float:
        """Gini coefficient of link load — 0 is perfectly balanced.

        Computed over every directed link, idle ones included (the
        universe of :meth:`utilization_histogram`): adversarial patterns
        under minimal routing leave most links dark while saturating a
        few, which is exactly the imbalance this measures.
        """
        loads = np.sort(self.loads.astype(float))
        if loads.sum() == 0:
            return 0.0
        n = loads.size
        cum = np.cumsum(loads)
        return float((n + 1 - 2 * (cum / cum[-1]).sum()) / n)


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
        self.mean = link_map(sim.topo.graph, self._sum / max(self.samples, 1))


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
        sim.attach_link_telemetry()
        self._links = sim.link_flits()
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
        links, self._links = self._links, sim.link_flits()
        self._col.close_window(
            sim.now - self._start,
            sim._stat.injected_flits,
            sim._stat.ejected_flits,
            self._dropped(sim),
            sim._stat.latencies,
            link_map(sim.topo.graph, self._links - links),
            faults,
        )
