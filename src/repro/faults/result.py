"""Fault-run metrics: what a resilience-under-load cell reports.

Static resilience (Figure 14) answers "does the graph stay small and
connected"; a dynamic fault run answers *what did the failures cost
while traffic was flowing* — flits and packets lost, traffic blackholed
at dead endpoints, retransmissions issued, and the latency transient
around the first event.  The transient comes from the sample-index marks
the engines record at every applied event: latency samples are appended
in a shared deterministic order, so splitting the stream at the first
mark cleanly separates pre-fault from post-fault packets in both
engines, bit-identically.

When the run had a :class:`~repro.flitsim.telemetry.WindowCloser`
among its ``observers=``, the result also
carries *recovery* analytics derived from the window series
(:func:`repro.obs.timeseries.fault_recovery`): pre-fault baseline
throughput and how many cycles the network took to return to it — a
time-resolved upgrade over the single pre/post split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FaultResult", "build_fault_result"]


def _mean(x: np.ndarray) -> float:
    return float(np.mean(x)) if len(x) else float("nan")


def _pct(x: np.ndarray, pct: float) -> float:
    return float(np.percentile(x, pct)) if len(x) else float("nan")


@dataclass
class FaultResult:
    """Fault accounting of one simulation run."""

    #: timeline generator name (presentation only)
    timeline: str
    #: scheduled epoch transitions in the timeline
    num_events: int
    #: transitions that fired within the simulated window
    applied_events: int
    #: cycle of the earliest scheduled event (-1: empty timeline)
    first_event_cycle: int
    #: flits lost to dead links/routers (event, feed, and wire drops)
    dropped_flits: int
    #: packets whose tail flit was lost
    dropped_packets: int
    #: packets delivered incomplete (tail ejected, body flits lost)
    damaged_packets: int
    #: packets never injected because an endpoint router was dead
    blackholed_packets: int
    #: workload packets re-injected at the source after a tail loss
    retransmitted_packets: int
    #: measured packet latencies before the first applied event
    pre_fault_latencies: np.ndarray
    #: measured packet latencies from the first applied event on
    post_fault_latencies: np.ndarray
    #: window-series recovery analytics (None unless the run was
    #: collected through a windowed driver): fault_cycle, fault_window,
    #: baseline, recovered_window, recovery_cycles
    recovery: "dict | None" = None

    @property
    def pre_fault_avg_latency(self) -> float:
        return _mean(self.pre_fault_latencies)

    @property
    def post_fault_avg_latency(self) -> float:
        return _mean(self.post_fault_latencies)

    @property
    def post_fault_p99_latency(self) -> float:
        return _pct(self.post_fault_latencies, 99)

    def summary(self) -> dict:
        """JSON-safe headline statistics (what faulted sweep cells persist).

        Sample-less transients (e.g. every event fired before the first
        measured packet) report ``None`` rather than NaN: cached cells
        must compare equal to freshly simulated ones, and NaN breaks
        that contract under Python equality.
        """

        def _safe(x: float):
            return None if x != x else x

        doc = {
            "fault_timeline": self.timeline,
            "fault_events": self.num_events,
            "fault_applied_events": self.applied_events,
            "fault_first_cycle": self.first_event_cycle,
            "dropped_flits": self.dropped_flits,
            "dropped_packets": self.dropped_packets,
            "damaged_packets": self.damaged_packets,
            "blackholed_packets": self.blackholed_packets,
            "retransmitted_packets": self.retransmitted_packets,
            "pre_fault_avg_latency": _safe(self.pre_fault_avg_latency),
            "post_fault_avg_latency": _safe(self.post_fault_avg_latency),
            "post_fault_p99_latency": _safe(self.post_fault_p99_latency),
        }
        if self.recovery is not None:
            # Only windowed runs carry these keys, so summaries of cells
            # cached before time-series collection existed still compare
            # equal to fresh non-windowed ones.
            doc["fault_recovery_baseline"] = self.recovery["baseline"]
            doc["fault_recovery_cycles"] = self.recovery["recovery_cycles"]
            doc["fault_recovery_window"] = self.recovery["recovered_window"]
        return doc


def build_fault_result(state, stat, series=None) -> FaultResult:
    """Assemble a :class:`FaultResult` after the run loop exits.

    ``state`` is the engine's :class:`~repro.faults.state.FaultState`,
    ``stat`` its finalized :class:`~repro.flitsim.engine.SimResult`.
    With a :class:`~repro.obs.timeseries.WindowSeries` (windowed runs)
    the result additionally carries throughput-recovery analytics.
    """
    recovery = None
    if series is not None:
        from repro.obs.timeseries import fault_recovery

        recovery = fault_recovery(series)
    lat = np.asarray(stat.latencies)
    split = state.marks[0][1] if state.marks else len(lat)
    return FaultResult(
        timeline=state.timeline.name,
        num_events=len(state.epochs) - 1,
        applied_events=state.applied_events,
        first_event_cycle=state.timeline.first_event_cycle,
        dropped_flits=state.dropped_flits,
        dropped_packets=state.dropped_packets,
        damaged_packets=state.damaged_packets,
        blackholed_packets=state.blackholed_packets,
        retransmitted_packets=state.retransmitted_packets,
        pre_fault_latencies=lat[:split],
        post_fault_latencies=lat[split:],
        recovery=recovery,
    )
