"""Load sweeps and latency/throughput curves (Figures 8-11 harness).

Runs the simulator across a list of offered loads and collects the points
the paper plots: average latency vs offered load, plus accepted throughput
(whose plateau is the saturation point).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.flitsim.engine import SimResult

__all__ = ["SweepPoint", "LoadSweep", "saturation_load"]


@dataclass
class SweepPoint:
    """One (offered load, latency, throughput) sample."""

    offered_load: float
    avg_latency: float
    p99_latency: float
    accepted_load: float
    avg_hops: float
    p50_latency: float = float("nan")

    @classmethod
    def from_result(cls, res: SimResult) -> "SweepPoint":
        return cls(
            offered_load=res.offered_load,
            avg_latency=res.avg_latency,
            p99_latency=res.p99_latency,
            accepted_load=res.accepted_load,
            avg_hops=res.avg_hops,
            p50_latency=res.p50_latency,
        )


@dataclass
class LoadSweep:
    """A labelled latency-vs-load curve."""

    label: str
    points: list

    @property
    def loads(self) -> np.ndarray:
        return np.array([p.offered_load for p in self.points])

    @property
    def latencies(self) -> np.ndarray:
        return np.array([p.avg_latency for p in self.points])

    @property
    def throughputs(self) -> np.ndarray:
        return np.array([p.accepted_load for p in self.points])

    def saturation_load(self) -> float:
        """The curve's saturation throughput (see :func:`saturation_load`)."""
        return saturation_load(self.points)

    def rows(self) -> list[dict]:
        """Table rows (one per load point) for report printing."""
        return [
            {
                "label": self.label,
                "offered": round(p.offered_load, 3),
                "latency": round(p.avg_latency, 1),
                "accepted": round(p.accepted_load, 3),
            }
            for p in self.points
        ]


def saturation_load(points) -> float:
    """The plateau (maximum) of accepted load over the sweep.

    This is the paper's saturation-throughput metric: below saturation
    accepted tracks offered, past it accepted flattens at the plateau,
    so the maximum accepted load IS the saturation throughput.
    """
    return max((p.accepted_load for p in points), default=0.0)
