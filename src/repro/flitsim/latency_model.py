"""Analytic latency model for cross-validating the flit simulator.

A first-order M/D/1-style queueing estimate of the latency-vs-load curve:

* zero-load latency = per-hop pipeline + link delay times average hops,
  plus packet serialization;
* channel load rho = p * load * avg_hops / k (uniform traffic on a
  k-radix direct network with p endpoints per router);
* queueing term = rho / (2 (1 - rho)) service times per traversed hop.

This is deliberately simple — its job is to sanity-check the simulator's
low/mid-load behaviour and saturation point, not replace it.  The test
suite asserts simulator and model agree at low load and that the model's
predicted saturation load brackets the simulator's.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.flitsim.engine import SimConfig
from repro.topologies.base import Topology

__all__ = ["LatencyModel"]


@dataclass
class LatencyModel:
    """Analytic latency/saturation estimates for uniform traffic.

    Parameters
    ----------
    topo:
        Direct network with uniform concentration ``p``.
    avg_hops:
        Mean minimal-path hop count (e.g. from RoutingTables or ASPL).
    config:
        Simulator config (packet size and pipeline latencies).
    """

    topo: Topology
    avg_hops: float
    config: SimConfig = SimConfig()

    @property
    def saturation_load(self) -> float:
        """Load where mean channel utilization reaches 1."""
        p = float(self.topo.concentration.mean())
        k = float(self.topo.graph.degree().mean())
        if p == 0:
            raise ValueError("latency model needs endpoints")
        return min(1.0, k / (p * self.avg_hops))

    def channel_load(self, load: float) -> float:
        """Mean channel utilization rho at offered ``load``."""
        return load / self.saturation_load if self.saturation_load else 1.0

    def zero_load_latency(self) -> float:
        """Hops x (pipeline + link) + serialization of the packet."""
        cfg = self.config
        per_hop = cfg.link_latency + cfg.router_pipeline
        return self.avg_hops * per_hop + cfg.packet_size - 1

    def latency(self, load: float) -> float:
        """Estimated mean packet latency at offered ``load`` (cycles).

        Returns ``inf`` at or past the saturation load.
        """
        rho = self.channel_load(load)
        if rho >= 1.0:
            return float("inf")
        # M/D/1 waiting time in units of flit service, applied per hop.
        queueing = rho / (2.0 * (1.0 - rho)) * self.config.packet_size
        return self.zero_load_latency() + self.avg_hops * queueing
