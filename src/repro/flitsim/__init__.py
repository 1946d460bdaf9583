"""Cycle-accurate flit-level network simulator (the BookSim substitute).

Input-queued VC routers with credit flow control, Bernoulli injection of
multi-flit packets, the paper's traffic patterns, and a load-sweep harness
producing the latency/throughput curves of Figures 8-11.

Two result-equivalent engines implement the cycle protocol (see
:mod:`repro.flitsim.engine`): the struct-of-arrays
:class:`~repro.flitsim.flatcore.FlatSimulator` production core (default;
optional C kernel) and the readable
:class:`~repro.flitsim.reference.NetworkSimulator` oracle
(``REPRO_SIM_ENGINE=reference``).
"""

from repro.flitsim.packet import Packet
from repro.flitsim.engine import (
    ENGINE_ENV,
    SimConfig,
    SimResult,
    available_engines,
    make_simulator,
)
from repro.flitsim.flatcore import FlatFabric, FlatSimulator
from repro.flitsim.reference import NetworkSimulator
from repro.flitsim.traffic import (
    TrafficPattern,
    UniformTraffic,
    PermutationTraffic,
    TornadoTraffic,
    RandomPermutationTraffic,
    OneHopPermutationTraffic,
    TwoHopPermutationTraffic,
    one_hop_permutation,
    two_hop_permutation,
)
from repro.flitsim.sweep import SweepPoint, LoadSweep, saturation_load
from repro.flitsim.patterns_extra import (
    BitComplementTraffic,
    ShiftTraffic,
    HotspotTraffic,
)

__all__ = [
    "ENGINE_ENV",
    "available_engines",
    "make_simulator",
    "FlatFabric",
    "FlatSimulator",
    "BitComplementTraffic",
    "ShiftTraffic",
    "HotspotTraffic",
    "Packet",
    "NetworkSimulator",
    "SimConfig",
    "SimResult",
    "TrafficPattern",
    "UniformTraffic",
    "PermutationTraffic",
    "TornadoTraffic",
    "RandomPermutationTraffic",
    "OneHopPermutationTraffic",
    "TwoHopPermutationTraffic",
    "one_hop_permutation",
    "two_hop_permutation",
    "SweepPoint",
    "LoadSweep",
    "saturation_load",
]
