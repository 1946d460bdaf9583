"""Routing: distance tables, path policies, and path enumeration.

Implements the paper's Section VII protocols (minimal, Valiant, Compact
Valiant, UGAL, UGAL_PF) plus fat-tree NCA routing for the indirect
baseline.
"""

from repro.routing.tables import RoutingTables
from repro.routing.policies import (
    CongestionView,
    RoutingPolicy,
    MinimalRouting,
    ValiantRouting,
    CompactValiantRouting,
    UGALRouting,
    UGALPFRouting,
    FatTreeNCARouting,
    ZERO_CONGESTION,
)
from repro.routing.degraded import (
    degraded_topology,
    fault_epoch_tables,
    reroute_after_failures,
)
from repro.routing.paths import (
    enumerate_paths,
    count_paths_of_length,
    count_paths_up_to,
)

__all__ = [
    "RoutingTables",
    "degraded_topology",
    "fault_epoch_tables",
    "reroute_after_failures",
    "CongestionView",
    "RoutingPolicy",
    "MinimalRouting",
    "ValiantRouting",
    "CompactValiantRouting",
    "UGALRouting",
    "UGALPFRouting",
    "FatTreeNCARouting",
    "ZERO_CONGESTION",
    "enumerate_paths",
    "count_paths_of_length",
    "count_paths_up_to",
]
