"""repro — a full reproduction of *PolarFly: A Cost-Effective and Flexible
Low-Diameter Topology* (Lakhotia et al., SC 2022).

Subpackages
-----------
``repro.fields``
    Finite fields GF(q) (table-driven, vectorized) plus prime machinery.
``repro.core``
    The contribution: the ER_q PolarFly topology, Algorithm-1 layout,
    incremental expansion, and triangle/block-design structure.
``repro.topologies``
    Baselines: Slim Fly, Dragonfly, fat tree, Jellyfish, HyperX, Moore
    graphs.
``repro.routing``
    Minimal / Valiant / Compact Valiant / UGAL / UGAL_PF / fat-tree NCA.
``repro.flitsim``
    Cycle-accurate flit-level simulator with traffic patterns and load
    sweeps (the BookSim substitute).
``repro.workloads``
    Closed-loop workload engine: message DAGs, collective generators
    (all-reduce, all-to-all, halo, incast), trace replay, and
    completion-time metrics.
``repro.analysis``
    Bisection, resilience, path diversity, cost model, feasibility.

Quickstart
----------
>>> from repro import PolarFly
>>> pf = PolarFly(31)          # 993 routers, radix 32, diameter 2
>>> pf.diameter()
2
"""

from repro.core import (
    PolarFly,
    ClusterLayout,
    ExpandedPolarFly,
    replicate_quadrics,
    replicate_nonquadric_clusters,
    polarfly_order,
    polarfly_radix,
    feasible_q_for_radix,
)
from repro.topologies import (
    Topology,
    SlimFly,
    Dragonfly,
    balanced_dragonfly,
    FatTree,
    Jellyfish,
    HyperX,
    PetersenTopology,
    HoffmanSingletonTopology,
    moore_bound,
    moore_bound_diameter2,
)
from repro.routing import (
    RoutingTables,
    MinimalRouting,
    ValiantRouting,
    CompactValiantRouting,
    UGALRouting,
    UGALPFRouting,
    FatTreeNCARouting,
    degraded_topology,
    reroute_after_failures,
)
from repro.flitsim import (
    FlatSimulator,
    NetworkSimulator,
    SimConfig,
    SimResult,
    make_simulator,
    UniformTraffic,
    TornadoTraffic,
    RandomPermutationTraffic,
    OneHopPermutationTraffic,
    TwoHopPermutationTraffic,
    LoadSweep,
)
from repro.fields import GF
from repro.experiments import (
    Combo,
    ExperimentSpec,
    ResultCache,
    SweepRunner,
    TOPOLOGIES,
    POLICIES,
    TRAFFICS,
    WORKLOADS,
    FAULTS,
)
from repro.workloads import Message, Workload, WorkloadResult
from repro.faults import FaultEvent, FaultTimeline, FaultResult, prepare_fault_policy

__version__ = "1.1.0"

__all__ = [
    "PolarFly",
    "ClusterLayout",
    "ExpandedPolarFly",
    "replicate_quadrics",
    "replicate_nonquadric_clusters",
    "polarfly_order",
    "polarfly_radix",
    "feasible_q_for_radix",
    "Topology",
    "SlimFly",
    "Dragonfly",
    "balanced_dragonfly",
    "FatTree",
    "Jellyfish",
    "HyperX",
    "PetersenTopology",
    "HoffmanSingletonTopology",
    "moore_bound",
    "moore_bound_diameter2",
    "RoutingTables",
    "MinimalRouting",
    "ValiantRouting",
    "CompactValiantRouting",
    "UGALRouting",
    "UGALPFRouting",
    "FatTreeNCARouting",
    "degraded_topology",
    "reroute_after_failures",
    "FlatSimulator",
    "NetworkSimulator",
    "make_simulator",
    "SimConfig",
    "SimResult",
    "UniformTraffic",
    "TornadoTraffic",
    "RandomPermutationTraffic",
    "OneHopPermutationTraffic",
    "TwoHopPermutationTraffic",
    "LoadSweep",
    "GF",
    "Combo",
    "ExperimentSpec",
    "ResultCache",
    "SweepRunner",
    "TOPOLOGIES",
    "POLICIES",
    "TRAFFICS",
    "WORKLOADS",
    "FAULTS",
    "Message",
    "Workload",
    "WorkloadResult",
    "FaultEvent",
    "FaultTimeline",
    "FaultResult",
    "prepare_fault_policy",
    "__version__",
]
