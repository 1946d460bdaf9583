"""Which routing tables are served from coordinates, and the diameter
every table declares.

:func:`~repro.routing.algebraic.coordinates_apply` is the one rule: an
intact network of exactly the :class:`~repro.core.polarfly.PolarFly` or
:class:`~repro.topologies.polarstar.PolarStar` type.  Such tables answer
:attr:`~repro.routing.tables.RoutingTables.max_distance` (2 and 3)
without an all-pairs BFS; every other table answers ``dist.max()``.
The declared diameter must be the measured one on every registered
family, and each stock policy's ``max_hops`` — which sizes the VC budget
and the route stride — must keep the value it had while every table was
built up front.
"""

import numpy as np
import pytest

from repro.core.polarfly import PolarFly
from repro.experiments.registry import POLICIES, TOPOLOGIES
from repro.routing.algebraic import coordinates_apply
from repro.routing.degraded import fault_epoch_tables
from repro.routing.tables import RoutingTables
from repro.topologies.polarstar import PolarStar


def _hops(diameter, ftnca=None):
    """Stock ``max_hops`` on a network of this diameter: minimal routing
    takes the diameter, every detouring policy twice it."""
    hops = {"min": diameter}
    for name in ("valiant", "compact-valiant", "ugal", "ugal-pf"):
        hops[name] = 2 * diameter
    if ftnca is not None:
        hops["ftnca"] = ftnca
    return hops


#: registered example spec -> (diameter, stock policy -> max_hops), as
#: measured with every table built by the constructor
EXPECTED = {
    "dragonfly:a=4,h=2,p=2": (3, _hops(3)),
    "fattree:k=4,n=3": (4, _hops(4, ftnca=4)),
    "hoffman-singleton:p=2": (2, _hops(2)),
    "hyperx:L=2,S=3,p=1": (2, _hops(2)),
    "jellyfish:n=25,p=2,r=4,seed=7": (4, _hops(4)),
    "petersen:p=2": (2, _hops(2)),
    "polarfly:conc=2,q=5": (2, _hops(2)),
    "polarstar:conc=2,q=3,sq=5": (3, _hops(3)),
    "slimfly:conc=2,q=5": (2, _hops(2)),
}


def test_every_registered_family_has_a_row():
    assert sorted(EXPECTED) == sorted(
        TOPOLOGIES.example(name) for name in TOPOLOGIES.names()
    )
    for _, hops in EXPECTED.values():
        assert set(hops) <= set(POLICIES.names())


@pytest.mark.parametrize("spec", sorted(EXPECTED))
def test_declared_diameter_is_the_measured_one(spec):
    diameter, hops = EXPECTED[spec]
    tables = RoutingTables(TOPOLOGIES.create(spec))
    got = {
        name: POLICIES.create(POLICIES.example(name), tables).max_hops
        for name in hops
    }
    # Coordinate-served tables declared all of that without a build.
    assert (tables._dist is None) == coordinates_apply(tables)
    assert tables.max_distance == int(np.asarray(tables.dist).max()) == diameter
    assert got == hops


class RewiredPolarFly(PolarFly):
    """A subclass may change the graph: it must not take the shortcut."""


class RewiredPolarStar(PolarStar):
    """The same for PolarStar."""


def _pf():
    return PolarFly(5, concentration=2)


def _ps():
    return PolarStar(3, sq=5, concentration=2)


def _epoch(make=_pf, links=0, routers=()):
    """Repaired tables with the first ``links`` edges and ``routers`` out."""
    topo = make()
    failed = [tuple(edge) for edge in topo.graph.edges()[:links]]
    return fault_epoch_tables(
        topo, failed, failed_routers=routers, base=RoutingTables(topo)
    )


def _cases(prefix, make, rewired):
    """(case, tables factory, served from coordinates) for one family."""
    return [
        (f"{prefix}intact", lambda: RoutingTables(make()), True),
        (f"{prefix}subclass", lambda: RoutingTables(rewired()), False),
        (
            f"{prefix}alive mask",
            lambda: RoutingTables(t := make(), alive=np.ones(t.num_routers, bool)),
            False,
        ),
        (
            f"{prefix}given distances",
            lambda: RoutingTables.from_distances(make(), RoutingTables(make()).dist),
            False,
        ),
        (f"{prefix}link flap epoch", lambda: _epoch(make, links=1), False),
        (f"{prefix}router down epoch", lambda: _epoch(make, routers=[3]), False),
    ]


CASES = [
    *_cases("", _pf, lambda: RewiredPolarFly(5, concentration=2)),
    *_cases("polarstar ", _ps, lambda: RewiredPolarStar(3, sq=5, concentration=2)),
    ("slimfly", lambda: RoutingTables(TOPOLOGIES.create("slimfly:conc=2,q=5")), False),
]


@pytest.mark.parametrize(
    "make,served", [pytest.param(m, s, id=c) for c, m, s in CASES]
)
def test_coordinates_apply_exactly_to_an_intact_polarfly(make, served):
    tables = make()
    assert coordinates_apply(tables) == served
    declared = tables.max_distance
    # Only coordinate-served tables answer without building ``dist``.
    assert (tables._dist is None) == served
    assert declared == int(np.asarray(tables.dist).max())
