"""Registry round-trips: every registered spec parses, builds, and
re-serializes to itself; unknown/malformed specs fail loudly."""

import pytest

from repro.core import PolarFly
from repro.experiments import (
    FAULTS,
    POLICIES,
    TOPOLOGIES,
    TRAFFICS,
    WORKLOADS,
    Registry,
)
from repro.routing import RoutingTables
from repro.topologies.base import Topology


@pytest.fixture(scope="module")
def pf_tables():
    return RoutingTables(PolarFly(5, concentration=2))


ALL_REGISTRIES = [TOPOLOGIES, POLICIES, TRAFFICS, WORKLOADS]


class TestRoundTrip:
    """The ISSUE contract: registered examples are canonical fixed points."""

    @pytest.mark.parametrize("registry", ALL_REGISTRIES, ids=lambda r: r.kind)
    def test_examples_are_canonical(self, registry):
        assert registry.names(), "registry must not be empty"
        for name in registry.names():
            example = registry.example(name)
            parsed_name, kwargs = registry.parse(example)
            assert parsed_name == name
            assert isinstance(kwargs, dict)
            # canonical form is a fixed point
            assert registry.canonical(example) == example
            assert registry.canonical(registry.canonical(example)) == example

    def test_canonical_sorts_keys(self):
        assert (
            TOPOLOGIES.canonical("polarfly:q=5,conc=2")
            == TOPOLOGIES.canonical("polarfly:conc=2,q=5")
            == "polarfly:conc=2,q=5"
        )

    def test_every_topology_example_constructs(self):
        for name in TOPOLOGIES.names():
            topo = TOPOLOGIES.create(TOPOLOGIES.example(name))
            assert isinstance(topo, Topology), name
            assert topo.num_routers > 0, name

    def test_every_policy_example_constructs(self, pf_tables):
        for name in POLICIES.names():
            if name == "ftnca":  # needs a FatTree, not a PolarFly
                continue
            policy = POLICIES.create(POLICIES.example(name), pf_tables)
            assert policy.max_hops >= 1, name

    def test_ftnca_constructs_on_fattree(self):
        ft = TOPOLOGIES.create("fattree:k=4,n=3")
        policy = POLICIES.create("ftnca", RoutingTables(ft))
        assert policy.max_hops == 4

    def test_every_traffic_example_constructs(self):
        pf = PolarFly(5, concentration=2)
        for name in TRAFFICS.names():
            traffic = TRAFFICS.create(TRAFFICS.example(name), pf)
            assert hasattr(traffic, "dest_router"), name


class TestErrors:
    def test_unknown_name_raises_keyerror_naming_choices(self):
        with pytest.raises(KeyError, match="polarfly"):
            TOPOLOGIES.parse("polarflea:q=7")
        with pytest.raises(KeyError, match="valid choices"):
            POLICIES.parse("ospf")
        with pytest.raises(KeyError, match="uniform"):
            TRAFFICS.create("uniformish", None)

    def test_malformed_spec(self):
        with pytest.raises(ValueError, match="key=value"):
            TOPOLOGIES.parse("polarfly:q")
        with pytest.raises(ValueError, match="duplicate key"):
            TOPOLOGIES.parse("polarfly:q=5,q=7")
        with pytest.raises(ValueError):
            TOPOLOGIES.parse("")

    def test_bad_arguments_name_the_spec(self):
        with pytest.raises(TypeError, match="polarfly"):
            TOPOLOGIES.create("polarfly:bogus=1,q=5")

    @pytest.mark.parametrize(
        "registry,spec,cause",
        [
            pytest.param(registry, spec, cause, id=name)
            for name, registry, spec, cause in [
                ("topology", TOPOLOGIES, "polarfly:q=abc", "q must be an integer, got 'abc'"),
                ("jellyfish-r0", TOPOLOGIES, "jellyfish:n=25,p=2,r=0", "degree r=0"),
                ("jellyfish-r1", TOPOLOGIES, "jellyfish:n=25,p=2,r=1", "degree r=1"),
                (
                    "jellyfish-r-too-big", TOPOLOGIES, "jellyfish:n=8,p=2,r=8",
                    "got r=8, n=8",
                ),
                (
                    "jellyfish-parity", TOPOLOGIES, "jellyfish:n=25,p=2,r=3",
                    "got n=25, r=3",
                ),
                (
                    "polarstar-sq", TOPOLOGIES, "polarstar:conc=2,q=3,sq=7",
                    "supernode order sq must be",
                ),
                (
                    "routing-policy", POLICIES, "ugal-pf:threshold=abc",
                    "could not convert string",
                ),
                ("ugal-bias-str", POLICIES, "ugal:bias=abc", "bias must be an integer"),
                ("ugal-bias-float", POLICIES, "ugal:bias=1.5", "bias must be an integer"),
                ("ugal-pf-bias-str", POLICIES, "ugal-pf:bias=x", "bias must be an integer"),
                (
                    "ugal-pf-threshold-negative", POLICIES, "ugal-pf:threshold=-1",
                    "threshold must be finite and >= 0",
                ),
                (
                    "ugal-pf-threshold-nan", POLICIES, "ugal-pf:threshold=nan",
                    "threshold must be finite and >= 0",
                ),
                (
                    "ugal-pf-threshold-inf", POLICIES, "ugal-pf:threshold=inf",
                    "threshold must be finite and >= 0",
                ),
                (
                    "traffic-pattern", TRAFFICS, "hotspot:fraction=2",
                    "fraction must be in (0, 1]",
                ),
                ("workload", WORKLOADS, "allreduce:algo=bogus", "unknown all-reduce algo"),
                (
                    "ring-size-zero", WORKLOADS, "allreduce:algo=ring,size=0",
                    "size must be >= 1, got 0",
                ),
                (
                    "ring-size-negative", WORKLOADS, "allreduce:algo=ring,size=-4",
                    "size must be >= 1, got -4",
                ),
                (
                    "ring-size-float", WORKLOADS, "allreduce:algo=ring,size=2.5",
                    "size must be an integer, got 2.5",
                ),
                ("rd-size-zero", WORKLOADS, "allreduce:algo=rd,size=0", "size must be >= 1"),
                ("alltoall-size-zero", WORKLOADS, "alltoall:size=0", "size must be >= 1"),
                ("halo-iters-zero", WORKLOADS, "halo:iters=0", "iters must be >= 1, got 0"),
                ("halo-size-float", WORKLOADS, "halo:size=1.5", "size must be an integer"),
                ("incast-size-negative", WORKLOADS, "incast:size=-1", "size must be >= 1"),
                ("fault-timeline", FAULTS, "mtbf:mtbf=-3", "mtbf needs mtbf > 0"),
            ]
        ]
        + [
            # A float or bool for an int parameter (the spec's last field)
            # is refused, not truncated into another cell's object.
            pytest.param(
                registry, spec,
                f"{spec.split(':')[1].split(',')[-1].split('=')[0]} must be an integer",
                id=f"not-int-{spec}",
            )
            for registry, spec in [
                (WORKLOADS, "incast:root=1.5"),
                (TOPOLOGIES, "polarfly:conc=2,q=5.5"),
                (TOPOLOGIES, "polarfly:q=5,conc=2.5"),
                (TOPOLOGIES, "hyperx:L=2,S=3.9"),
                (TOPOLOGIES, "polarstar:q=3,sq=5.5"),
                (TOPOLOGIES, "jellyfish:n=25,p=2,r=4,seed=7.5"),
                (FAULTS, "linkflap:count=2.7"),
                (FAULTS, "linkflap:cycle=300.9"),
                (FAULTS, "routerdown:count=1.5"),
                (FAULTS, "mtbf:seed=2.5"),
                (TRAFFICS, "shift:offset=1.5"),
                (TRAFFICS, "randperm:seed=2.5"),
                (TRAFFICS, "hotspot:hotspot=1.5"),
                (WORKLOADS, "halo:iters=true"),
            ]
        ],
    )
    def test_bad_values_name_the_kind_and_spec(self, pf_tables, registry, spec, cause):
        """A factory's ValueError comes back naming what was being built."""
        args = {TOPOLOGIES: (), POLICIES: (pf_tables,)}.get(
            registry, (pf_tables.topo,)
        )
        with pytest.raises(ValueError) as err:
            registry.create(spec, *args)
        assert str(err.value).startswith(f"bad value in {registry.kind} {spec!r}: ")
        assert cause in str(err.value)
        assert type(err.value.__cause__) is ValueError
        assert cause in str(err.value.__cause__)

    def test_duplicate_registration_rejected(self):
        reg = Registry("thing")
        reg.register("x")(lambda: None)
        with pytest.raises(ValueError, match="duplicate"):
            reg.register("x")(lambda: None)

    def test_reserved_chars_rejected_in_names(self):
        reg = Registry("thing")
        with pytest.raises(ValueError):
            reg.register("a:b")


class TestValueParsing:
    def test_typed_values(self):
        reg = Registry("thing")

        @reg.register("probe")
        def probe(**kw):
            return kw

        got = reg.create("probe:a=1,b=2.5,c=true,d=false,e=text")
        assert got == {"a": 1, "b": 2.5, "c": True, "d": False, "e": "text"}
        assert isinstance(got["a"], int) and not isinstance(got["a"], bool)

    def test_extra_kwargs_override_spec(self):
        assert TOPOLOGIES.create("polarfly:conc=2,q=5", q=7).num_routers == 57

    def test_spec_kwargs_reach_constructor(self):
        jf = TOPOLOGIES.create("jellyfish:n=20,p=1,r=4,seed=9")
        assert jf.num_routers == 20
        assert jf.seed == 9
        assert int(jf.concentration[0]) == 1
