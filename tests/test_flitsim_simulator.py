"""Unit and behavioural tests for the cycle-accurate flit simulator."""

import numpy as np
import pytest

from repro.core import PolarFly
from repro.flitsim import (
    FlatSimulator,
    NetworkSimulator,
    SimConfig,
    TornadoTraffic,
    UniformTraffic,
    available_engines,
    make_simulator,
)
from repro.flitsim.packet import Packet
from repro.routing import MinimalRouting, RoutingTables, UGALPFRouting, ValiantRouting


@pytest.fixture(scope="module")
def pf():
    return PolarFly(5, concentration=2)


@pytest.fixture(scope="module")
def tables(pf):
    return RoutingTables(pf)


@pytest.fixture(scope="module")
def minimal(tables):
    return MinimalRouting(tables)


def quick(sim, warmup=300, measure=600, drain=200):
    return sim.run(warmup=warmup, measure=measure, drain=drain)


class TestPacket:
    def test_fields(self):
        p = Packet(3, (0, 5, 9), 4, 100)
        assert p.src == 0 and p.dst == 9 and p.hops == 2
        assert p.latency == -1
        p.t_ejected = 130
        assert p.latency == 30


class TestValidation:
    def test_requires_endpoints(self, tables, minimal):
        bare = PolarFly(5)
        tr = UniformTraffic(bare)
        with pytest.raises(ValueError):
            NetworkSimulator(bare, minimal, tr, 0.5)

    def test_rejects_bad_load(self, pf, minimal):
        tr = UniformTraffic(pf)
        with pytest.raises(ValueError):
            NetworkSimulator(pf, minimal, tr, 1.5)

    def test_rejects_insufficient_vcs(self, pf, tables):
        tr = UniformTraffic(pf)
        valiant = ValiantRouting(tables)  # 4-hop worst case
        with pytest.raises(ValueError):
            NetworkSimulator(pf, valiant, tr, 0.5, config=SimConfig(num_vcs=2))

    @pytest.mark.parametrize(
        "field,bad,floor",
        [
            ("packet_size", 0, 1),  # was a bare ZeroDivisionError in a span
            ("packet_size", -4, 1),
            ("num_vcs", 0, 1),
            ("vc_depth", 0, 1),  # ran with accepted load 0
            ("link_latency", -3, 0),  # ran with a negative hop latency
            ("router_pipeline", -1, 0),
        ],
    )
    def test_bad_config_names_the_field(self, field, bad, floor):
        with pytest.raises(ValueError, match=rf"SimConfig\.{field} must be >= {floor}"):
            SimConfig(**{field: bad})
        assert getattr(SimConfig(**{field: floor}), field) == floor


#: bad (warmup, measure, drain) -> the field the error must name
BAD_WINDOWS = [
    (dict(measure=0), "measure"),
    (dict(measure=-5), "measure"),
    (dict(warmup=-1), "warmup"),
    (dict(drain=-1), "drain"),
    (dict(warmup=10.5), "warmup"),
    (dict(measure=None), "measure"),
    (dict(warmup=-1, measure=0), "warmup"),
]


@pytest.mark.parametrize("engine", [NetworkSimulator, FlatSimulator])
class TestRunContract:
    @pytest.mark.parametrize("windows,field", BAD_WINDOWS)
    def test_bad_window_names_the_field(self, pf, minimal, engine, windows, field):
        sim = engine(pf, minimal, UniformTraffic(pf), 0.3, seed=0)
        with pytest.raises(ValueError, match=f"^{field} must be an integer >= "):
            sim.run(**{"warmup": 5, "measure": 5, "drain": 5, **windows})
        assert sim.now == 0  # rejected before a cycle ran

    def test_empty_warmup_and_drain_are_fine(self, pf, minimal, engine):
        sim = engine(pf, minimal, UniformTraffic(pf), 0.3, seed=0)
        res = sim.run(warmup=0, measure=1, drain=0)
        assert res.cycles == 1 and sim.now == 1

    def test_second_run_says_the_result_is_out(self, pf, minimal, engine):
        sim = engine(pf, minimal, UniformTraffic(pf), 0.3, seed=0)
        first = sim.run(warmup=20, measure=40, drain=20)
        samples = first.latencies.copy()
        with pytest.raises(RuntimeError, match="already produced its result"):
            sim.run(warmup=20, measure=40, drain=20)
        assert sim.now == 80 and np.array_equal(first.latencies, samples)


class TestConservation:
    def test_zero_load_is_silent(self, pf, minimal):
        sim = NetworkSimulator(pf, minimal, UniformTraffic(pf), 0.0, seed=0)
        res = quick(sim)
        assert res.ejected_flits == 0
        assert np.isnan(res.avg_latency)

    def test_flits_conserved(self, pf, minimal):
        # After a full drain at low load, everything injected must eject.
        sim = NetworkSimulator(pf, minimal, UniformTraffic(pf), 0.2, seed=1)
        sim.run(warmup=0, measure=500, drain=800)
        in_flight = sum(
            len(q) for r in range(pf.num_routers) for q in sim.voq[r].values()
        )
        src_left = sum(
            len(q) for r in range(pf.num_routers) for q in sim.src_q[r]
        )
        assert in_flight == 0 and src_left == 0

    def test_credits_restored_after_drain(self, pf, minimal):
        cfg = SimConfig()
        sim = NetworkSimulator(pf, minimal, UniformTraffic(pf), 0.2, config=cfg, seed=1)
        sim.run(warmup=0, measure=400, drain=800)
        for r in range(pf.num_routers):
            for port_credits in sim.credits[r]:
                assert all(c == cfg.vc_depth for c in port_credits)
            assert all(c == cfg.vc_depth for c in sim.inj_credit[r])

    def test_accepted_tracks_offered_below_saturation(self, pf, minimal):
        sim = NetworkSimulator(pf, minimal, UniformTraffic(pf), 0.3, seed=2)
        res = quick(sim)
        assert res.accepted_load == pytest.approx(0.3, abs=0.05)
        assert not res.saturated


class TestLatency:
    def test_zero_load_latency_near_hops(self, pf, minimal):
        # At very low load latency ~ serialization + per-hop pipeline.
        sim = NetworkSimulator(pf, minimal, UniformTraffic(pf), 0.02, seed=3)
        res = quick(sim)
        assert 4 <= res.avg_latency <= 25

    def test_latency_monotone_in_load(self, pf, minimal):
        lat = []
        for load in (0.1, 0.5, 0.9):
            sim = NetworkSimulator(pf, minimal, UniformTraffic(pf), load, seed=4)
            lat.append(quick(sim).avg_latency)
        assert lat[0] < lat[2]

    def test_hops_recorded(self, pf, minimal):
        sim = NetworkSimulator(pf, minimal, UniformTraffic(pf), 0.2, seed=5)
        res = quick(sim)
        assert 1.0 <= res.avg_hops <= 2.0

    def test_p99_at_least_mean(self, pf, minimal):
        sim = NetworkSimulator(pf, minimal, UniformTraffic(pf), 0.4, seed=6)
        res = quick(sim)
        assert res.p99_latency >= res.avg_latency


class TestPaperBehaviours:
    def test_min_permutation_capped_at_1_over_p(self, pf, minimal):
        # Section VIII-B: min-path permutation throughput <= 1/p.
        sim = NetworkSimulator(pf, minimal, TornadoTraffic(pf), 0.9, seed=7)
        res = quick(sim)
        p = 2
        assert res.accepted_load <= 1 / p + 0.05

    def test_adaptive_beats_minimal_on_tornado(self, pf, tables, minimal):
        tor = TornadoTraffic(pf)
        res_min = quick(NetworkSimulator(pf, minimal, tor, 0.6, seed=8))
        ugal = UGALPFRouting(tables)
        res_ugal = quick(NetworkSimulator(pf, ugal, tor, 0.6, seed=8))
        assert res_ugal.accepted_load > res_min.accepted_load * 1.3

    def test_ugalpf_near_minimal_on_uniform(self, pf, tables, minimal):
        # Figure 8b: UGAL_PF tracks min-path behaviour under uniform load.
        uni = UniformTraffic(pf)
        res_min = quick(NetworkSimulator(pf, minimal, uni, 0.4, seed=9))
        ugal = UGALPFRouting(tables)
        res_ugal = quick(NetworkSimulator(pf, ugal, uni, 0.4, seed=9))
        assert res_ugal.avg_latency < res_min.avg_latency * 1.5
        assert res_ugal.accepted_load == pytest.approx(
            res_min.accepted_load, rel=0.15
        )


class TestDeterminism:
    def test_same_seed_same_result(self, pf, minimal):
        r1 = quick(NetworkSimulator(pf, minimal, UniformTraffic(pf), 0.3, seed=42))
        r2 = quick(NetworkSimulator(pf, minimal, UniformTraffic(pf), 0.3, seed=42))
        assert r1.ejected_flits == r2.ejected_flits
        # latencies are numpy arrays after SimResult.finalize()
        assert np.array_equal(r1.latencies, r2.latencies)

    def test_different_seeds_differ(self, pf, minimal):
        r1 = quick(NetworkSimulator(pf, minimal, UniformTraffic(pf), 0.3, seed=1))
        r2 = quick(NetworkSimulator(pf, minimal, UniformTraffic(pf), 0.3, seed=2))
        assert not np.array_equal(r1.latencies, r2.latencies)


class TestCongestionView:
    def test_occupancy_zero_when_idle(self, pf, minimal):
        sim = NetworkSimulator(pf, minimal, UniformTraffic(pf), 0.0, seed=0)
        r = 0
        nbrs = pf.graph.neighbors(r)
        assert not sim.output_occupancies(np.full(nbrs.size, r), nbrs).any()

    def test_occupancy_positive_under_load(self, pf, minimal):
        sim = NetworkSimulator(pf, minimal, TornadoTraffic(pf), 0.9, seed=1)
        for _ in range(400):
            sim.step()
        indptr = pf.graph.indptr
        routers = np.repeat(np.arange(pf.num_routers), np.diff(indptr))
        occs = sim.output_occupancies(routers, pf.graph.indices)
        assert occs.max() > 0

    def test_capacity(self, pf, minimal):
        sim = NetworkSimulator(pf, minimal, UniformTraffic(pf), 0.1)
        assert sim.output_capacity() == SimConfig().vc_depth


def test_available_engines_are_what_make_simulator_builds(pf, minimal):
    built = {
        name: type(make_simulator(pf, minimal, UniformTraffic(pf), 0.1, engine=name))
        for name in available_engines()
    }
    assert built == {"flat": FlatSimulator, "reference": NetworkSimulator}
    with pytest.raises(ValueError, match="choose from flat, reference$"):
        make_simulator(pf, minimal, UniformTraffic(pf), 0.1, engine="booksim")
