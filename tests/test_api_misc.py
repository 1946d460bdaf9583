"""Coverage for API surface corners: summaries, large fields, edge cases."""

import numpy as np
import pytest

from repro import PolarFly, SimConfig, Topology
from repro.fields import GF
from repro.flitsim.engine import SimResult
from repro.flitsim.sweep import SweepPoint, saturation_load
from repro.utils.graph import Graph


class TestLargerFields:
    """Extension fields beyond the everyday sizes."""

    @pytest.mark.parametrize("q,p,m", ((121, 11, 2), (125, 5, 3), (243, 3, 5)))
    def test_construction(self, q, p, m):
        F = GF(q)
        assert (F.p, F.m) == (p, m)
        nz = np.arange(1, q)
        assert np.all(F.mul(nz, F.inv(nz)) == 1)

    def test_polarfly_q121(self):
        # PF on a large extension field: radix 122.
        pf = PolarFly(121)
        assert pf.num_routers == 121 * 121 + 121 + 1
        assert pf.quadric_mask.sum() == 122
        # Moore efficiency stays above 96%.
        assert pf.moore_bound_efficiency > 0.96

    def test_polarfly_q121_sampled_diameter(self):
        pf = PolarFly(121)
        # Sampled eccentricities must all be exactly 2.
        rng = np.random.default_rng(0)
        for s in rng.integers(0, pf.num_routers, 5):
            assert pf.graph.eccentricity(int(s)) == 2


class TestTopologyBase:
    def test_config_summary(self):
        pf = PolarFly(5, concentration=3)
        row = pf.config_summary()
        assert row["routers"] == 31
        assert row["network_radix"] == 6
        assert row["endpoints"] == 93

    def test_concentration_vector(self):
        g = Graph(3, [(0, 1), (1, 2)])
        topo = Topology("t", g, np.array([2, 0, 1]))
        assert topo.num_endpoints == 3
        assert topo.endpoint_router(0) == 0
        assert topo.endpoint_router(2) == 2
        assert topo.router_endpoints(0).tolist() == [0, 1]
        assert topo.router_endpoints(1).size == 0

    def test_negative_concentration_rejected(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            Topology("t", g, -1)

    def test_wrong_length_concentration_rejected(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ValueError):
            Topology("t", g, np.array([1, 2]))

    def test_total_radix(self):
        pf = PolarFly(5, concentration=4)
        assert pf.total_radix == 6 + 4

    def test_repr(self):
        assert "PF(q=5)" in repr(PolarFly(5))


class TestSimResultProperties:
    def test_empty_result_nans(self):
        res = SimResult(0.5, 100, 4)
        assert np.isnan(res.avg_latency)
        assert np.isnan(res.p99_latency)
        assert np.isnan(res.avg_hops)
        assert res.accepted_load == 0.0

    def test_saturated_flag(self):
        res = SimResult(0.8, 100, 10)
        res.ejected_flits = 500  # 0.5 accepted < 0.95*0.8
        assert res.saturated
        res.ejected_flits = 790
        assert not res.saturated

    def test_sim_config_port_capacity(self):
        cfg = SimConfig(num_vcs=4, vc_depth=8)
        assert cfg.port_capacity == 32


class TestSaturationHelper:
    def test_plateau_detection(self):
        pts = [
            SweepPoint(0.2, 10, 12, 0.2, 1.8),
            SweepPoint(0.6, 30, 40, 0.58, 1.8),
            SweepPoint(0.9, 300, 500, 0.6, 1.9),
        ]
        assert saturation_load(pts) == pytest.approx(0.6)

    def test_empty(self):
        assert saturation_load([]) == 0.0
