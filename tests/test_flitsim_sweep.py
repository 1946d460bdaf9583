"""Unit tests for the load-sweep harness."""

import numpy as np
import pytest

from repro.core import PolarFly
from repro.experiments import SweepRunner
from repro.flitsim import SimConfig, UniformTraffic
from repro.flitsim.engine import SimResult
from repro.flitsim.sweep import SweepPoint
from repro.routing import MinimalRouting, RoutingTables


@pytest.fixture(scope="module")
def sweep():
    pf = PolarFly(5, concentration=2)
    tables = RoutingTables(pf)
    return SweepRunner().run_objects(
        pf,
        MinimalRouting(tables),
        UniformTraffic(pf),
        loads=(0.1, 0.4, 0.8),
        label="PF5-MIN",
        config=SimConfig(),
        warmup=200,
        measure=400,
        drain=150,
        seed=0,
    )


class TestSweep:
    def test_point_count_and_label(self, sweep):
        assert len(sweep.points) == 3
        assert sweep.label == "PF5-MIN"

    def test_arrays(self, sweep):
        assert np.allclose(sweep.loads, [0.1, 0.4, 0.8])
        assert sweep.latencies.shape == (3,)
        assert sweep.throughputs.shape == (3,)

    def test_latency_increases(self, sweep):
        assert sweep.latencies[0] < sweep.latencies[-1]

    def test_throughput_tracks_low_load(self, sweep):
        assert sweep.throughputs[0] == pytest.approx(0.1, abs=0.03)

    def test_saturation_load_positive(self, sweep):
        sat = sweep.saturation_load()
        assert 0.1 <= sat <= 1.0

    def test_rows(self, sweep):
        rows = sweep.rows()
        assert len(rows) == 3
        assert set(rows[0]) == {"label", "offered", "latency", "accepted"}


class TestSweepPoint:
    def test_from_result_roundtrip(self):
        res = SimResult(0.5, 100, 10)
        res.ejected_flits = 250
        res.latencies = [10, 20]
        res.hop_counts = [1, 2]
        pt = SweepPoint.from_result(res)
        assert pt.offered_load == 0.5
        assert pt.accepted_load == 0.25
        assert pt.avg_latency == 15.0
        assert pt.avg_hops == 1.5
