"""Windowed time-series telemetry: non-perturbation + analytics.

Window records are compared across all three cycle paths, open loop,
faulted and closed loop, in ``tests/test_differential.py``.  Collecting
a series must not perturb the simulation itself: the windowed run's
SimResult is bit-identical to a plain ``run()``.

On top of the collector: steady-state detection, fault-recovery
extraction and Chrome-trace export.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.flitsim.telemetry import WindowCloser
from repro.obs.timeseries import (
    TimeSeriesCollector,
    WindowSeries,
    chrome_trace,
    chrome_trace_from_events,
    fault_recovery,
    steady_state_window,
    write_chrome_trace,
)

from oracles import assert_same_result, build

#: topology, policy, traffic, load
CELL = ("polarfly:conc=2,q=7", "ugal-pf", "uniform", 0.5)
FAULT_SPEC = "linkflap:count=3,cycle=150,duration=120,seed=1"
ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


class TestNonPerturbation:
    """Collecting a series never changes what is simulated."""

    @pytest.mark.parametrize("fault_spec", [None, FAULT_SPEC],
                             ids=["clean", "faulted"])
    def test_windowed_result_equals_plain_run(self, fault_spec):
        plain = build(*CELL, seed=7, faults=fault_spec)
        plain_res = plain.run(warmup=120, measure=240, drain=80)
        windowed = build(*CELL, seed=7, faults=fault_spec)
        closer = WindowCloser(window=64, sample_every=8)
        win_res = windowed.run(warmup=120, measure=240, drain=80, observers=[closer])
        series = closer.series
        assert_same_result(plain_res, win_res)
        assert len(series) == 4
        assert all(w["link_total"] > 0 for w in series.windows)
        if fault_spec:
            a, b = plain.fault_result.summary(), windowed.fault_result.summary()
            # The windowed run adds recovery keys on top of an otherwise
            # identical summary: the series feeds recovery analytics
            # into the fault result.
            assert {k: v for k, v in b.items()
                    if not k.startswith("fault_recovery_")} == a
            assert "fault_recovery_cycles" not in a
            assert series.fault_cycles() and "fault_recovery_cycles" in b
            assert windowed.fault_result.recovery is not None
            assert windowed._fault.dropped_flits > 0

    def test_rejects_wrong_loop_kind(self):
        open_loop = build(*CELL)
        with pytest.raises(RuntimeError, match="no workload attached"):
            open_loop.run_workload(observers=[WindowCloser()])
        closed_loop = build(*CELL[:2], None, 0.0, workload="alltoall:size=8")
        with pytest.raises(RuntimeError, match="use run_workload"):
            closed_loop.run(observers=[WindowCloser()])
        assert open_loop.now == closed_loop.now == 0


def make_series(rates, window=10, faults=None):
    """A synthetic WindowSeries with given per-window ejected counts."""
    s = WindowSeries(window=window, top_links=4)
    for i, r in enumerate(rates):
        s.windows.append({
            "index": i, "start": i * window, "end": (i + 1) * window,
            "injected": r, "ejected": r, "dropped": 0,
            "latency": {"count": r, "mean": 10.0, "p50": 10.0,
                        "p99": 20.0, "max": 25.0},
            "occupancy": {"count": 2, "mean": 5.0, "p50": 5.0,
                          "p99": 6.0, "max": 6.0},
            "link_total": r, "top_links": [],
            "faults": list((faults or {}).get(i, [])),
        })
    return s


class TestAnalytics:
    def test_collector_rejects_bad_window(self):
        with pytest.raises(ValueError):
            TimeSeriesCollector(0)

    def test_steady_state_detects_warmup_knee(self):
        # One cold warmup window, then flat: the cumulative mean's
        # relative step drops below 5% from window 5 onward.
        series = make_series([100] + [1000] * 9)
        assert steady_state_window(series, tol=0.05, consecutive=3) == 5
        # A flat series is steady (almost) immediately; a short or
        # never-settling one reports None.
        assert steady_state_window(make_series([50] * 6)) == 1
        assert steady_state_window(make_series([50, 51])) is None
        ramp = make_series([2 ** i for i in range(8)])
        assert steady_state_window(ramp, tol=0.01) is None

    def test_fault_recovery_extracts_baseline_and_recovery(self):
        series = make_series(
            [100, 100, 100, 40, 60, 96, 100],
            faults={3: [31]},
        )
        rec = fault_recovery(series, tol=0.1)
        assert rec["fault_cycle"] == 31
        assert rec["fault_window"] == 3
        assert rec["baseline"] == pytest.approx(10.0)  # per-cycle rate
        assert rec["recovered_window"] == 5  # 96 >= 0.9 * 100
        assert rec["recovery_cycles"] == 60 - 31

    def test_fault_recovery_edge_cases(self):
        assert fault_recovery(make_series([10, 10])) is None  # no faults
        # Fault in window 0: no pre-fault baseline to recover to.
        rec = fault_recovery(make_series([10, 10], faults={0: [2]}))
        assert rec["baseline"] is None and rec["recovery_cycles"] is None
        # Throughput never comes back: recovery is None, not a lie.
        rec = fault_recovery(
            make_series([100, 100, 20, 20, 20], faults={2: [21]})
        )
        assert rec["recovered_window"] is None

    def test_series_round_trips_through_summary(self):
        series = make_series([10, 20, 30], faults={1: [15]})
        clone = WindowSeries.from_summary(
            json.loads(json.dumps(series.summary()))
        )
        assert clone.summary() == series.summary()
        assert clone.values("ejected") == [10, 20, 30]
        assert clone.rates("ejected") == [1.0, 2.0, 3.0]


class TestChromeTrace:
    def test_trace_structure(self, tmp_path):
        series = make_series([10, 20], faults={1: [15]})
        doc = chrome_trace(series, name="test")
        evs = doc["traceEvents"]
        assert evs[0]["ph"] == "M"
        counters = [e for e in evs if e["ph"] == "C"]
        faults = [e for e in evs if e["ph"] == "i"]
        assert {c["name"] for c in counters} == {
            "flits", "latency", "occupancy", "link_flits"
        }
        assert len(faults) == 1 and faults[0]["ts"] == 15
        assert faults[0]["s"] == "g"
        path = write_chrome_trace(series, str(tmp_path / "trace.json"))
        assert json.load(open(path))["traceEvents"]

    def test_trace_from_jsonl_events(self):
        events = [
            {"ev": "ts.window", "key": "abc", "index": 1, "start": 10,
             "end": 20, "ejected": 5, "injected": 5, "dropped": 0,
             "lat_p50": 9.0, "lat_p99": 14.0, "occ_mean": 3.0,
             "link_total": 5, "faults": [12]},
            {"ev": "ts.window", "key": "abc", "index": 0, "start": 0,
             "end": 10, "ejected": 4, "injected": 4, "dropped": 0,
             "lat_p50": 8.0, "lat_p99": 12.0, "occ_mean": 2.0,
             "link_total": 4, "faults": []},
            {"ev": "span", "name": "noise"},
        ]
        doc = chrome_trace_from_events(events)
        evs = doc["traceEvents"]
        flits = [e for e in evs if e.get("name") == "flits"]
        # Out-of-order records are re-ordered by window index.
        assert [e["ts"] for e in flits] == [0, 10]
        assert sum(e.get("ph") == "i" for e in evs) == 1
        assert chrome_trace_from_events([]) == {
            "traceEvents": [], "displayTimeUnit": "ms"
        }


class TestWindowedSweepCells:
    """Windowed cells persist their series; plain cells are untouched."""

    def _spec(self, **overrides):
        from repro.experiments import ExperimentSpec

        kwargs = dict(
            loads=(0.4,), root_seed=7, warmup=100, measure=240, drain=80,
        )
        kwargs.update(overrides)
        return ExperimentSpec.grid(
            ["polarfly:conc=2,q=5"], ["min"], ["uniform"], **kwargs
        )

    def test_windowed_cell_version_and_key(self):
        from repro.experiments.spec import CELL_VERSION

        plain = self._spec().cells()[0]
        windowed = self._spec(window=60).cells()[0]
        assert plain["version"] == windowed["version"] == CELL_VERSION == 5
        assert "window" not in plain
        assert windowed["window"] == 60
        # The window width is an ordinary hashed field: enabling windows
        # changes the key and leaves the non-windowed fleet's alone.
        # Both keys are the ones these cells had under the two-constant
        # scheme, so a version bump refreshes artifacts in place.
        assert plain["key"].startswith("cb65e3a13f3d")
        assert windowed["key"].startswith("e444c9c9e735")

    def test_direct_trace_equals_the_obsreport_path(self, monkeypatch, tmp_path):
        """A windowed, faulted cell under ``$REPRO_OBS`` emits its
        ``ts.window`` rows; ``obsreport --trace`` on those and
        ``chrome_trace`` on the cell's series give the same tracks."""
        from repro.experiments import ExperimentSpec, SweepRunner

        spec = ExperimentSpec.fault_grid(
            ["polarfly:conc=2,q=5"], ["min"], ["uniform"],
            ["linkflap:count=2,cycle=150,duration=100,seed=1"],
            loads=(0.4,), root_seed=7, warmup=100, measure=240, drain=80,
            window=60,
        )
        monkeypatch.setenv("REPRO_OBS", f"dir={tmp_path / 'obs'}")
        (stats,) = SweepRunner(cache=None, max_workers=1).run(spec).cells.values()
        series = WindowSeries.from_summary(stats["timeseries"])
        out = tmp_path / "trace.json"
        subprocess.run(
            [sys.executable, os.path.join(ROOT, "tools", "obsreport.py"),
             str(tmp_path / "obs"), "--trace", str(out)],
            check=True, capture_output=True,
            env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
        )
        via = json.loads(out.read_text())["traceEvents"]
        direct = chrome_trace(series)["traceEvents"]
        key = spec.cells()[0]["key"][:12]
        assert via[0] == {
            "ph": "M", "pid": 0, "name": "process_name",
            "args": {"name": f"cell {key}"},
        }
        assert via[1:] == direct[1:]
        assert sum(e["ph"] == "i" for e in direct) == 2  # the two link downs

    def test_series_persists_through_cache(self, tmp_path):
        from repro.experiments import ResultCache, SweepRunner

        spec = self._spec(window=60)
        cache = ResultCache(tmp_path / "cache")
        with SweepRunner(cache=cache, max_workers=1) as runner:
            first = runner.run(spec)
        (stats,) = first.cells.values()
        series = WindowSeries.from_summary(stats["timeseries"])
        assert len(series) == 4  # ceil(240 / 60)
        assert sum(series.values("ejected")) > 0
        assert stats["steady_state_window"] == steady_state_window(series)
        # Replay from cache: bit-identical, including the series.
        with SweepRunner(cache=cache, max_workers=1) as runner:
            second = runner.run(spec)
        assert second.cells == first.cells
        assert second.cache_hits == 1
        # Non-windowed cells never grow the new stats keys.
        with SweepRunner(cache=None, max_workers=1) as runner:
            (plain_stats,) = runner.run(self._spec()).cells.values()
        assert "timeseries" not in plain_stats
        assert "steady_state_window" not in plain_stats
