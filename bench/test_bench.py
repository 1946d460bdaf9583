"""Fast checks of the benchmark harness itself (no timing assertions)."""

import json
import re
from pathlib import Path

import pytest

import bench_checks
import bench_child
import bench_specs
import run
from bench_spans import Recorder, self_times, span_self_times
from repro.experiments import ExperimentSpec
from repro.experiments.runner import run_cell
from repro.flitsim._kernel import load_kernel

CONTRACT = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())


def tiny_spec(_workload="", seed=3):
    return ExperimentSpec.grid(
        ["polarfly:conc=2,q=5"], ["ugal-pf"], ["uniform"], loads=(0.3, 0.7),
        warmup=30, measure=60, drain=30, root_seed=seed,
    )


def test_span_self_times_on_nested_spans():
    ticks = iter([0, 1, 2, 5, 6, 8, 10, 20])
    rec = Recorder(clock=lambda: next(ticks))
    with rec.span("root"):                 # 0 .. 20
        with rec.span("a", cell="c1"):     # 1 .. 10
            with rec.span("b"):            # 2 .. 5
                pass
            with rec.span("b"):            # 6 .. 8
                pass
    assert span_self_times(rec.spans) == [11, 4, 3, 2]
    own = self_times(rec.spans)
    assert own == {"root": 11, "a": 4, "b": 5}
    assert sum(own.values()) == 20  # self times partition the root
    assert [s.cell for s in rec.spans] == ["", "c1", "c1", "c1"]


def test_traced_driver_matches_run_cell():
    cells = tiny_spec().cells()
    rec, counts = Recorder(), bench_child.Counts()
    for cell, stats in bench_child.drive_cells(cells, rec, counts, {}):
        assert stats == run_cell(cell)
    assert counts.cycles == 2 * 120
    assert counts.packets > 0 and counts.select_calls > 0


def test_contract_names_are_well_formed_and_unique():
    names = [
        m["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for m in CONTRACT[key]
    ]
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert len(set(names)) == len(names)
    assert [w["name"] for w in CONTRACT["workloads"]] == list(bench_specs.WORKLOADS)


def test_every_declared_metric_is_produced(tmp_path, monkeypatch):
    if load_kernel() is None:
        pytest.skip("C cycle kernel unavailable")
    monkeypatch.setattr(bench_specs, "build_spec", tiny_spec)
    sample = bench_child.run_sample("fig_sweep_q7", 3, 0.0, str(tmp_path))
    traced = bench_child.run_trace("fig_sweep_q7", 3, str(tmp_path))
    assert not sample["errors"] and not traced["errors"]
    assert sample["digests"] == traced["digests"]
    assert set(run.end_to_end_values([sample])) == {
        m["name"] for m in CONTRACT["end_to_end"]
    }
    # The per-cell stamps partition the timed region.
    assert sum(t[0] for t in sample["cell_times"].values()) == pytest.approx(
        sample["wall_s"]
    )
    layers = dict(
        traced["layers"], **run.parent_layers([sample], [0.3, 0.3], [traced])
    )
    assert set(layers) == {m["name"] for m in CONTRACT["per_layer"]}
    assert layers["flitsim.reference.mismatches"] == 0
    assert layers["bench.layer_coverage"] > 0.9
    assert not list(tmp_path.iterdir())  # temporary result caches removed


def test_quiet_sum_takes_the_fastest_sample_cell_by_cell():
    samples = [
        {"cell_times": {"a": [1.0, 0.9], "b": [5.0, 4.0]}},
        {"cell_times": {"a": [3.0, 0.8], "b": [2.0, 2.0]}},
    ]
    assert run.quiet_sum(samples, 0) == 3.0  # a from sample 0, b from sample 1
    assert run.quiet_sum(samples, 1) == 2.8


def test_compare_verdicts():
    def side(values):
        return dict(run.summarize(values), values=values)

    base = side([10.0, 10.1, 10.2, 10.3, 10.4])
    assert run.verdict(base, side([10.1, 10.2, 10.3, 10.2, 10.1]), "lower", 0.1)[1] == "unchanged"
    assert run.verdict(base, side([11.5, 11.6, 11.7, 11.8, 11.9]), "lower", 0.1)[1] == "regressed"
    assert run.verdict(base, side([9.0, 9.1, 9.2, 9.3, 9.9]), "lower", 0.1)[1] == "improved"
    assert run.verdict(base, side([8.0, 10.2, 10.3, 12.5, 13.0]), "lower", 0.1)[1] == "unresolved"
    assert run.verdict(base, side([9.0, 9.1, 9.2, 9.3, 9.9]), "higher", 0.1)[1] == "unchanged"


def test_golden_digest_rounds_floats_only():
    stats = {"cycles": 500, "avg_latency": 12.3456789012345, "finished": True}
    nudged = dict(stats, avg_latency=12.3456789012399)
    assert bench_checks.golden_digest(stats) == bench_checks.golden_digest(nudged)
    assert bench_checks.exact_digest(stats) != bench_checks.exact_digest(nudged)
    assert bench_checks.golden_digest(stats) != bench_checks.golden_digest(
        dict(stats, cycles=501)
    )
