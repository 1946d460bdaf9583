"""Flat-engine link telemetry: attached counters never change a run.

Link counts and occupancy samples are compared across all four cycle
paths in ``tests/test_differential.py``.
"""

import pytest

from repro.flitsim import run_with_telemetry

from oracles import assert_same_result, build

WINDOW = dict(warmup=120, measure=240, sample_every=8)
#: topology, policy, traffic, load
CELL = ("polarfly:conc=2,q=7", "min", "uniform", 0.5)


def test_attach_does_not_perturb_results():
    plain = build(*CELL, seed=7)
    plain_res = plain.run(warmup=120, measure=240, drain=80)

    instrumented = build(*CELL, seed=7)
    instrumented.attach_link_telemetry()
    inst_res = instrumented.run(warmup=120, measure=240, drain=80)
    assert_same_result(plain_res, inst_res)
    # The attached counters do tick — what they must never do is change
    # the simulation.
    assert instrumented.link_flits().sum() > 0


def test_run_with_telemetry_finalizes_flat_result():
    sim = build(*CELL, seed=7)
    res, tel = run_with_telemetry(sim, **WINDOW)
    assert sim.result is not None
    assert res.cycles == WINDOW["measure"] == tel.cycles
    counts, _ = tel.utilization_histogram()
    assert counts.sum() == tel.num_directed_links  # idle links included


def test_rejects_unknown_engine():
    with pytest.raises(TypeError):
        run_with_telemetry(object())
