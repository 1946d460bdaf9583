"""Flat-engine link telemetry bit-matches the reference oracle.

`run_with_telemetry` instruments both engines at the same accounting
point (a link grant counts before any fault doom filtering, during the
measure window only), so per-link flit counts and sampled occupancies
must agree bit-exactly on PolarFly q=7 — on the pure-numpy cycle path
*and* the C kernel path — and attaching the counters must not perturb
the simulated results themselves.
"""

import numpy as np
import pytest

from repro.experiments import FAULTS, POLICIES
from repro.experiments.runner import auto_sim_config
from repro.faults import prepare_fault_policy
from repro.flitsim import (
    FlatSimulator,
    NetworkSimulator,
    run_with_telemetry,
)
from repro.flitsim.traffic import TornadoTraffic, UniformTraffic

WINDOW = dict(warmup=120, measure=240, sample_every=8)


def build(pf, tables, cls, policy_spec="min", traffic_cls=UniformTraffic,
          load=0.5, seed=7, fault_spec=None):
    policy = POLICIES.create(policy_spec, tables)
    faults = None
    if fault_spec is not None:
        faults = FAULTS.create(fault_spec, pf)
        prepare_fault_policy(policy, faults, pf)
    return cls(
        pf, policy, traffic_cls(pf), load,
        config=auto_sim_config(policy), seed=seed, faults=faults,
    )


def assert_telemetry_identical(ref_tel, flat_tel):
    assert flat_tel.cycles == ref_tel.cycles
    assert flat_tel.num_directed_links == ref_tel.num_directed_links
    assert flat_tel.link_flits == ref_tel.link_flits
    ref_occ = {k: float(v) for k, v in ref_tel.mean_occupancy.items()}
    flat_occ = {k: float(v) for k, v in flat_tel.mean_occupancy.items()}
    assert flat_occ == ref_occ


def assert_results_identical(a, b):
    assert a.injected_flits == b.injected_flits
    assert a.ejected_flits == b.ejected_flits
    assert a.cycles == b.cycles
    assert np.array_equal(np.asarray(a.latencies), np.asarray(b.latencies))
    assert np.array_equal(np.asarray(a.hop_counts), np.asarray(b.hop_counts))


@pytest.mark.parametrize(
    "policy_spec,traffic_cls,load",
    [
        ("min", UniformTraffic, 0.5),
        ("min", TornadoTraffic, 0.8),
        ("ugal-pf", UniformTraffic, 0.6),
    ],
    ids=["min-uniform", "min-tornado", "ugalpf-uniform"],
)
def test_flat_telemetry_bit_matches_reference(pf, tables, flat_variants,
                                              policy_spec, traffic_cls, load):
    ref_sim = build(pf, tables, NetworkSimulator, policy_spec, traffic_cls, load)
    ref_res, ref_tel = run_with_telemetry(ref_sim, **WINDOW)
    for label, ctx, expects_kernel in flat_variants:
        with ctx():
            flat_sim = build(
                pf, tables, FlatSimulator, policy_spec, traffic_cls, load
            )
        assert (flat_sim._kernel is not None) == expects_kernel, label
        flat_res, flat_tel = run_with_telemetry(flat_sim, **WINDOW)
        assert_results_identical(ref_res, flat_res)
        assert_telemetry_identical(ref_tel, flat_tel)
        assert flat_tel.link_flits, label  # a loaded run carries flits


def test_faulted_telemetry_counts_before_drop(pf, tables, flat_variants):
    # Doomed flits (downed link ahead) still count at the grant point in
    # both engines — the counting-before-doom-filter placement contract.
    fault = "linkflap:count=3,cycle=150,duration=120,seed=1"
    ref_sim = build(pf, tables, NetworkSimulator, "ugal-pf", load=0.4,
                    fault_spec=fault)
    _, ref_tel = run_with_telemetry(ref_sim, **WINDOW)
    for label, ctx, _ in flat_variants:
        with ctx():
            flat_sim = build(pf, tables, FlatSimulator, "ugal-pf", load=0.4,
                             fault_spec=fault)
        _, flat_tel = run_with_telemetry(flat_sim, **WINDOW)
        assert_telemetry_identical(ref_tel, flat_tel)
        assert flat_sim._fault.dropped_flits > 0, label  # faults actually hit


def test_attach_does_not_perturb_results(pf, tables):
    plain = build(pf, tables, FlatSimulator)
    plain_res = plain.run(warmup=120, measure=240, drain=80)

    instrumented = build(pf, tables, FlatSimulator)
    instrumented.attach_link_telemetry()
    inst_res = instrumented.run(warmup=120, measure=240, drain=80)
    assert_results_identical(plain_res, inst_res)
    # run() opens the measure window itself, so the attached counters do
    # tick — what they must never do is change the simulation.
    assert int(instrumented._ltel.sum()) > 0


def test_run_with_telemetry_finalizes_flat_result(pf, tables):
    sim = build(pf, tables, FlatSimulator)
    res, tel = run_with_telemetry(sim, **WINDOW)
    assert sim.result is not None
    assert res.cycles == WINDOW["measure"] == tel.cycles
    counts, _ = tel.utilization_histogram()
    assert counts.sum() == tel.num_directed_links  # idle links included


def test_rejects_unknown_engine():
    with pytest.raises(TypeError):
        run_with_telemetry(object())
